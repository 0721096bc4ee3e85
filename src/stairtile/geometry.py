"""Exact planar primitives: rational scalars, points, boxes, stairs, triangles.

Every coordinate in this package is a ``fractions.Fraction``, so all geometric
predicates are decided exactly; nothing here ever rounds.  Stair polygons are
half open: each column contains its left edge and floor but not its right edge
or ceiling.  That convention is what makes "every point covered exactly j
times" a pointwise statement instead of an almost-everywhere one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

RationalLike = Union[Fraction, int, str]


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and exact "a/b" strings to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a".  Decimal notation is rejected, never rounded."""
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"decimal notation rejected, use a/b: {text!r}")
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def as_int(value: Fraction, den: int) -> int:
    """The integer value * den, for a den that value's denominator
    divides."""
    return value.numerator * (den // value.denominator)


def format_rational(value: Fraction) -> str:
    """Render as "num/den", omitting the denominator when it is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_rationals(values: Sequence[Fraction]) -> str:
    """Render as "(a, b, ...)", each value as by ``format_rational``."""
    return "(" + ", ".join(map(format_rational, values)) + ")"


@dataclass(frozen=True)
class Point:
    """A point of the rational plane."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", frac(self.x))
        object.__setattr__(self, "y", frac(self.y))

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def scaled(self, c: RationalLike) -> "Point":
        c = frac(c)
        return Point(self.x * c, self.y * c)

    def __str__(self) -> str:
        return format_rationals((self.x, self.y))

    def to_json(self) -> list[str]:
        return [format_rational(self.x), format_rational(self.y)]

    @staticmethod
    def from_json(data: Sequence[RationalLike]) -> "Point":
        if len(data) != 2:
            raise ValueError(f"point needs two coordinates: {data!r}")
        return Point(frac(data[0]), frac(data[1]))


ORIGIN = Point(Fraction(0), Fraction(0))


def prec(p: Point, q: Point) -> bool:
    """Coordinate-sum order with ties broken by x; a strict total order.

    ``prec(p, q)`` is true iff p.x+p.y < q.x+q.y, or the sums coincide and
    p.x < q.x.  Distinct points are always comparable, and the order is
    translation invariant.
    """
    ps, qs = p.x + p.y, q.x + q.y
    return ps < qs or (ps == qs and p.x < q.x)


def prec_negative(v: Point) -> bool:
    """True iff v precedes the origin, i.e. prec(u + v, u) for every u."""
    s = v.x + v.y
    return s < 0 or (s == 0 and v.x < 0)


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box [x_min, x_max] x [y_min, y_max]."""

    x_min: Fraction
    x_max: Fraction
    y_min: Fraction
    y_max: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_min", frac(self.x_min))
        object.__setattr__(self, "x_max", frac(self.x_max))
        object.__setattr__(self, "y_min", frac(self.y_min))
        object.__setattr__(self, "y_max", frac(self.y_max))
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"degenerate box: {self}")

    def contains(self, p: Point) -> bool:
        return (self.x_min <= p.x <= self.x_max
                and self.y_min <= p.y <= self.y_max)

    def translated(self, w: Point) -> "Box":
        return Box(self.x_min + w.x, self.x_max + w.x,
                   self.y_min + w.y, self.y_max + w.y)

    def inflated(self, margin: RationalLike) -> "Box":
        m = frac(margin)
        return Box(self.x_min - m, self.x_max + m,
                   self.y_min - m, self.y_max + m)

    @property
    def width(self) -> Fraction:
        return self.x_max - self.x_min

    @property
    def height(self) -> Fraction:
        return self.y_max - self.y_min


@dataclass(frozen=True)
class StairPolygon:
    """Half open r-stair polygon with floor at y = 0.

    The point set is the disjoint union of the columns
    [x_i, x_{i+1}) x [0, heights_i) for i = 0..r, where the x_breaks increase
    strictly and the heights decrease strictly to some positive minimum.
    Degenerate input (zero-width column, non-monotone heights) is rejected at
    construction rather than silently normalized.
    """

    x_breaks: tuple[Fraction, ...]
    heights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        xb = tuple(frac(v) for v in self.x_breaks)
        hs = tuple(frac(v) for v in self.heights)
        object.__setattr__(self, "x_breaks", xb)
        object.__setattr__(self, "heights", hs)
        if len(xb) != len(hs) + 1 or not hs:
            raise ValueError("need len(x_breaks) == len(heights) + 1 >= 2")
        if any(a >= b for a, b in zip(xb, xb[1:])):
            raise ValueError("x_breaks not strictly increasing: "
                             f"{format_rationals(xb)}")
        if any(a <= b for a, b in zip(hs, hs[1:])):
            raise ValueError("heights not strictly decreasing: "
                             f"{format_rationals(hs)}")
        if hs[-1] <= 0:
            raise ValueError("heights must stay positive: "
                             f"{format_rationals(hs)}")

    @property
    def r(self) -> int:
        """Number of steps (columns minus one)."""
        return len(self.heights) - 1

    def columns(self) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
        """Yield (x_lo, x_hi, height) for each half open column."""
        for i, h in enumerate(self.heights):
            yield self.x_breaks[i], self.x_breaks[i + 1], h

    def contains(self, p: Point) -> bool:
        """Half open membership: left/floor edges in, right/top edges out."""
        i = bisect_right(self.x_breaks, p.x) - 1
        if i < 0 or i >= len(self.heights):
            return False
        return 0 <= p.y < self.heights[i]

    def contains_closed(self, p: Point) -> bool:
        """Membership in the closure of the stair."""
        if p.y < 0 or p.x < self.x_breaks[0] or p.x > self.x_breaks[-1]:
            return False
        i = bisect_right(self.x_breaks, p.x) - 1
        # on an internal break the taller (left) column decides the closure
        if i > 0 and p.x == self.x_breaks[i]:
            i -= 1
        if i >= len(self.heights):
            i = len(self.heights) - 1
        return p.y <= self.heights[i]

    def contains_interior(self, p: Point) -> bool:
        """Membership in the topological interior of the closure."""
        if p.y <= 0 or p.x <= self.x_breaks[0] or p.x >= self.x_breaks[-1]:
            return False
        i = bisect_right(self.x_breaks, p.x) - 1
        # on an internal break the shorter (right) column bounds the interior
        return p.y < self.heights[i]

    def area(self) -> Fraction:
        return sum(((hi - lo) * h for lo, hi, h in self.columns()),
                   Fraction(0))

    def scaled(self, c: RationalLike) -> "StairPolygon":
        c = frac(c)
        if c <= 0:
            raise ValueError(f"scale factor must be positive: {c}")
        return StairPolygon(tuple(v * c for v in self.x_breaks),
                            tuple(v * c for v in self.heights))

    def bbox(self) -> Box:
        return Box(self.x_breaks[0], self.x_breaks[-1],
                   Fraction(0), self.heights[0])

    def to_json(self) -> dict:
        return {
            "x_breaks": [format_rational(v) for v in self.x_breaks],
            "heights": [format_rational(v) for v in self.heights],
        }

    @staticmethod
    def from_json(data: dict) -> "StairPolygon":
        return StairPolygon(tuple(frac(v) for v in data["x_breaks"]),
                            tuple(frac(v) for v in data["heights"]))


def stair(x_breaks: Sequence[RationalLike],
          heights: Sequence[RationalLike]) -> StairPolygon:
    """Convenience constructor accepting ints and "a/b" strings."""
    return StairPolygon(tuple(frac(v) for v in x_breaks),
                        tuple(frac(v) for v in heights))


@dataclass(frozen=True)
class ScaledTriangle:
    """The triangle l*T with vertices (0,0), (l,0), (0,l), l > 0."""

    side: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "side", frac(self.side))
        if self.side <= 0:
            raise ValueError(f"triangle scale must be positive: {self.side}")

    def contains_closed(self, p: Point) -> bool:
        return p.x >= 0 and p.y >= 0 and p.x + p.y <= self.side

    def contains_interior(self, p: Point) -> bool:
        return p.x > 0 and p.y > 0 and p.x + p.y < self.side

    def area(self) -> Fraction:
        return self.side * self.side / 2

    def bbox(self) -> Box:
        return Box(Fraction(0), self.side, Fraction(0), self.side)

    def vertices(self) -> tuple[Point, Point, Point]:
        return (ORIGIN, Point(self.side, Fraction(0)),
                Point(Fraction(0), self.side))
