"""Exact planar primitives: rational scalars, points, boxes, stairs, triangles.

Every coordinate in this package is a ``fractions.Fraction``, so all geometric
predicates are decided exactly; nothing here ever rounds.  Stair polygons are
half open: each column contains its left edge and floor but not its right edge
or ceiling.  That convention is what makes "every point covered exactly j
times" a pointwise statement instead of an almost-everywhere one.

The package's value classes derive from ``Frozen``.  Their fields are
their annotations, in order; an object equals only an object of the same
class with equal fields, hashes as the tuple of its fields (the value a
frozen dataclass gives, so set and dict orders are unchanged), prints as
``Point(x=Fraction(1, 2), y=Fraction(0, 1))`` and refuses assignment and
deletion.  ``Frozen`` replaces ``dataclasses`` because every CLI call is a
new process that imports the package: importing ``dataclasses`` (with
``inspect``, ``ast`` and ``tokenize``) and generating the methods of
sixteen classes took about 30 of the package's 41 ms import, against
about 10 ms in all now.  ``fields_json`` is the one JSON rule of the value
classes: fields in order, rationals as "num/den", tuples as lists and
nested values through their own ``to_json``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from fractions import Fraction
from operator import attrgetter

RationalLike = Fraction | int | str


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and exact "a/b" strings to a Fraction."""
    # exact type tests first: isinstance against Fraction, whose metaclass
    # is ABCMeta, is slow for an int
    cls = type(value)
    if cls is Fraction:
        return value
    if cls is int:
        return Fraction(value)
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
    num, slash, den = s.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"not an integer or a/b: {text!r}") from None
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


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


_set = object.__setattr__


class Frozen:
    """Immutable value class whose fields are its own annotations, in order.

    Equal only to an object of the same class with equal fields; hashes as
    the tuple of its fields; refuses assignment and deletion.  The generic
    ``__init__`` stores its arguments as the fields.  A subclass that
    normalises or validates defines its own, which hands the final values
    to it or, in the classes built most often, sets each field once with
    ``object.__setattr__``.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = names = tuple(vars(cls).get("__annotations__", ()))
        get = attrgetter(*names)
        cls._values = staticmethod(
            get if len(names) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs) -> None:
        names, cls = self._fields, type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls} takes {len(names)} arguments")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls} got an unexpected or repeated "
                                f"argument {name!r}")
            values[name] = value
        if len(values) < len(names):
            raise TypeError(f"{cls} missing arguments: " + ", ".join(
                name for name in names if name not in values))
        for name in names:
            _set(self, name, values[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _json_value(value: object) -> object:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, Frozen):
        return value.to_json()
    return value


def fields_json(obj: Frozen) -> dict:
    """The object's fields as JSON, in field order: rationals become
    "num/den", tuples lists and value objects their own ``to_json``."""
    return {name: _json_value(getattr(obj, name)) for name in obj._fields}


class Point(Frozen):
    """A point of the rational plane."""

    x: Fraction
    y: Fraction

    def __init__(self, x: RationalLike, y: RationalLike) -> None:
        _set(self, "x", frac(x))
        _set(self, "y", frac(y))

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

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


class Box(Frozen):
    """Axis-aligned closed box [x_min, x_max] x [y_min, y_max]."""

    x_min: Fraction
    x_max: Fraction
    y_min: Fraction
    y_max: Fraction

    def __init__(self, x_min: RationalLike, x_max: RationalLike,
                 y_min: RationalLike, y_max: RationalLike) -> None:
        x_min, x_max, y_min, y_max = (frac(x_min), frac(x_max),
                                      frac(y_min), frac(y_max))
        if x_min > x_max or y_min > y_max:
            raise ValueError(
                "degenerate box (x_min, x_max, y_min, y_max) = "
                + format_rationals((x_min, x_max, y_min, y_max)))
        _set(self, "x_min", x_min)
        _set(self, "x_max", x_max)
        _set(self, "y_min", y_min)
        _set(self, "y_max", y_max)

    def contains(self, p: Point) -> bool:
        return (self.x_min <= p.x <= self.x_max
                and self.y_min <= p.y <= self.y_max)

    def translated(self, w: Point) -> "Box":
        return Box(self.x_min + w.x, self.x_max + w.x,
                   self.y_min + w.y, self.y_max + w.y)

    @property
    def width(self) -> Fraction:
        return self.x_max - self.x_min

    @property
    def height(self) -> Fraction:
        return self.y_max - self.y_min


class StairPolygon(Frozen):
    """Half open r-stair polygon with floor at y = 0.

    The point set is the disjoint union of the columns
    [x_i, x_{i+1}) x [0, heights_i) for i = 0..r, where the x_breaks increase
    strictly and the heights decrease strictly to some positive minimum.
    Degenerate input (zero-width column, non-monotone heights) is rejected at
    construction rather than silently normalized.
    """

    x_breaks: tuple[Fraction, ...]
    heights: tuple[Fraction, ...]

    def __init__(self, x_breaks: Sequence[RationalLike],
                 heights: Sequence[RationalLike]) -> None:
        xb = tuple(map(frac, x_breaks))
        hs = tuple(map(frac, heights))
        _set(self, "x_breaks", xb)
        _set(self, "heights", hs)
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

    to_json = fields_json

    @staticmethod
    def from_json(data: dict) -> "StairPolygon":
        return StairPolygon(data["x_breaks"], data["heights"])


class ScaledTriangle(Frozen):
    """The triangle l*T with vertices (0,0), (l,0), (0,l), l > 0."""

    side: Fraction

    def __init__(self, side: RationalLike) -> None:
        side = frac(side)
        if side <= 0:
            raise ValueError(f"triangle scale must be positive: {side}")
        _set(self, "side", side)

    def contains_closed(self, p: Point) -> bool:
        return p.x >= 0 and p.y >= 0 and p.x + p.y <= self.side

    def contains_interior(self, p: Point) -> bool:
        return p.x > 0 and p.y > 0 and p.x + p.y < self.side

    def bbox(self) -> Box:
        return Box(Fraction(0), self.side, Fraction(0), self.side)

    def vertices(self) -> tuple[Point, Point, Point]:
        return (ORIGIN, Point(self.side, Fraction(0)),
                Point(Fraction(0), self.side))
