"""Planar lattices: bases, determinants, point enumeration, canonical forms.

A lattice is stored as an ordered basis but compared as a point set: two
``Lattice`` values are equal iff each basis vector of one is an integer
combination of the other's, which we decide by reducing both to the unique
lower-triangular canonical basis ((x1, y1), (0, y2)) with x1, y2 > 0 and
0 <= y1 < y2.  The canonical basis is computed once, in integers, when a
``Lattice`` is constructed; that computation is also the check that the
basis is not singular.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, lcm

from .geometry import (Box, Frozen, Point, RationalLike, as_int, fields_json,
                       frac)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _canonical_triple(u1: Point, u2: Point) -> tuple[Fraction, Fraction, Fraction]:
    """Canonical (x1, y1, y2) of the lattice spanned by u1, u2; raises
    ValueError when the basis is singular.

    Works in integers at the lcm den of the four coordinate denominators:
    with (a1, b1), (a2, b2) the scaled basis and g = s*a1 + t*a2 =
    gcd(a1, a2), the vectors s*u1 + t*u2 and (a1*u2 - a2*u1)/g form a
    basis with x-coordinates g and 0; reducing the first one's height
    modulo the second's gives the canonical basis.
    """
    coords = (u1.x, u1.y, u2.x, u2.y)
    den = lcm(*(v.denominator for v in coords))
    a1, b1, a2, b2 = (as_int(v, den) for v in coords)
    g, s, t = _xgcd(a1, a2)
    y2 = abs(a1 // g * b2 - a2 // g * b1) if g else 0
    if y2 == 0:
        raise ValueError(f"singular basis: {u1}, {u2}")
    return (Fraction(g, den), Fraction((s * b1 + t * b2) % y2, den),
            Fraction(y2, den))


class Lattice(Frozen):
    """Rank-2 lattice given by two basis vectors with nonzero determinant."""

    u1: Point
    u2: Point

    def __init__(self, u1: Point, u2: Point) -> None:
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)
        object.__setattr__(self, "_key", _canonical_triple(u1, u2))

    @property
    def det(self) -> Fraction:
        return self.u1.x * self.u2.y - self.u1.y * self.u2.x

    @property
    def d(self) -> Fraction:
        """Fundamental-domain area |det|."""
        x1, _, y2 = self._key
        return x1 * y2

    @property
    def den(self) -> int:
        """The lcm of the canonical denominators: L lies in (Z/den)^2."""
        return lcm(*(v.denominator for v in self._key))

    def canonical_key(self) -> tuple[Fraction, Fraction, Fraction]:
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def coefficients(self, p: Point) -> tuple[Fraction, Fraction]:
        """Exact (a, b) with p = a*u1 + b*u2."""
        det = self.det
        a = (p.x * self.u2.y - p.y * self.u2.x) / det
        b = (self.u1.x * p.y - self.u1.y * p.x) / det
        return a, b

    def contains(self, p: Point) -> bool:
        a, b = self.coefficients(p)
        return a.denominator == 1 and b.denominator == 1

    def point(self, a: RationalLike, b: RationalLike) -> Point:
        return self.u1.scaled(a) + self.u2.scaled(b)

    def scaled(self, c: RationalLike) -> "Lattice":
        c = frac(c)
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        return Lattice(self.u1.scaled(c), self.u2.scaled(c))

    to_json = fields_json

    @staticmethod
    def from_json(data: dict) -> "Lattice":
        return Lattice(Point.from_json(data["u1"]), Point.from_json(data["u2"]))


def integer_lattice() -> Lattice:
    """The standard lattice Z^2."""
    return Lattice(Point(1, 0), Point(0, 1))


def shift_lattice(m: int, j: int) -> Lattice:
    """The lattice generated by (1, m) and (0, 2j+1); determinant 2j+1."""
    if m < 1 or j < 1:
        raise ValueError(f"need m >= 1 and j >= 1, got m={m}, j={j}")
    return Lattice(Point(1, m), Point(0, 2 * j + 1))


def scaled_points(lat: Lattice, den: int, x_min: int, x_max: int,
                  y_min: int, y_max: int) -> list[tuple[int, int]]:
    """The points of the lattice scaled by den that lie in the closed
    integer box [x_min, x_max] x [y_min, y_max], each exactly once, sorted
    by (x, y); den must make the canonical basis integral.

    Walks the columns x = k*x1 of the canonical basis ((x1, y1), (0, y2)):
    column k holds the points (k*x1, k*y1 + t*y2), and the box bounds k and
    then t to exact integer ranges, so the cost follows the number of
    columns and points, not the skew of the given basis.
    """
    x1, y1, y2 = (as_int(v, den) for v in lat.canonical_key())
    out = []
    for k in range(-(-x_min // x1), x_max // x1 + 1):
        x, y0 = k * x1, k * y1
        out.extend((x, y) for y in range(y0 - (y0 - y_min) // y2 * y2,
                                         y_max + 1, y2))
    return out


def points_in_box(lat: Lattice, box: Box) -> list[Point]:
    """All lattice points in a closed box, each exactly once, sorted by
    (x, y): ``scaled_points`` at the common denominator of the canonical
    basis."""
    den = lat.den
    return [Point(Fraction(x, den), Fraction(y, den))
            for x, y in scaled_points(lat, den, ceil(box.x_min * den),
                                      floor(box.x_max * den),
                                      ceil(box.y_min * den),
                                      floor(box.y_max * den))]


def enumerate_integer_sublattices(det_target: int) -> list[Lattice]:
    """All sublattices of Z^2 of index det_target, in triangular form.

    Each sublattice appears exactly once as ((a, b), (0, c)) with a*c equal
    to the target and 0 <= b < c; the count is the divisor sum sigma(n).
    """
    if det_target < 1:
        raise ValueError(f"index must be positive: {det_target}")
    out = []
    for a in range(1, det_target + 1):
        if det_target % a:
            continue
        c = det_target // a
        for b in range(c):
            out.append(Lattice(Point(a, b), Point(0, c)))
    return out
