"""Planar lattices: bases, determinants, point enumeration, canonical forms.

A lattice is stored as an ordered basis but compared as a point set: two
``Lattice`` values are equal iff each basis vector of one is an integer
combination of the other's, which we decide by reducing both to the unique
lower-triangular canonical basis ((x1, y1), (0, y2)) with x1, y2 > 0 and
0 <= y1 < y2.  The canonical basis is unique, so a basis already in that
form is its own key; any other given basis is reduced once, in integers,
when the ``Lattice`` is constructed, and that reduction is also the check
that the basis is not singular.  The lattices the library makes from its
own canonical keys (the sublattices of Z^2, and the triangular lattices of
the search and the converse sweep) are built directly from the key by
``_canonical``, with no coercion and no check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, lcm, prod

from .arith import OversizeError, factorize
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
    # lists, not generators: cheaper at four items
    den = lcm(*[v.denominator for v in coords])
    a1, b1, a2, b2 = [as_int(v, den) for v in coords]
    g, s, t = _xgcd(a1, a2)
    y2 = abs(a1 // g * b2 - a2 // g * b1) if g else 0
    if y2 == 0:
        raise ValueError(f"singular basis: {u1}, {u2}")
    return (Fraction(g, den), Fraction((s * b1 + t * b2) % y2, den),
            Fraction(y2, den))


class Lattice(Frozen):
    """Rank-2 lattice given by two basis vectors with nonzero determinant;
    den, the lcm of the canonical denominators (L lies in (Z/den)^2), is
    computed on first read and kept, and is no field, so equality, hash,
    repr and JSON see u1, u2 only."""

    u1: Point
    u2: Point

    def __init__(self, u1: Point, u2: Point) -> None:
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)
        # The canonical basis is unique, so one already in that form (as in
        # every sweep's space) is its own key, and a nonsingular one; any
        # other is reduced.  A skewed basis fails the first, cheapest test;
        # the signs are read from the numerators, which is cheaper than a
        # Fraction comparison.
        if (not u2.x and u1.x.numerator > 0 and u1.y.numerator >= 0
                and u1.y < u2.y):
            key = u1.x, u1.y, u2.y
        else:
            key = _canonical_triple(u1, u2)
        object.__setattr__(self, "_key", key)

    @cached_property
    def den(self) -> int:
        x1, y1, y2 = self._key
        return lcm(x1.denominator, y1.denominator, y2.denominator)

    @property
    def det(self) -> Fraction:
        return self.u1.x * self.u2.y - self.u1.y * self.u2.x

    @property
    def d(self) -> Fraction:
        """Fundamental-domain area |det|."""
        x1, _, y2 = self._key
        return x1 * y2

    def canonical_key(self) -> tuple[Fraction, Fraction, Fraction]:
        return self._key

    def int_key(self, den: int) -> tuple[int, int, int]:
        """The canonical (x1, y1, y2) in units of 1/den, which den must
        make integral."""
        x1, y1, y2 = self._key
        return as_int(x1, den), as_int(y1, den), as_int(y2, den)

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


_new = object.__new__
_set = object.__setattr__


def _canonical(x1: Fraction, y1: Fraction, u2: Point) -> Lattice:
    """The lattice of the canonical basis ((x1, y1), u2), built without
    ``Lattice.__init__``.  The caller guarantees the form: Fractions x1 > 0
    and 0 <= y1 < y2, and u2 = (0, y2).  The basis is then its own key, so
    nothing is coerced, compared or reduced, and the lattice equals, hashes,
    prints and serializes as ``Lattice(Point(x1, y1), u2)``."""
    u1 = _new(Point)
    _set(u1, "x", x1)
    _set(u1, "y", y1)
    lat = _new(Lattice)
    _set(lat, "u1", u1)
    _set(lat, "u2", u2)
    _set(lat, "_key", (x1, y1, u2.y))
    return lat


def integer_lattice() -> Lattice:
    """The standard lattice Z^2."""
    return Lattice(Point(1, 0), Point(0, 1))


def shift_lattice(m: int, j: int) -> Lattice:
    """The lattice generated by (1, m) and (0, 2j+1); determinant 2j+1."""
    if m < 1 or j < 1:
        raise ValueError(f"need m >= 1 and j >= 1, got m={m}, j={j}")
    return Lattice(Point(1, m), Point(0, 2 * j + 1))


def _triangular(q: int, a: int, b: int, c: int) -> Lattice:
    """The lattice ((a/q, b/q), (0, c/q)), for q, a, c > 0 and 0 <= b < c:
    a canonical basis, so it is its own key and is built by ``_canonical``
    with no check; with gcd(q, a, b, c) = 1 its den is q and its
    ``int_key(q)`` is (a, b, c)."""
    return _canonical(Fraction(a, q), Fraction(b, q),
                      Point(0, Fraction(c, q)))


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
    x1, y1, y2 = lat.int_key(den)
    out = []
    for k in range(-(-x_min // x1), x_max // x1 + 1):
        x, y0 = k * x1, k * y1
        out.extend((x, y) for y in range(y0 - (y0 - y_min) // y2 * y2,
                                         y_max + 1, y2))
    return out


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of floor((a*i + b) / m) over 0 <= i < n, for m > 0 and any
    integers a, b, in O(log m) steps.

    This is the Euclid-like reduction of AtCoder Library's ``floor_sum``.
    Floor division takes (a // m)*i + b // m out of each term and leaves
    0 <= a, b < m.  The sum then counts the integer points (i, t) with
    0 <= i < n and 1 <= t <= (a*i + b) / m.  Counted by rows instead, with
    top = a*n + b, there are n' = top // m rows, and row t holds
    floor((top - m*t) / a) of the points; t = n' - u makes that
    floor((m*u + top % m) / a) for 0 <= u < n', the same sum with m and a
    swapped.
    """
    total = 0
    while n > 0:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        n, b = divmod(a * n + b, m)
        m, a = a, m
    return total


def triangle_count(key: tuple[int, int, int], x: int, y: int, s: int) -> int:
    """#{w in L : w.x <= x, w.y <= y, w.x + w.y >= s}, in units of 1/den,
    with key = ``L.int_key(den)``, the canonical (x1, y1, y2).

    Column k holds the points (k*x1, k*y1 + t*y2); with w.x = k*x1 fixed,
    s - k*x1 <= w.y <= y leaves floor((y - k*y1) / y2) -
    floor((s - 1 - k*(x1 + y1)) / y2) values of t, a count that is >= 0
    once k*x1 >= s - y.  So the columns ceil((s - y) / x1) <= k <=
    floor(x / x1) give two floor sums, whatever the skew of L.
    """
    x1, y1, y2 = key
    k0 = -((y - s) // x1)
    n = x // x1 - k0 + 1
    if n <= 0:
        return 0
    return (floor_sum(n, y2, -y1, y - k0 * y1)
            - floor_sum(n, y2, -x1 - y1, s - 1 - k0 * (x1 + y1)))


def preceding_count(key: tuple[int, int, int], x: int, y: int) -> int:
    """#{w in L : w follows 0, w.x <= x, w.y <= y} in the order of
    ``scales.quadrant_stair``: w follows 0 iff w.x + w.y > 0, or = 0 with
    w.x > 0.  For p = (x, y) in the closed quadrant, these are the points
    p - w of its coset in the quadrant that precede p.  key is
    ``L.int_key(den)``, as for ``triangle_count``.

    The points with w.x + w.y >= 1 are ``triangle_count(key, x, y, 1)``.
    The ties w = (k*x1, -k*x1) need y2 | k*(x1 + y1), so w.x runs over the
    multiples of step = x1*y2 / gcd(x1 + y1, y2); those counted have
    max(1, -y) <= w.x <= x.
    """
    x1, y1, y2 = key
    step = x1 * y2 // gcd(x1 + y1, y2)
    ties = x // step - (max(1, -y) - 1) // step
    return triangle_count(key, x, y, 1) + max(ties, 0)


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


# enumerate_integer_sublattices builds at most this many lattices: at
# sigma(99301) = 10^5, about 0.5 s and 35 MB in-process.
SUBLATTICE_BUDGET = 10**5


def enumerate_integer_sublattices(det_target: int) -> list[Lattice]:
    """All sublattices of Z^2 of index det_target, in triangular form.

    Each sublattice appears exactly once as ((a, b), (0, c)) with a*c equal
    to the target and 0 <= b < c, built by ``_canonical``; the count is the
    divisor sum sigma(n).  sigma(n) is computed first, by formula: past
    ``SUBLATTICE_BUDGET`` lattices, ``OversizeError`` names it and nothing
    is built.  An n above the budget is refused unfactorized, as
    sigma(n) >= n + 1 already exceeds it.
    """
    if det_target < 1:
        raise ValueError(f"index must be positive: {det_target}")
    if det_target > SUBLATTICE_BUDGET:
        count = f"at least n + 1 = {det_target + 1}"
    else:
        sigma = prod((p ** (e + 1) - 1) // (p - 1)
                     for p, e in factorize(det_target))
        count = f"sigma(n) = {sigma}" if sigma > SUBLATTICE_BUDGET else ""
    if count:
        raise OversizeError(
            f"Z^2 has {count} sublattices of index n = {det_target}, past "
            f"the budget of {SUBLATTICE_BUDGET}")
    # one Fraction per integer and one u2 per c, shared by the lattices
    values = [Fraction(i) for i in range(det_target + 1)]
    out = []
    for a in range(1, det_target + 1):
        if det_target % a:
            continue
        c = det_target // a
        x, u2 = values[a], Point(values[0], values[c])
        out.extend(_canonical(x, values[b], u2) for b in range(c))
    return out
