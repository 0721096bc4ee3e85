"""Canonical stair polygons, gcd counting rules, and the selection stair.

The canonical (2j-1)-stair has unit columns of heights 2j, 2j-1, ..., 1
and area j(2j+1).  The lattice generated by (1, m) and (0, 2j+1) tiles the
plane exactly j-fold with that stair precisely when gcd(m, 2j+1) and
gcd(m+1, 2j+1) are both 1; both directions of that statement are exercised
here, the forward one over each m and the converse one over a bounded
rational search space, each lattice decided by counting the stair's grid
points in each of its cosets, in integers (``_cosets_hold_at_most``).
The gcd rules count shift_lattice(m, j) points, y = m*x (mod 2j+1), in
regions of integer unit cells of the square [0, 2j+1)^2
(``canonical_regions``, ``count_region``).

``selection_stair`` returns, for any lattice L, the half open stair that
keeps the j first points (in the coordinate-sum order) of every residue
class in the closed quadrant, ``scales.quadrant_stair``, proven at its
covering scale by lattice counts at its corners and one witness point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .geometry import (Frozen, Point, StairPolygon, fields_json,
                       format_rationals, frac)
from .lattice import Lattice, shift_lattice
from .multiplicity import COVERING
from .scales import _proven_stair


class SelectionStairError(RuntimeError):
    """The quadrant stair failed validation: degenerate columns, an area
    other than j * d(L), a corner count that shows it is not the set of
    the j first points of each coset, more than 2j-1 steps, or a witness
    that does not refute covering below its scale."""


def canonical_stair(j: int) -> StairPolygon:
    """The canonical stair: unit columns over [i, i+1) of heights 2j - i."""
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    return StairPolygon(tuple(Fraction(i) for i in range(2 * j + 1)),
                        tuple(Fraction(2 * j - i) for i in range(2 * j)))


def canonical_regions(j: int) -> dict[str, tuple[tuple[int, int], ...]]:
    """The unit-cell regions that drive the gcd counting rules.

    Each region maps to its cells (i, k), the lower-left corners of
    [i, i+1) x [k, k+1) in the square U = [0, 2j+1)^2.  The stair S, the
    diagonal D and the upper stair S* hold the cells with i + k below,
    equal to and above 2j, so the three partition U; the strips B and C
    are the left column (i = 0) and the bottom row (k = 0) of U.
    """
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    n = 2 * j + 1
    cells = [(i, k) for i in range(n) for k in range(n)]
    return {"B": tuple((i, k) for i, k in cells if i == 0),
            "C": tuple((i, k) for i, k in cells if k == 0),
            "D": tuple((i, k) for i, k in cells if i + k == 2 * j),
            "S": tuple((i, k) for i, k in cells if i + k < 2 * j),
            "S*": tuple((i, k) for i, k in cells if i + k > 2 * j)}


_REGION_NAMES = ("B", "C", "D", "S")


def count_region(m: int, j: int, region: str, s: int, t: int) -> int:
    """Number of shift_lattice(m, j) points in the region shifted by (s, t).

    region is one of "B", "C", "D", "S" (left strip, bottom strip, diagonal,
    stair) of ``canonical_regions``.  The lattice lies in Z^2 and the shift
    is integral, so each shifted unit cell holds exactly one integer point,
    its lower-left corner, and the count is that of the corners (x, y) with
    y = m*x (mod 2j+1).  A non-integral shift, m < 1 or j < 1 raises.
    """
    if region not in _REGION_NAMES:
        raise ValueError(f"region must be one of {_REGION_NAMES}: {region}")
    s, t = frac(s), frac(t)
    if s.denominator != 1 or t.denominator != 1:
        raise ValueError(
            f"shift must be integral: {format_rationals((s, t))}")
    shift_lattice(m, j)  # refuses m < 1 and j < 1
    n, s, t = 2 * j + 1, int(s), int(t)
    return sum((t + k - m * (s + i)) % n == 0
               for i, k in canonical_regions(j)[region])


def admissible_shifts(j: int) -> list[int]:
    """The m in 1..2j+1 with gcd(m, 2j+1) = gcd(m+1, 2j+1) = 1."""
    n = 2 * j + 1
    return [m for m in range(1, n + 1)
            if gcd(m, n) == 1 and gcd(m + 1, n) == 1]


def _grid_columns(j: int, q: int) -> list[tuple[int, int]]:
    """The grid points of the canonical stair on the 1/q grid, in units
    of 1/q, as columns (X, H): the points (X, Y) with 0 <= Y < H.  They are
    the lower left corners of the cells u + [0, 1/q)^2 that make up S_j."""
    return [(x, int(h * q)) for x0, x1, h in canonical_stair(j).columns()
            for x in range(int(x0 * q), int(x1 * q))]


def _cosets_hold_at_most(columns: list[tuple[int, int]], j: int,
                         key: tuple[int, int, int]) -> bool:
    """Whether no coset of the lattice ((a, b), (0, c)) in Z^2 holds more
    than j of the points in columns; key is (a, b, c) with a, c > 0.

    The point (X, Y) lies in the coset (X mod a, (Y - (X // a)*b) mod c):
    subtracting (X // a) lattice vectors (a, b) leaves the x-residue, and
    multiples of (0, c) the y-residue.  Stops at the first coset past j.
    """
    a, b, c = key
    counts = [0] * (a * c)
    for x, height in columns:
        row, shift = x % a * c, x // a * b
        for y in range(height):
            k = row + (y - shift) % c
            counts[k] += 1
            if counts[k] > j:
                return False
    return True


def verify_stair_tiling_forward(j: int) -> list[tuple[int, bool]]:
    """(m, does the canonical stair tile exactly j-fold with
    shift_lattice(m, j)) for every m in 1..2j+1, decided by coset counts
    as ``verify_stair_tiling_converse`` decides it at q = 1."""
    columns = _grid_columns(j, 1)
    return [(m, _cosets_hold_at_most(columns, j, (1, m, 2 * j + 1)))
            for m in range(1, 2 * j + 2)]


def verify_stair_tiling_converse(j: int, denominator_bound: int) -> list[Lattice]:
    """All exact j-fold tilers of the canonical stair in a bounded space.

    The space is every sublattice L of (1/q)Z^2 with q up to the bound and
    determinant exactly 2j+1: in units of 1/q, each is ((a, b), (0, c))
    with a*c = (2j+1)q^2 and 0 <= b < c.  A desk-scale stand-in for the
    unrestricted converse: the result should coincide with the admissible
    shift_lattice family.  A triple that shares a factor g with q is the
    lattice already met at q/g, so it is skipped.

    Each candidate is decided in integers on the 1/q grid.  S_j has integer
    corners, so every translate of it by a vector of L is a union of half
    open cells u + [0, 1/q)^2 with u on the grid, and the number of
    translates that hold a point is constant on each cell: at a corner u
    it is the number of points of the coset u + L in S_j, all of them cell
    corners.  So S_j tiles exactly j-fold iff every coset of L in
    (1/q)Z^2 holds exactly j of the cell corners in S_j.  There are
    j(2j+1)q^2 such corners and (2j+1)q^2 cosets, so by pigeonhole it is
    enough that no coset holds more than j (``_cosets_hold_at_most``).
    Only a tiler is built as a ``Lattice``.
    """
    if denominator_bound < 1:
        raise ValueError(f"need a positive bound: {denominator_bound}")
    found: list[Lattice] = []
    for q in range(1, denominator_bound + 1):
        columns = _grid_columns(j, q)
        index = (2 * j + 1) * q * q
        for a in range(1, index + 1):
            if index % a:
                continue
            c = index // a
            for b in range(c):
                if gcd(q, a, b, c) > 1:
                    continue
                if _cosets_hold_at_most(columns, j, (a, b, c)):
                    found.append(Lattice(Point(Fraction(a, q), Fraction(b, q)),
                                         Point(0, Fraction(c, q))))
    found.sort(key=lambda lat: lat.canonical_key())
    return found


class SelectionStair(Frozen):
    """The first-j selection stair of a lattice, with its corner data.

    corners lists the inner step corners (x_i, y_i), i = 1..r; the extreme
    corners are (0, y_0) and (x_{r+1}, 0); scale is the critical covering
    scale of the triangle for this lattice, the largest x_{i+1} + y_i.
    """

    stair: StairPolygon
    corners: tuple[Point, ...]
    extreme_corners: tuple[Point, Point]
    scale: Fraction

    to_json = fields_json


def selection_stair(lat: Lattice, j: int) -> SelectionStair:
    """The quadrant stair P(L, j) (``scales.quadrant_stair``) with its
    covering scale, the largest coordinate sum over its outer corners.

    ``scales._proven_stair`` proves the scale: P lies in scale*T, and
    2c + 1 lattice counts at its corners show that P keeps the j first
    points of each coset in the quadrant, so it tiles exactly j-fold and
    covering holds at the scale; one point inside the outer corner,
    counted in integers, proves that covering fails at
    scale - 1/(2*den), and so below the scale: covering is monotone, and
    constant between candidate scales, which lie on the 1/den grid.  Any
    failed check, these or the area j * d(lat) and at most 2j-1 steps,
    raises ``SelectionStairError``.
    """
    stair, outer = _proven_stair(lat, j, COVERING,
                                  error=SelectionStairError)
    xs, hs = stair.x_breaks, stair.heights
    return SelectionStair(
        stair, tuple(Point(x, h) for x, h in zip(xs[1:-1], hs[1:])),
        (Point(0, hs[0]), Point(xs[-1], 0)), outer.x + outer.y)
