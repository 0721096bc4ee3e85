"""Canonical stair polygons, gcd counting rules, and the selection stair.

The canonical (2j-1)-stair has unit columns of heights 2j, 2j-1, ..., 1
and area j(2j+1).  The lattice generated by (1, m) and (0, 2j+1) tiles the
plane exactly j-fold with that stair precisely when gcd(m, 2j+1) and
gcd(m+1, 2j+1) are both 1; both directions of that statement are exercised
here, the forward one over each m and the converse one over a bounded
rational search space, each lattice decided in integers from the stair's
grid columns: in each row of cosets, a column's points are a cyclic run
of residues, and the row holds j points per coset iff its heights sum to
j times the row length and its runs start where they end, as multisets
(``_rows_cover_exactly``).
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
from .lattice import Lattice, _triangular, shift_lattice
from .multiplicity import COVERING
from .scales import _proven_stair


class SelectionStairError(RuntimeError):
    """The quadrant stair failed validation: degenerate columns, an area
    other than j * d(L), a corner count that shows it is not the set of
    the j first points of each coset, more than 2j-1 steps, or a witness
    that does not refute covering below its scale."""


def canonical_stair(j: int) -> StairPolygon:
    """The canonical stair: unit columns over [i, i+1) of heights 2j - i.

    Its breaks 0, 1, ..., 2j increase and its heights 2j, ..., 1 decrease
    to 1 > 0, so it is built without ``StairPolygon.__init__`` and its
    O(j) Fraction checks; it equals, hashes, prints and serializes as the
    checked ``StairPolygon(range(2j + 1), range(2j, 0, -1))``.
    """
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    # one Fraction per value, shared by the breaks and the heights
    values = tuple(Fraction(i) for i in range(2 * j + 1))
    stair = object.__new__(StairPolygon)
    object.__setattr__(stair, "x_breaks", values)
    object.__setattr__(stair, "heights", values[:0:-1])
    return stair


# The membership rule of each canonical region, on the cells (i, k) of
# [0, 2j+1)^2: the one definition of the regions.
_REGION_RULES = {"B": lambda i, k, j: i == 0,
                 "C": lambda i, k, j: k == 0,
                 "D": lambda i, k, j: i + k == 2 * j,
                 "S": lambda i, k, j: i + k < 2 * j,
                 "S*": lambda i, k, j: i + k > 2 * j}


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
    return {name: tuple((i, k) for i, k in cells if rule(i, k, j))
            for name, rule in _REGION_RULES.items()}


_REGION_NAMES = ("B", "C", "D", "S")


def count_region(m: int, j: int, region: str, s: int, t: int) -> int:
    """Number of shift_lattice(m, j) points in the region shifted by (s, t).

    region is one of "B", "C", "D", "S" (left strip, bottom strip, diagonal,
    stair) of ``canonical_regions``.  The lattice lies in Z^2 and the shift
    is integral, so each shifted unit cell holds exactly one integer point,
    its lower-left corner, and the count is that of the corners (x, y) with
    y = m*x (mod 2j+1).  Column i of the square holds one such corner, at
    k = m*(s + i) - t (mod 2j+1), so the count tests 2j+1 cells by the
    region's rule.  A non-integral shift, m < 1 or j < 1 raises.
    """
    if region not in _REGION_NAMES:
        raise ValueError(f"region must be one of {_REGION_NAMES}: {region}")
    s, t = frac(s), frac(t)
    if s.denominator != 1 or t.denominator != 1:
        raise ValueError(
            f"shift must be integral: {format_rationals((s, t))}")
    shift_lattice(m, j)  # refuses m < 1 and j < 1
    n, s, t, rule = 2 * j + 1, int(s), int(t), _REGION_RULES[region]
    return sum(rule(i, (m * (s + i) - t) % n, j) for i in range(n))


def admissible_shifts(j: int) -> list[int]:
    """The m in 1..2j+1 with gcd(m, 2j+1) = gcd(m+1, 2j+1) = 1."""
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    n = 2 * j + 1
    return [m for m in range(1, n + 1)
            if gcd(m, n) == 1 and gcd(m + 1, n) == 1]


def _grid_columns(j: int, q: int) -> list[tuple[int, int]]:
    """The grid points of the canonical stair on the 1/q grid, in units
    of 1/q, as columns (X, H): the points (X, Y) with 0 <= Y < H.  They are
    the lower left corners of the cells u + [0, 1/q)^2 that make up S_j.
    Column X lies in the unit column X // q, of height 2j - X // q."""
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    return [(x, q * (2 * j - x // q)) for x in range(2 * j * q)]


def _rows_cover_exactly(columns: list[tuple[int, int]], j: int,
                        key: tuple[int, int, int]) -> bool:
    """Whether every coset of the lattice ((a, b), (0, c)) in Z^2 holds
    exactly j of the points in columns; key is (a, b, c) with a, c > 0.

    The point (X, Y) lies in the coset (X mod a, (Y - (X // a)*b) mod c):
    subtracting (X // a) lattice vectors (a, b) leaves the x-residue, and
    multiples of (0, c) the y-residue.  So the a*c cosets form a rows of
    c, and column X, of height H, lies in row X mod a, where its points are
    the cyclic run of H residues mod c that starts at s = -(X // a)*b
    mod c and ends before (s + H) mod c.

    Lemma.  A row holds exactly j points in each of its c cosets iff its
    heights H sum to j*c and the multiset of its run starts s equals the
    multiset of its run ends (s + H) mod c.  Each full turn H // c adds
    the same count to every residue.  The partial run, of H mod c
    residues, raises the coverage by one at its start and lowers it by
    one at its end (a run with no partial part starts where it ends), so
    the coverage is constant around the cycle iff the starts and ends
    agree as multisets.  A constant coverage with total j*c is exactly j.
    A row with no column sums to 0 and fails.  Each start or end in row r
    at residue y is kept as the one integer r*c + y.
    """
    a, b, c = key
    sums, starts, ends = [0] * a, [], []
    for x, height in columns:
        row, start = x % a, -(x // a) * b % c
        sums[row] += height
        starts.append(row * c + start)
        ends.append(row * c + (start + height) % c)
    return sums == [j * c] * a and sorted(starts) == sorted(ends)


def _shifts_tile(j: int, shifts) -> list[bool]:
    """For each m in shifts, whether the canonical stair tiles exactly
    j-fold with shift_lattice(m, j), decided by the row runs of
    ``_rows_cover_exactly`` as ``verify_stair_tiling_converse`` decides it
    at q = 1: one row, the 2j columns' runs sorted per m."""
    columns = _grid_columns(j, 1)
    return [_rows_cover_exactly(columns, j, (1, m, 2 * j + 1))
            for m in shifts]


def verify_stair_tiling_forward(j: int) -> list[tuple[int, bool]]:
    """(m, does the canonical stair tile exactly j-fold with
    shift_lattice(m, j)) for every m in 1..2j+1, by ``_shifts_tile``."""
    return list(enumerate(_shifts_tile(j, range(1, 2 * j + 2)), 1))


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
    (1/q)Z^2 holds exactly j of the cell corners in S_j, which
    ``_rows_cover_exactly`` decides from the run ends of the stair's 2jq
    grid columns in each row of cosets.  Only a tiler is built as a
    ``Lattice``.
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
                if (gcd(q, a, b, c) == 1
                        and _rows_cover_exactly(columns, j, (a, b, c))):
                    found.append(_triangular(q, a, b, c))
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
