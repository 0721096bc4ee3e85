"""Canonical stair polygons, gcd counting rules, and the selection stair.

The canonical (2j-1)-stair has unit columns of heights 2j, 2j-1, ..., 1
and area j(2j+1).  The lattice generated by (1, m) and (0, 2j+1) tiles the
plane exactly j-fold with that stair precisely when gcd(m, 2j+1) and
gcd(m+1, 2j+1) are both 1; both directions of that statement are exercised
here, the forward one by direct multiplicity checks and the converse one by
exhausting a bounded rational search space.  The gcd rules count
shift_lattice(m, j) points in regions made of integer unit cells of the
square [0, 2j+1)^2 (``canonical_regions``, ``count_region``).

``selection_stair`` returns, for any lattice L, the half open stair that
keeps the j first points (in the coordinate-sum order) of every residue
class in the closed quadrant, ``scales.quadrant_stair``, proven at its
covering scale by its exact tiling and one witness point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .geometry import (Frozen, Point, StairPolygon, fields_json,
                       format_rationals, frac)
from .lattice import Lattice, enumerate_integer_sublattices, shift_lattice
from .multiplicity import COVERING, is_exact_jfold_tiling
from .scales import _proven_stair


class SelectionStairError(RuntimeError):
    """The quadrant stair failed validation: degenerate columns, an area
    other than j * d(L), no exact j-fold tiling, more than 2j-1 steps, or a
    witness that does not refute covering below its scale."""


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
    its lower-left corner, and the count is that of the corners in the
    lattice.  A non-integral shift raises ValueError.
    """
    if region not in _REGION_NAMES:
        raise ValueError(f"region must be one of {_REGION_NAMES}: {region}")
    s, t = frac(s), frac(t)
    if s.denominator != 1 or t.denominator != 1:
        raise ValueError(
            f"shift must be integral: {format_rationals((s, t))}")
    lat = shift_lattice(m, j)
    return sum(lat.contains(Point(s + i, t + k))
               for i, k in canonical_regions(j)[region])


def admissible_shifts(j: int) -> list[int]:
    """The m in 1..2j+1 with gcd(m, 2j+1) = gcd(m+1, 2j+1) = 1."""
    n = 2 * j + 1
    return [m for m in range(1, n + 1)
            if gcd(m, n) == 1 and gcd(m + 1, n) == 1]


def verify_stair_tiling_forward(j: int) -> list[tuple[int, bool]]:
    """(m, does the canonical stair tile exactly j-fold with
    shift_lattice(m, j)) for every m in 1..2j+1."""
    s = canonical_stair(j)
    return [(m, is_exact_jfold_tiling(s, shift_lattice(m, j), j))
            for m in range(1, 2 * j + 2)]


def verify_stair_tiling_converse(j: int, denominator_bound: int) -> list[Lattice]:
    """All exact j-fold tilers of the canonical stair in a bounded space.

    The space is every integer sublattice of (1/q)Z^2 with q up to the bound
    and determinant exactly 2j+1.  A desk-scale stand-in for the
    unrestricted converse: the result should coincide with the admissible
    shift_lattice family.  A sublattice ((a, b), (0, c)) of index
    (2j+1)q^2 whose entries share a factor g with q is the scaled sublattice
    already met at q/g, so it is skipped.
    """
    if denominator_bound < 1:
        raise ValueError(f"need a positive bound: {denominator_bound}")
    s = canonical_stair(j)
    found: list[Lattice] = []
    for q in range(1, denominator_bound + 1):
        index = (2 * j + 1) * q * q
        for integral in enumerate_integer_sublattices(index):
            u1, u2 = integral.u1, integral.u2
            if gcd(q, u1.x.numerator, u1.y.numerator, u2.y.numerator) > 1:
                continue
            lat = integral.scaled(Fraction(1, q))
            if is_exact_jfold_tiling(s, lat, j):
                found.append(lat)
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

    ``scales._proven_stair`` proves the scale: P lies in scale*T, so its
    exact j-fold tiling proves covering there, and one point inside the
    outer corner, counted in integers, proves that covering fails at
    scale - 1/(2*den), and so below the scale: covering is monotone, and
    constant between candidate scales, which lie on the 1/den grid.  Any
    failed check, these or the area j * d(lat) and at most 2j-1 steps,
    raises ``SelectionStairError``.
    """
    stair, outer = _proven_stair(lat, j, COVERING, SelectionStairError)
    xs, hs = stair.x_breaks, stair.heights
    return SelectionStair(
        stair, tuple(Point(x, h) for x, h in zip(xs[1:-1], hs[1:])),
        (Point(0, hs[0]), Point(xs[-1], 0)), outer.x + outer.y)
