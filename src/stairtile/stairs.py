"""Canonical stair polygons, gcd counting rules, and the selection stair.

The canonical (2j-1)-stair has unit columns of heights 2j, 2j-1, ..., 1
and area j(2j+1).  The lattice generated by (1, m) and (0, 2j+1) tiles the
plane exactly j-fold with that stair precisely when gcd(m, 2j+1) and
gcd(m+1, 2j+1) are both 1; both directions of that statement are exercised
here, the forward one by direct multiplicity checks and the converse one by
exhausting a bounded rational search space.  The gcd rules count
shift_lattice(m, j) points in regions made of integer unit cells of the
square [0, 2j+1)^2 (``canonical_regions``, ``count_region``).

``selection_stair`` builds, for any lattice L, the half open stair formed by
keeping the j first points (in the coordinate-sum order) of every residue
class inside the critical covering triangle lam*T.  A competitor, a lattice
vector v preceding the origin, has v.x + v.y <= 0, so it moves a point of
lam*T out of the triangle only across an axis, never across the
hypotenuse: each competitor blocks the quadrant above the corner
(max(0, -v.x), max(0, -v.y)), a point is kept while fewer than j blocked
quadrants hold it, and one sweep over the corners sorted by x yields the
column heights.  The construction then validates shape, exact j-fold
tiling, and the area identity area = j * d(L), and aborts loudly if any of
those fail.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd

from .geometry import (Box, Frozen, Point, ScaledTriangle, StairPolygon,
                       fields_json, format_rationals, frac, prec_negative)
from .lattice import (Lattice, enumerate_integer_sublattices, shift_lattice,
                      points_in_box)
from .multiplicity import is_exact_jfold_tiling
from .scales import lambda_lower

_F0 = Fraction(0)


class SelectionStairError(RuntimeError):
    """The swept stair failed validation: degenerate columns, an area other
    than j * d(L), no exact j-fold tiling, or more than 2j-1 steps."""


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


def selection_member(lat: Lattice, j: int, p: Point, scale) -> bool:
    """Is p kept when each residue class retains its j first points (in the
    coordinate-sum order) inside the closed triangle scale*T?

    True iff p lies in the closed triangle and fewer than j lattice
    translates of p both precede it and stay inside the triangle.  Preceding
    is a property of the lattice vector alone, since the order is
    translation invariant.  A scale <= 0 raises ValueError, as
    ``ScaledTriangle`` does.
    """
    tri = ScaledTriangle(scale)
    if not tri.contains_closed(p):
        return False
    vbox = Box(-p.x, tri.side - p.x, -p.y, tri.side - p.y)
    return sum(1 for v in points_in_box(lat, vbox)
               if prec_negative(v) and tri.contains_closed(p + v)) < j


class SelectionStair(Frozen):
    """The first-j selection stair of a lattice, with its corner data.

    corners lists the inner step corners (x_i, y_i), i = 1..r; the extreme
    corners are (0, y_0) and (x_{r+1}, 0); scale is the critical covering
    scale of the triangle for this lattice.
    """

    stair: StairPolygon
    corners: tuple[Point, ...]
    extreme_corners: tuple[Point, Point]
    scale: Fraction

    to_json = fields_json


def selection_stair(lat: Lattice, j: int) -> SelectionStair:
    """Build the exact first-j selection stair of the lattice.

    A competitor v precedes the origin, so v.x + v.y <= 0, and for p in
    the critical triangle lam*T the translate p + v stays in it exactly
    when p.x >= -v.x and p.y >= -v.y: the competitor's hypotenuse never
    binds.  Each competitor thus blocks the quadrant above its corner
    (max(0, -v.x), max(0, -v.y)), and the column at x ends at the j-th
    lowest corner among those at or left of x, or at the hypotenuse.  One
    sweep over the corners sorted by x keeps the j lowest corner heights
    and opens a column wherever the height drops; the heights never rise,
    and at x = lam the hypotenuse closes the stair.  The result is
    validated as a strict stair that tiles exactly j-fold with area
    j * d(lat), any failure aborting with diagnostics.
    """
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    lam = lambda_lower(lat, j).value
    window = points_in_box(lat, Box(-lam, lam, -lam, lam))
    blocks = sorted((max(_F0, -v.x), max(_F0, -v.y))
                    for v in window if prec_negative(v))
    xs = sorted({_F0, lam} | {x for x, _ in blocks if x < lam})
    lowest: list[Fraction] = []  # the j lowest corner heights so far
    breaks: list[Fraction] = []
    col_heights: list[Fraction] = []
    k = 0
    for x in xs:
        while k < len(blocks) and blocks[k][0] <= x:
            insort(lowest, blocks[k][1])
            del lowest[j:]
            k += 1
        # the hypotenuse, or the j-th lowest corner once there are j
        h = min([lam - x] + lowest[j - 1:])
        if not col_heights or h < col_heights[-1]:
            breaks.append(x)
            col_heights.append(h)
    col_heights.pop()  # the height 0 at x = lam
    if not col_heights or any(h <= 0 for h in col_heights):
        raise SelectionStairError(
            f"degenerate column heights {format_rationals(col_heights)} "
            f"for lattice {lat.to_json()}")
    stair = StairPolygon(tuple(breaks), tuple(col_heights))

    if stair.area() != j * lat.d:
        raise SelectionStairError(
            f"area {stair.area()} != j*d = {j * lat.d}; area identity fails")
    if not is_exact_jfold_tiling(stair, lat, j):
        raise SelectionStairError(
            f"swept stair is not an exact {j}-fold tile for lattice "
            f"{lat.to_json()}")
    if stair.r > 2 * j - 1:
        raise SelectionStairError(
            f"stair has {stair.r} steps, exceeding the 2j-1 bound")

    corners = tuple(Point(breaks[i], col_heights[i])
                    for i in range(1, len(col_heights)))
    extremes = (Point(_F0, col_heights[0]), Point(breaks[-1], _F0))
    return SelectionStair(stair, corners, extremes, lam)
