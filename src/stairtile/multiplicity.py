"""Exact multiplicity counting for lattice translates of a region.

The central quantity is ``count_at(lat, K, u)``, the number of lattice
vectors v with u + v inside K.  Everything else is built on two facts:

* the count is periodic modulo the lattice, so global extrema are extrema
  over one fundamental domain, and every lattice has a half open rectangular
  fundamental domain read off its canonical triangular basis;
* the count is piecewise constant on the faces of the arrangement cut out by
  all translate boundaries, so sampling one exact rational point per face
  gives the true extrema with no epsilon guessing.

Every sampler draws from the half open fundamental rectangle
[0, w) x [0, h) and walks the same grid vertices there, the crossings of
its vertical and horizontal lines (``_vertices``).  A stair's grid
(``_halfopen_grid``) reads its horizontals off one translate per lattice
column, the floor and ceilings of each taken mod h, and stops once every
integer of [0, h] is a line.  Half open stairs sample those alone, the
lower left corner of each grid cell; interior or closed membership
samples the open cells of the arrangement first and then those vertices
(``_faces``), where semicontinuity and periodicity put both extrema.

Sampling and counting run on plain integers.  The lattice and the shape
are brought to one common denominator den (``_den``); a sample (x, y)
stands for the point (x/den, y/den).  Half open cell corners are taken at
den.  Closed or interior stairs and triangles are sampled by one sampler,
``_faces``, at 4*den, where the midpoints of midpoints that place the cell
samples are still integers.  Only the two witnesses of an extremum become
``Point``s again.

The count kernel ``_exact_counts`` is a line sweep.  Its translates come
from one lattice point per column too: the row box of the window's
x-range at heights [0, h) holds one point (x, r) of each column, and the
column's translates in the window are r + t*h over a range of t read off
by one floor division (``_column_translates``).  Every lattice point of
a column differs from the row point by a multiple of (0, h), so this is
the window's full listing, in the same order.  Samples are grouped
into lines along the axis with fewer distinct sample values (x and y swap
roles when that axis is y).  On one line each translate that can reach it
covers a closed interval of the line, so the line's interval starts and
ends are sorted once and every sample on it is counted by two bisections.
Half open stair grids put their many samples on a few vertical lines.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from math import lcm

from .geometry import (Box, Frozen, Point, ScaledTriangle, StairPolygon,
                       as_int, fields_json)
from .lattice import Lattice, points_in_box, scaled_points


class Mode(str, Enum):
    """Boundary convention used when testing membership in a region."""

    INTERIOR = "interior"
    CLOSED = "closed"
    HALF_OPEN = "half_open"


PACKING = "packing"
COVERING = "covering"
KIND_MODE = {PACKING: Mode.INTERIOR, COVERING: Mode.CLOSED}


class Region(Frozen):
    """A bounded region together with its membership mode.

    Half open membership only makes sense for stair polygons; triangles use
    interior membership for packing questions and closed membership for
    covering questions.
    """

    shape: StairPolygon | ScaledTriangle
    mode: Mode

    def __init__(self, shape: StairPolygon | ScaledTriangle,
                 mode: Mode) -> None:
        if mode is Mode.HALF_OPEN and not isinstance(shape, StairPolygon):
            raise ValueError("half open membership requires a stair polygon")
        super().__init__(shape, mode)

    def contains(self, p: Point) -> bool:
        if self.mode is Mode.HALF_OPEN:
            return self.shape.contains(p)
        if self.mode is Mode.CLOSED:
            return self.shape.contains_closed(p)
        return self.shape.contains_interior(p)


def stair_region(shape: StairPolygon, mode: Mode = Mode.HALF_OPEN) -> Region:
    return Region(shape, mode)


def triangle_region(side, mode: Mode = Mode.CLOSED) -> Region:
    return Region(ScaledTriangle(side), mode)


class MultiplicityReport(Frozen):
    """Exact multiplicity extrema with witness points that reproduce them."""

    min_mult: int
    max_mult: int
    min_witness: Point
    max_witness: Point

    to_json = fields_json


def count_at(lat: Lattice, region: Region, u: Point) -> int:
    """Exact card{v in lat : u + v in region}.

    Enumerates the lattice points of the bounding box of (region - u) and
    filters by exact membership; serves as the independent point oracle for
    the integer count kernel ``_exact_counts``.
    """
    bb = region.shape.bbox()
    vbox = Box(bb.x_min - u.x, bb.x_max - u.x, bb.y_min - u.y, bb.y_max - u.y)
    return sum(1 for v in points_in_box(lat, vbox) if region.contains(u + v))


# How each mode shifts the closed bounds of a stair column once everything
# is an integer, where a strict bound a < b is a <= b - 1: (first left
# wall, other left walls, right wall, floor, ceiling).  Half open columns
# are [x_i, x_{i+1}) x [0, h_i).  Closed columns own their right wall, so an
# internal break takes the taller (left) height; the first column also owns
# its left wall.  Interior columns own their left wall, so an internal break
# takes the shorter (right) height; the first column owns neither wall.
_STAIR_SHIFTS = {
    Mode.HALF_OPEN: (0, 0, -1, 0, -1),
    Mode.CLOSED: (0, 1, 0, 0, 0),
    Mode.INTERIOR: (1, 0, -1, 1, -1),
}


def _shape_values(shape: StairPolygon | ScaledTriangle) -> list[Fraction]:
    if isinstance(shape, ScaledTriangle):
        return [shape.side]
    return list(shape.x_breaks) + list(shape.heights)


def _den(lat: Lattice, *shapes: StairPolygon | ScaledTriangle) -> int:
    """The least common denominator of the lattice's canonical basis and
    the shapes: every lattice point, translate boundary and grid line is a
    multiple of 1/den."""
    return lcm(lat.den, *(v.denominator for shape in shapes
                          for v in _shape_values(shape)))


def _point(sample: tuple[int, int], den: int) -> Point:
    return Point(Fraction(sample[0], den), Fraction(sample[1], den))


def _atoms(region: Region, den: int) -> list[tuple[int, int, int, int, int]]:
    """The region scaled by den, as disjoint closed integer atoms.

    An atom (x_lo, x_hi, y_lo, y_hi, diag) is the set of integer offsets
    (dx, dy) with x_lo <= dx <= x_hi, y_lo <= dy <= y_hi and
    dx + dy <= diag; it may be empty.  A triangle is one atom; a stair is
    one atom per column, whose diagonal bound never binds.
    """
    shape = region.shape
    if isinstance(shape, ScaledTriangle):
        side = as_int(shape.side, den)
        t = 1 if region.mode is Mode.INTERIOR else 0
        return [(t, side - t, t, side - t, side - t)]
    first, left, right, floor, ceiling = _STAIR_SHIFTS[region.mode]
    xb = [as_int(v, den) for v in shape.x_breaks]
    atoms = []
    for i, h in enumerate(shape.heights):
        h = as_int(h, den)
        x_hi = xb[i + 1] + right
        atoms.append((xb[i] + (first if i == 0 else left), x_hi,
                      floor, h + ceiling, x_hi + h))
    return atoms


def _exact_counts(lat: Lattice, region: Region,
                  samples: list[tuple[int, int]], den: int) -> list[int]:
    """Multiplicity at each sample, in sample order.

    A sample (x, y) stands for the point (x/den, y/den), where den is a
    multiple of ``_den(lat, region.shape)``, so that the translates that
    can reach the samples and the shape are integers too and the region is
    the atoms of ``_atoms``.

    The translates that can reach a sample are the lattice points of the
    window [min x - x_max, max x - x_min] x [y_lo, y_hi], y_lo = min y -
    y_max and y_hi = max y - y_min, over the samples and the shape's box.
    They are listed from one point per lattice column, as the grid of
    ``_halfopen_grid`` is: the row box [window x-range] x [0, y2 - 1/den]
    holds exactly one point (x, r) of each lattice column that meets the
    window, and ``_column_translates`` lists that column's points in the
    window as r + t*h, h = y2*den, from t = ceil((y_lo - r)/h).  A lattice
    point of the window lies in the column of some row point and differs
    from it by a multiple of (0, h), a lattice vector, so it is listed;
    each listed point is such a sum, in L and in the window.  So the list
    is ``points_in_box`` of the window, in its (x, y) order, and the counts
    are those of that listing (``tests/oracles.py::translates_reference``).

    The count is a line sweep.  Samples that share an x lie on one vertical
    line, and on the line x = px each translate (x, y) in an atom's
    x-window (found by bisection) covers one closed interval of py, from
    y + y_lo to y + min(y_hi, x + diag - px), unless that is empty.  The
    line's interval starts and ends are sorted once, and the count at py is
    the number of starts <= py less the number of ends < py.  Samples are
    grouped along the axis with fewer distinct sample values; when that
    axis is y, x and y swap roles.
    """
    bb = region.shape.bbox()
    sx = [x for x, _ in samples]
    sy = [y for _, y in samples]
    _, _, y2 = lat.canonical_key()
    row = points_in_box(lat, Box(
        Fraction(min(sx), den) - bb.x_max, Fraction(max(sx), den) - bb.x_min,
        0, y2 - Fraction(1, den)))
    wx, wy = _column_translates(row, den, as_int(y2, den),
                                min(sy) - as_int(bb.y_max, den),
                                max(sy) - as_int(bb.y_min, den))
    atoms = _atoms(region, den)
    if wx and len(set(sy)) < len(set(sx)):
        # the kernel is symmetric in x and y: transpose everything
        wx, wy = map(list, zip(*sorted(zip(wy, wx))))
        sx, sy = sy, sx
        atoms = [(y_lo, y_hi, x_lo, x_hi, diag)
                 for x_lo, x_hi, y_lo, y_hi, diag in atoms]
    # an atom with y_lo > y_hi is empty, and its translates would give
    # empty intervals, which the counts below must not see
    atoms = [a for a in atoms if a[2] <= a[3]]
    # wx is sorted: the row is sorted by x, and a transpose re-sorts
    ws = [x + y for x, y in zip(wx, wy)]
    lines: dict[int, list[int]] = {}
    for i, px in enumerate(sx):
        lines.setdefault(px, []).append(i)
    counts = [0] * len(samples)
    for px, line in lines.items():
        starts: list[int] = []
        ends: list[int] = []
        for x_lo, x_hi, y_lo, y_hi, diag in atoms:
            # the translate (x, y) covers py in [y + y_lo, y + top], where
            # top = min(y_hi, x + c); sorted x splits the atom's x-window
            # into empty intervals (x + c < y_lo), a diagonal part
            # (x + c <= y_hi) and a part where the diagonal does not bind
            c = diag - px
            lo = bisect_left(wx, max(px - x_hi, y_lo - c))
            hi = bisect_right(wx, px - x_lo, lo)
            mid = bisect_right(wx, y_hi - c, lo, hi)
            starts += [y + y_lo for y in wy[lo:hi]]
            ends += [s + c for s in ws[lo:mid]]
            ends += [y + y_hi for y in wy[mid:hi]]
        starts.sort()
        ends.sort()
        for i in line:
            py = sy[i]
            counts[i] = bisect_right(starts, py) - bisect_left(ends, py)
    return counts


def _column_translates(row: list[Point], den: int, h: int, y_lo: int,
                       y_hi: int) -> tuple[list[int], list[int]]:
    """The lattice points (x, y), y_lo <= y <= y_hi, of the columns of the
    row points, scaled by den, as the lists of their x and y, sorted by
    (x, y).

    row holds one point (x, r) of each lattice column, sorted by x, and h
    is the column period y2 scaled by den: the column's points are the
    (x, r + t*h), the first in the window at t = ceil((y_lo - r)/h).  A
    window lower than h may miss a column.
    """
    wx: list[int] = []
    wy: list[int] = []
    for p in row:
        r = as_int(p.y, den)
        ys = range(r - (r - y_lo) // h * h, y_hi + 1, h)
        wx += [as_int(p.x, den)] * len(ys)
        wy += ys
    return wx, wy


def _halfopen_grid(lat: Lattice, stairs: list[StairPolygon],
                   den: int) -> tuple[list[int], list[int]]:
    """Grid lines of all translate boundaries inside the fundamental
    rectangle [0, w) x [0, h), scaled by den, a multiple of
    ``_den(lat, *stairs)``; the half open cells partition it exactly.

    Every lattice x-coordinate is a multiple of w, so the walls of the
    translates cross the rectangle at the residues of the x-breaks mod w.
    The floors and ceilings are read off one translate per lattice column:
    the translates t + S whose floor (o = 0) or ceiling (o a height) can
    cross the rectangle have t.x in [-x_max, w - x_min], and the row box
    [-x_max, w - x_min] x [0, h - 1/den] holds exactly one point (x, r) of
    each such column.  The horizontals are the (r + o) mod h, with 0 and
    h.

    These are the lines of ``tests/oracles.py::halfopen_grid_reference``,
    which lists every translate t of the box [-x_max, w - x_min] x
    [-y_max, h] and keeps each t.y + o in (0, h).  Such a t lies in the
    column of some row point (x, r) and differs from it by a multiple of
    (0, h), a lattice vector, so t.y + o = (r + o) mod h.  Conversely, for
    l = (r + o) mod h in (0, h), the point t = (x, l - o) differs from
    (x, r) by a multiple of (0, h), so it is in L, and l - o lies in
    (-o, h - o), inside [-y_max, h] as 0 <= o <= y_max: t is in the
    reference's box and gives l.  A line at 0 mod h is 0 or h, kept
    anyway.  So the sorted line lists, the samples and every witness are
    the reference's.  The lines are integers of [0, h], so once there are
    h + 1 of them no row can add one, and the walk stops: a stair of
    integer steps at den 1 fills them from its first row.
    """
    x1, _, y2 = lat.canonical_key()
    w, h = as_int(x1, den), as_int(y2, den)
    xs, ys = {0, w}, {0, h}
    top = y2 - Fraction(1, den)
    for shape in stairs:
        xs.update(as_int(v, den) % w for v in shape.x_breaks)
        # full: ys holds all h + 1 integers of [0, h]
        if len(ys) > h:
            continue
        bb = shape.bbox()
        row = points_in_box(lat, Box(-bb.x_max, x1 - bb.x_min, 0, top))
        offsets = [0] + [as_int(v, den) for v in shape.heights]
        for r in {as_int(t.y, den) for t in row}:
            ys.update([(r + o) % h for o in offsets])
            if len(ys) > h:
                break
    return sorted(xs), sorted(ys)


def _vertices(a_vals: list[int],
              b_vals: list[int]) -> list[tuple[int, int]]:
    """The grid vertices (a, b), a < w = a_vals[-1] and b < h = b_vals[-1],
    of the vertical lines x = a and the horizontal lines y = b (sorted
    integers), by x, then y: the lower left corners of the grid cells."""
    return [(a, b) for a in a_vals[:-1] for b in b_vals[:-1]]


def _faces(a_vals: list[int], b_vals: list[int],
           c_in: Sequence[int] = ()) -> list[tuple[int, int]]:
    """One sample in every cell of the arrangement of the vertical lines
    x = a, the horizontal lines y = b and the diagonals x + y = c over
    [0, w] x [0, h], where w = a_vals[-1] and h = b_vals[-1], then the
    grid ``_vertices``: enough for the extrema of a closed or open count
    that is periodic modulo a lattice with fundamental rectangle
    [0, w) x [0, h), when the diagonals, if any, are those of a triangle
    arrangement (``_triangle_faces``).

    The lines are sorted integers that include the rectangle's sides, c_in
    those diagonals that meet it (none by default), and all are multiples
    of 4, so that the midpoints of midpoints that place the cell samples
    are still integers.  Cells are enumerated as slab/band intersections:
    within each grid square cut by the vertical and horizontal lines, the
    diagonals that cross it (found by bisection) slice it into bands, and
    each band piece contains the sample constructed here.  A cell sample
    lies on no line, so no sample repeats.

    ``tests/oracles.py::faces_reference`` samples every cell, then every
    vertex and edge fragment of each vertical, horizontal and diagonal in
    turn.  These samples are a subsequence of its, in its order, so each
    witness, the first sample to reach an extremum, is the reference's
    unless that is a sample dropped here, and each dropped sample has an
    earlier one that does at least as well (and if that one is dropped
    too, so has it).  A closed count is upper and an open one lower
    semicontinuous: on an open edge fragment a closed count is at least
    that on a cell the edge bounds and at most that at either end vertex,
    an open count the reverse.  So cells, which come first, reach the
    closed minimum and the open maximum.  For the closed maximum and the
    open minimum, with (w, y1), (0, h) the canonical basis:

    * a vertex (a, h) has its twin (a, 0), earlier on the same vertical;
    * a vertex (w, t) has a twin on x = 0, always a line: a vertex, or on
      an open edge fragment whose end vertex does at least as well, and
      x = 0 comes first;
    * a triangle arrangement has no vertical inside the rectangle, as
      every lattice x-coordinate is a multiple of w.  So a closed
      translate that holds (x, y), 0 < x < w, holds (0, y), and an open
      one that holds (w, y) holds (x, y): a crossing of a diagonal and a
      horizontal does no better than a point of x = 0 or x = w, which the
      cases above cover;
    * on x = 0 the vertices kept are the (0, b), b < h a horizontal, in
      order of y; dropped are the (0, c) with c < h a diagonal value and
      no horizontal, so c > 0.  The translates are v + T, v a lattice
      point and T the closed or open triangle with legs s on the axes;
      those that can hold a point of x = 0 below y = h have v_x > -s (or
      v_x >= -s, closed) and v_y > -s, so they lie in the window of
      ``_triangle_faces``, and their heights in [0, h] are horizontals.

      Closed maximum at (0, c): the closed translates that hold it are
      the v with v_x <= 0 and v_y <= c <= v_x + v_y + s.  Let b' be 0 or
      the largest of their v_y, whichever is larger.  Each of them holds
      (0, b') too; b' <= c is a horizontal, so b' < c, and (0, b') is an
      earlier vertex whose count is at least as large.

      Open minimum at (0, c): on x = 0 the open count at y is the number
      of open intervals (v_y, v_x + v_y + s), v_x < 0, that hold y, and
      an interval that is not empty has v_x > -s.  Let e be the next
      crossing of a horizontal or diagonal with x = 0 above c (e <= h).
      No such interval starts at c, which is no horizontal, and none ends
      in (c, e), so the count is M = count(0, c) on all of [c, e), and
      every y in (c, e) lies in the same intervals.  Take 0 < d <
      w - (s mod w), so that no lattice x-coordinate, a multiple of w,
      lies in [-d, 0) or in (-s - d, -s).  An open translate v + T holds
      (-d, y), c + d < y < e, iff v_x < -d, v_y < y and
      y - d < v_x + v_y + s: for v_x > -s that is v_x < 0 and y - d, like
      y, in its interval; for v_x <= -s - d it fails; and for v_x = -s it
      would put v_y, a horizontal, in (y - d, y), inside (c, e).  So
      (-d, y) lies in exactly the translates that hold (0, y), and the
      count is M on an open set just left of x = 0.  Moved by the lattice
      vector (w, y1) and by a multiple of (0, h), part of that set lies
      inside the rectangle, where it meets a cell, whose sample has count
      M and comes before every vertex.
    """
    samples: list[tuple[int, int]] = []
    for a0, a1 in zip(a_vals, a_vals[1:]):
        for b0, b1 in zip(b_vals, b_vals[1:]):
            sq_lo, sq_hi = a0 + b0, a1 + b1
            cuts = [sq_lo, *c_in[bisect_right(c_in, sq_lo):
                                 bisect_left(c_in, sq_hi)], sq_hi]
            for lo, hi in zip(cuts, cuts[1:]):
                s = (lo + hi) // 2
                x = (max(a0, s - b1) + min(a1, s - b0)) // 2
                samples.append((x, s - x))
    return samples + _vertices(a_vals, b_vals)


def _triangle_faces(lat: Lattice, tri: ScaledTriangle,
                    den: int) -> list[tuple[int, int]]:
    """``_faces`` of the three-family line arrangement (verticals,
    horizontals, hypotenuse diagonals) of the translate boundaries over
    the fundamental rectangle: its cells, and the points (0, b) of x = 0
    on a horizontal below y = h.

    Everything is scaled by den, which must be a multiple of 4 times
    ``_den(lat, tri)``.  Every lattice x-coordinate is a multiple of w, so
    the only verticals in the rectangle are its own sides.
    """
    x1, _, y2 = lat.canonical_key()
    w, h = as_int(x1, den), as_int(y2, den)
    side = as_int(tri.side, den)
    translates = scaled_points(lat, den, -side, w, -side, h)
    b_vals = sorted({y for _, y in translates if 0 <= y <= h} | {0, h})
    c_in = sorted({c for c in (side + x + y for x, y in translates)
                   if 0 <= c <= w + h})
    return _faces([0, w], b_vals, c_in)


def _extrema(counts: list[int], samples: list[tuple[int, int]],
             den: int) -> MultiplicityReport:
    i_min = min(range(len(counts)), key=counts.__getitem__)
    i_max = max(range(len(counts)), key=counts.__getitem__)
    return MultiplicityReport(counts[i_min], counts[i_max],
                              _point(samples[i_min], den),
                              _point(samples[i_max], den))


def multiplicity_extrema(lat: Lattice, region: Region) -> MultiplicityReport:
    """Exact global min and max of u -> count_at(lat, region, u).

    The count is periodic modulo the lattice, so the extrema over the plane
    are computed over one half open fundamental rectangle, at the lower
    left corner of each half open cell (``_vertices``) or at the cells and
    vertices (``_faces``) there.
    """
    shape = region.shape
    den = _den(lat, shape)
    if region.mode is Mode.HALF_OPEN:
        samples = _vertices(*_halfopen_grid(lat, [shape], den))
    else:
        den *= 4
        samples = (_triangle_faces(lat, shape, den)
                   if isinstance(shape, ScaledTriangle)
                   else _faces(*_halfopen_grid(lat, [shape], den)))
    return _extrema(_exact_counts(lat, region, samples, den), samples, den)


def _decided_extrema(region: Region, lat: Lattice,
                     kind: str) -> MultiplicityReport:
    """``multiplicity_extrema`` in the mode that decides the kind: a
    packing is decided on interiors, a covering on closed sets."""
    if region.mode is not KIND_MODE[kind]:
        sets = "interiors" if kind == PACKING else "closed sets"
        raise ValueError(f"{kind} is decided on {sets}; "
                         f"got mode {region.mode.value}")
    return multiplicity_extrema(lat, region)


def is_jfold_packing(region: Region, lat: Lattice, j: int) -> bool:
    """True iff no point lies in more than j translate interiors."""
    return _decided_extrema(region, lat, PACKING).max_mult <= j


def is_jfold_covering(region: Region, lat: Lattice, j: int) -> bool:
    """True iff every point lies in at least j closed translates."""
    return _decided_extrema(region, lat, COVERING).min_mult >= j


def is_exact_jfold_tiling(stair: StairPolygon, lat: Lattice, j: int) -> bool:
    """True iff every point lies in exactly j translates of the half open
    stair, the convention under which exactness is a pointwise statement.
    """
    report = multiplicity_extrema(lat, Region(stair, Mode.HALF_OPEN))
    return report.min_mult == j and report.max_mult == j


def layer_extrema(lat: Lattice, outer: StairPolygon,
                  inner: StairPolygon) -> MultiplicityReport:
    """Multiplicity extrema of the set difference outer minus inner.

    Inner must lie inside outer, so that the difference indicator is the
    difference of the two half open indicators; counted cellwise on the
    common translate grid.  A ValueError names the first inner column that
    sticks out.
    """
    xb, hs = outer.x_breaks, outer.heights
    for i, (x0, x1, h) in enumerate(inner.columns()):
        # outer heights decrease, so the outer column just left of x1 is
        # the lowest over [x0, x1)
        if x0 < xb[0] or x1 > xb[-1] or h > hs[bisect_left(xb, x1) - 1]:
            raise ValueError(f"inner column {i}, [{x0}, {x1}) x [0, {h}), "
                             "is not inside the outer stair")
    den = _den(lat, outer, inner)
    samples = _vertices(*_halfopen_grid(lat, [outer, inner], den))
    c_out = _exact_counts(lat, Region(outer, Mode.HALF_OPEN), samples, den)
    c_in = _exact_counts(lat, Region(inner, Mode.HALF_OPEN), samples, den)
    return _extrema([a - b for a, b in zip(c_out, c_in)], samples, den)


def random_sampling_oracle(lat: Lattice, region: Region, n: int,
                           seed: int) -> MultiplicityReport:
    """Sampled multiplicity range over n points u1*a + u2*b of the
    fundamental parallelogram; a lower bound on the true max and an upper
    bound on the true min.

    a and b are the exact rationals of two successive draws of
    ``random.Random(seed).random()``, a first, so a seed gives the same
    samples on every Python version.  The witnesses are the first samples
    that reach the min and the max.
    """
    # imported here, not at the top: only this oracle draws, and no CLI
    # subcommand calls it
    from random import Random

    if n < 1:
        raise ValueError(f"need at least one sample: {n}")
    rng = Random(seed)
    points = [lat.u1.scaled(Fraction(rng.random()))
              + lat.u2.scaled(Fraction(rng.random())) for _ in range(n)]
    counts = [count_at(lat, region, u) for u in points]
    lo, hi = min(counts), max(counts)
    return MultiplicityReport(lo, hi, points[counts.index(lo)],
                              points[counts.index(hi)])
