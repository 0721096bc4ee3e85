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
[0, w) x [0, h): for half open stairs the lower left corner of each grid
cell (``_vertices``), for interior or closed membership the open cells and
the vertices on the rectangle's verticals (``_faces``), where
semicontinuity and periodicity put both extrema.

Sampling and counting run on plain integers.  The lattice and the shape
are brought to one common denominator den (``_den``); a sample (x, y)
stands for the point (x/den, y/den).  Half open cell corners are taken at
den.  Closed or interior stairs and triangles are sampled by one sampler,
``_faces``, at 4*den, where the midpoints of midpoints that place the cell
samples are still integers.  Only the two witnesses of an extremum become
``Point``s again.

The count kernel ``_exact_counts`` is a line sweep.  Samples are grouped
into lines along the axis with fewer distinct sample values (x and y swap
roles when that axis is y).  On one line each translate that can reach it
covers a closed interval of the line, so the line's interval starts and
ends are sorted once and every sample on it is counted by two bisections.
Half open stair grids put their many samples on a few vertical lines.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
    translates = points_in_box(lat, Box(
        Fraction(min(sx), den) - bb.x_max, Fraction(max(sx), den) - bb.x_min,
        Fraction(min(sy), den) - bb.y_max, Fraction(max(sy), den) - bb.y_min))
    wx = [as_int(w.x, den) for w in translates]
    wy = [as_int(w.y, den) for w in translates]
    atoms = _atoms(region, den)
    if translates and len(set(sy)) < len(set(sx)):
        # the kernel is symmetric in x and y: transpose everything
        wx, wy = map(list, zip(*sorted(zip(wy, wx))))
        sx, sy = sy, sx
        atoms = [(y_lo, y_hi, x_lo, x_hi, diag)
                 for x_lo, x_hi, y_lo, y_hi, diag in atoms]
    # an atom with y_lo > y_hi is empty, and its translates would give
    # empty intervals, which the counts below must not see
    atoms = [a for a in atoms if a[2] <= a[3]]
    # wx is sorted: points_in_box sorts by x, and a transpose re-sorts
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


def _halfopen_grid(lat: Lattice, stairs: list[StairPolygon],
                   den: int) -> tuple[list[int], list[int]]:
    """Grid lines of all translate boundaries inside the fundamental
    rectangle [0, w) x [0, h), scaled by den, a multiple of
    ``_den(lat, *stairs)``; the half open cells partition it exactly.

    Every lattice x-coordinate is a multiple of w, so the walls of the
    translates cross the rectangle at the residues of the x-breaks mod w;
    the floors and ceilings come from the translates that reach it.
    """
    x1, _, y2 = lat.canonical_key()
    w, h = as_int(x1, den), as_int(y2, den)
    xs, ys = {0, w}, {0, h}
    for shape in stairs:
        xs.update(as_int(v, den) % w for v in shape.x_breaks)
        bb = shape.bbox()
        box = Box(-bb.x_max, x1 - bb.x_min, -bb.y_max, y2 - bb.y_min)
        offsets = [0] + [as_int(v, den) for v in shape.heights]
        for ty in {as_int(t.y, den) for t in points_in_box(lat, box)}:
            ys.update(y for y in (ty + o for o in offsets) if 0 < y < h)
    return sorted(xs), sorted(ys)


def _vertices(a_vals: list[int], b_vals: list[int],
              c_in: list[int]) -> list[tuple[int, int]]:
    """The vertices (a, t), a < w = a_vals[-1] and t < h = b_vals[-1], on
    each vertical x = a of the arrangement of the lines x = a, y = b and
    x + y = c (sorted integers), by x, then y; with no diagonals, the
    lower left corners of the half open grid cells."""
    h = b_vals[-1]
    samples: list[tuple[int, int]] = []
    for a in a_vals[:-1]:
        ts = set(b_vals[:-1]).union(
            c - a for c in c_in[bisect_left(c_in, a):bisect_left(c_in, a + h)])
        samples += [(a, t) for t in sorted(ts)]
    return samples


def _faces(a_vals: list[int], b_vals: list[int],
           c_in: list[int]) -> list[tuple[int, int]]:
    """One sample in every cell of the arrangement of the vertical lines
    x = a, the horizontal lines y = b and the diagonals x + y = c over
    [0, w] x [0, h], where w = a_vals[-1] and h = b_vals[-1], then its
    ``_vertices``: enough for the extrema of a closed or open count that
    is periodic modulo a lattice with fundamental rectangle [0, w) x [0, h).

    The lines are sorted integers that include the rectangle's sides, c_in
    those diagonals that meet it, and all are multiples of 4, so that the
    midpoints of midpoints that place the cell samples are still integers.
    Cells are enumerated as slab/band intersections: within each grid
    square cut by the vertical and horizontal lines, the diagonals that
    cross it (found by bisection) slice it into bands, and each band piece
    contains the sample constructed here.  A cell sample lies on no line,
    so no sample repeats.

    ``tests/oracles.py::faces_reference`` samples every cell, then every
    vertex and edge fragment of each vertical, horizontal and diagonal in
    turn.  These samples are a subsequence of its, in its order, so each
    witness, the first sample to reach an extremum, is the reference's
    unless that is a sample dropped here, and each dropped sample has an
    earlier one that does at least as well.  A closed count is upper and
    an open one lower semicontinuous: on an open edge fragment a closed
    count is at least that on a cell the edge bounds and at most that at
    either end vertex, an open count the reverse.  So cells, which come
    first, reach the closed minimum and the open maximum.  For the closed
    maximum and the open minimum, with (w, y1), (0, h) the canonical basis:

    * a vertex (a, h) has its twin (a, 0), earlier on the same vertical;
    * a vertex (w, t) has a twin on x = 0, always a line: a vertex, or on
      an open edge fragment whose end vertex does at least as well, and
      x = 0 comes first;
    * a triangle arrangement has no vertical inside the rectangle, as
      every lattice x-coordinate is a multiple of w.  So a closed
      translate that holds (x, y), 0 < x < w, holds (0, y), and an open
      one that holds (w, y) holds (x, y): a crossing of a diagonal and a
      horizontal does no better than a point of x = 0 or x = w, which the
      cases above cover.
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
    return samples + _vertices(a_vals, b_vals, c_in)


def _triangle_faces(lat: Lattice, tri: ScaledTriangle,
                    den: int) -> list[tuple[int, int]]:
    """``_faces`` of the three-family line arrangement (verticals,
    horizontals, hypotenuse diagonals) of the translate boundaries over
    the fundamental rectangle: its cells, and its vertices on x = 0 below
    y = h.

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
        samples = _vertices(*_halfopen_grid(lat, [shape], den), [])
    else:
        den *= 4
        samples = (_triangle_faces(lat, shape, den)
                   if isinstance(shape, ScaledTriangle)
                   else _faces(*_halfopen_grid(lat, [shape], den), []))
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
    samples = _vertices(*_halfopen_grid(lat, [outer, inner], den), [])
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
