"""Exact multiplicity counting for lattice translates of a region.

The central quantity is ``count_at(lat, K, u)``, the number of lattice
vectors v with u + v inside K.  Everything else is built on two facts:

* the count is periodic modulo the lattice, so global extrema are extrema
  over one fundamental domain, and every lattice has a half open rectangular
  fundamental domain read off its canonical triangular basis;
* the count is piecewise constant on the faces of the arrangement cut out by
  all translate boundaries, so sampling one exact rational point per face
  gives the true extrema with no epsilon guessing.

For half open stair regions the faces are the half open cells of an
axis-aligned grid and one corner per cell decides everything.  For interior
or closed membership the open cells, open edge fragments, and vertices are
sampled separately, which makes both the minimum and the maximum exact in
every mode.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .geometry import Box, Point, ScaledTriangle, StairPolygon, frac
from .lattice import Lattice, fundamental_rect, points_in_box

_F0 = Fraction(0)


class Mode(str, Enum):
    """Boundary convention used when testing membership in a region."""

    INTERIOR = "interior"
    CLOSED = "closed"
    HALF_OPEN = "half_open"


PACKING = "packing"
COVERING = "covering"
KIND_MODE = {PACKING: Mode.INTERIOR, COVERING: Mode.CLOSED}


@dataclass(frozen=True)
class Region:
    """A bounded region together with its membership mode.

    Half open membership only makes sense for stair polygons; triangles use
    interior membership for packing questions and closed membership for
    covering questions.
    """

    shape: StairPolygon | ScaledTriangle
    mode: Mode

    def __post_init__(self) -> None:
        if self.mode is Mode.HALF_OPEN and not isinstance(self.shape,
                                                          StairPolygon):
            raise ValueError("half open membership requires a stair polygon")

    def contains(self, p: Point) -> bool:
        if isinstance(self.shape, StairPolygon):
            if self.mode is Mode.HALF_OPEN:
                return self.shape.contains(p)
            if self.mode is Mode.CLOSED:
                return self.shape.contains_closed(p)
            return self.shape.contains_interior(p)
        if self.mode is Mode.CLOSED:
            return self.shape.contains_closed(p)
        return self.shape.contains_interior(p)

    def bbox(self) -> Box:
        return self.shape.bbox()

    def area(self) -> Fraction:
        return self.shape.area()


def stair_region(shape: StairPolygon, mode: Mode = Mode.HALF_OPEN) -> Region:
    return Region(shape, mode)


def triangle_region(side, mode: Mode = Mode.CLOSED) -> Region:
    return Region(ScaledTriangle(frac(side)), mode)


@dataclass(frozen=True)
class MultiplicityReport:
    """Exact multiplicity extrema with witness points that reproduce them."""

    min_mult: int
    max_mult: int
    min_witness: Point
    max_witness: Point

    def to_json(self) -> dict:
        return {
            "min_mult": self.min_mult,
            "max_mult": self.max_mult,
            "min_witness": self.min_witness.to_json(),
            "max_witness": self.max_witness.to_json(),
        }


def count_at(lat: Lattice, region: Region, u: Point) -> int:
    """Exact card{v in lat : u + v in region}.

    Enumerates the lattice points of the bounding box of (region - u) and
    filters by exact membership; serves as the independent point oracle for
    the integer count kernel ``_exact_counts``.
    """
    bb = region.bbox()
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


def _scaled(v: Fraction, den: int) -> int:
    """The integer v * den, for a den that v's denominator divides."""
    return v.numerator * (den // v.denominator)


def _atoms(region: Region, den: int) -> list[tuple[int, int, int, int, int]]:
    """The region scaled by den, as disjoint closed integer atoms.

    An atom (x_lo, x_hi, y_lo, y_hi, diag) is the set of integer offsets
    (dx, dy) with x_lo <= dx <= x_hi, y_lo <= dy <= y_hi and
    dx + dy <= diag; it may be empty.  A triangle is one atom; a stair is
    one atom per column, whose diagonal bound never binds.
    """
    shape = region.shape
    if isinstance(shape, ScaledTriangle):
        side = _scaled(shape.side, den)
        t = 1 if region.mode is Mode.INTERIOR else 0
        return [(t, side - t, t, side - t, side - t)]
    first, left, right, floor, ceiling = _STAIR_SHIFTS[region.mode]
    xb = [_scaled(v, den) for v in shape.x_breaks]
    atoms = []
    for i, h in enumerate(shape.heights):
        h = _scaled(h, den)
        x_hi = xb[i + 1] + right
        atoms.append((xb[i] + (first if i == 0 else left), x_hi,
                      floor, h + ceiling, x_hi + h))
    return atoms


def _exact_counts(lat: Lattice, region: Region,
                  samples: list[Point]) -> list[int]:
    """Multiplicity at each sample point, in sample order.

    The samples, the translates that can reach them and the shape are
    brought to one common denominator, so that everything is an integer and
    the region is the atoms of ``_atoms``.  For each sample and atom,
    bisection finds the translates in the atom's x-window, and only those
    are tested against its y and diagonal bounds.
    """
    shape = region.shape
    bb = shape.bbox()
    translates = points_in_box(lat, Box(
        min(p.x for p in samples) - bb.x_max,
        max(p.x for p in samples) - bb.x_min,
        min(p.y for p in samples) - bb.y_max,
        max(p.y for p in samples) - bb.y_min))
    shape_vals = ([shape.side] if isinstance(shape, ScaledTriangle)
                  else list(shape.x_breaks) + list(shape.heights))
    den = lcm(*{v.denominator for p in samples + translates
                for v in (p.x, p.y)},
              *(v.denominator for v in shape_vals))
    # sorted, because points_in_box sorts by x
    wx = [_scaled(w.x, den) for w in translates]
    wy = [_scaled(w.y, den) for w in translates]
    ws = [x + y for x, y in zip(wx, wy)]
    atoms = _atoms(region, den)
    counts = []
    for p in samples:
        px, py = _scaled(p.x, den), _scaled(p.y, den)
        n = 0
        for x_lo, x_hi, y_lo, y_hi, diag in atoms:
            # x_lo <= px - wx <= x_hi, y_lo <= py - wy <= y_hi and
            # (px - wx) + (py - wy) <= diag
            lo = bisect_left(wx, px - x_hi)
            hi = bisect_right(wx, px - x_lo, lo)
            y_min, y_max, s_min = py - y_hi, py - y_lo, px + py - diag
            n += len([1 for y, s in zip(wy[lo:hi], ws[lo:hi])
                      if y_min <= y <= y_max and s >= s_min])
        counts.append(n)
    return counts


def _halfopen_grid(lat: Lattice,
                   stairs: list[StairPolygon]) -> tuple[list[Fraction],
                                                        list[Fraction]]:
    """Grid lines of all translate boundaries inside the fundamental
    rectangle [0, w) x [0, h); the half open cells partition it exactly."""
    w, h = fundamental_rect(lat)
    xs = {_F0, w}
    ys = {_F0, h}
    for shape in stairs:
        bb = shape.bbox()
        box = Box(_F0 - bb.x_max, w - bb.x_min, _F0 - bb.y_max, h - bb.y_min)
        for t in points_in_box(lat, box):
            for xv in shape.x_breaks:
                v = xv + t.x
                if _F0 < v < w:
                    xs.add(v)
            yv = t.y
            if _F0 < yv < h:
                ys.add(yv)
            for hv in shape.heights:
                v = hv + t.y
                if _F0 < v < h:
                    ys.add(v)
    return sorted(xs), sorted(ys)


def _halfopen_samples(lat: Lattice, shape: StairPolygon) -> list[Point]:
    xs, ys = _halfopen_grid(lat, [shape])
    return [Point(x, y) for x in xs[:-1] for y in ys[:-1]]


def _axis_faces(lat: Lattice, shape: StairPolygon) -> list[Point]:
    """Cell, edge, and vertex samples of the axis-parallel arrangement of
    translate boundaries over the closed fundamental rectangle."""
    xs, ys = _halfopen_grid(lat, [shape])
    xmids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    ymids = [(a + b) / 2 for a, b in zip(ys, ys[1:])]
    samples = [Point(x, y) for x in xs for y in ys]
    samples += [Point(x, y) for x in xs for y in ymids]
    samples += [Point(x, y) for x in xmids for y in ys]
    samples += [Point(x, y) for x in xmids for y in ymids]
    return samples


def _triangle_faces(lat: Lattice, tri: ScaledTriangle) -> list[Point]:
    """Samples of every cell, edge fragment, and vertex of the three-family
    line arrangement (verticals, horizontals, hypotenuse diagonals) of the
    translate boundaries, clipped to the closed fundamental rectangle.

    Cells are enumerated as slab/band intersections: within each grid square
    cut by the vertical and horizontal families, the diagonal family slices
    it into bands, and each nonempty band piece contains the exact rational
    sample constructed here.  This enumeration is complete by construction.
    """
    side = tri.side
    w, h = fundamental_rect(lat)
    translates = points_in_box(lat, Box(_F0 - side, w, _F0 - side, h))
    a_vals = sorted({t.x for t in translates if _F0 <= t.x <= w}
                    | {_F0, w})
    b_vals = sorted({t.y for t in translates if _F0 <= t.y <= h}
                    | {_F0, h})
    sum_lo, sum_hi = _F0, w + h
    c_in = sorted({side + t.x + t.y for t in translates
                   if sum_lo <= side + t.x + t.y <= sum_hi})
    c_all = [sum_lo - 1] + c_in + [sum_hi + 1]

    samples: list[Point] = []
    for i in range(len(a_vals) - 1):
        a0, a1 = a_vals[i], a_vals[i + 1]
        for k in range(len(b_vals) - 1):
            b0, b1 = b_vals[k], b_vals[k + 1]
            sq_lo, sq_hi = a0 + b0, a1 + b1
            for m in range(len(c_all) - 1):
                lo = max(c_all[m], sq_lo)
                hi = min(c_all[m + 1], sq_hi)
                if lo >= hi:
                    continue
                s = (lo + hi) / 2
                x_lo = max(a0, s - b1)
                x_hi = min(a1, s - b0)
                x = (x_lo + x_hi) / 2
                samples.append(Point(x, s - x))
    for a in a_vals:
        ts = sorted(set(b_vals)
                    | {c - a for c in c_in if _F0 <= c - a <= h})
        samples += [Point(a, t) for t in ts]
        samples += [Point(a, (t0 + t1) / 2) for t0, t1 in zip(ts, ts[1:])]
    for b in b_vals:
        us = sorted(set(a_vals)
                    | {c - b for c in c_in if _F0 <= c - b <= w})
        samples += [Point(u, b) for u in us]
        samples += [Point((u0 + u1) / 2, b) for u0, u1 in zip(us, us[1:])]
    for c in c_in:
        x_lo = max(_F0, c - h)
        x_hi = min(w, c)
        if x_lo > x_hi:
            continue
        us = sorted({x for x in a_vals if x_lo <= x <= x_hi}
                    | {c - b for b in b_vals if x_lo <= c - b <= x_hi}
                    | {x_lo, x_hi})
        samples += [Point(u, c - u) for u in us]
        samples += [Point((u0 + u1) / 2, c - (u0 + u1) / 2)
                    for u0, u1 in zip(us, us[1:])]
    return samples


def multiplicity_extrema(lat: Lattice, region: Region) -> MultiplicityReport:
    """Exact global min and max of u -> count_at(lat, region, u).

    The count is periodic modulo the lattice, so the extrema over the plane
    are computed over one fundamental rectangle by sampling every face of
    the translate-boundary arrangement there.
    """
    if isinstance(region.shape, StairPolygon):
        if region.mode is Mode.HALF_OPEN:
            samples = _halfopen_samples(lat, region.shape)
        else:
            samples = _axis_faces(lat, region.shape)
    else:
        samples = _triangle_faces(lat, region.shape)
    counts = _exact_counts(lat, region, samples)
    i_min = min(range(len(counts)), key=counts.__getitem__)
    i_max = max(range(len(counts)), key=counts.__getitem__)
    return MultiplicityReport(counts[i_min], counts[i_max],
                              samples[i_min], samples[i_max])


def jfold_violation(region: Region, lat: Lattice, j: int,
                    kind: str) -> tuple[Point, int] | None:
    """A point that breaks the j-fold packing or covering named by kind,
    with its multiplicity, or None if the translates of region pass.

    A packing is decided on interiors: no point may lie in more than j.  A
    covering is decided on closed sets: every point must lie in at least j.
    """
    if region.mode is not KIND_MODE[kind]:
        sets = "interiors" if kind == PACKING else "closed sets"
        raise ValueError(f"{kind} is decided on {sets}; "
                         f"got mode {region.mode.value}")
    report = multiplicity_extrema(lat, region)
    if kind == PACKING:
        if report.max_mult > j:
            return report.max_witness, report.max_mult
    elif report.min_mult < j:
        return report.min_witness, report.min_mult
    return None


def is_jfold_packing(region: Region, lat: Lattice, j: int) -> bool:
    """True iff no point lies in more than j translate interiors."""
    return jfold_violation(region, lat, j, PACKING) is None


def is_jfold_covering(region: Region, lat: Lattice, j: int) -> bool:
    """True iff every point lies in at least j closed translates."""
    return jfold_violation(region, lat, j, COVERING) is None


def is_exact_jfold_tiling(region: Region | StairPolygon, lat: Lattice,
                          j: int) -> bool:
    """True iff every point lies in exactly j translates.

    Exactness is a pointwise statement and therefore requires the half open
    stair convention; any other region mode is rejected.
    """
    if isinstance(region, StairPolygon):
        region = Region(region, Mode.HALF_OPEN)
    if region.mode is not Mode.HALF_OPEN:
        raise ValueError("exact tilings require half open stair regions; "
                         f"got mode {region.mode.value}")
    report = multiplicity_extrema(lat, region)
    return report.min_mult == j and report.max_mult == j


def mean_multiplicity(lat: Lattice, region: Region) -> Fraction:
    """Exact average multiplicity over the plane, area(K)/d(lat).

    Computed directly as the area-weighted mean of the per-cell counts over
    a fundamental rectangle; only defined for half open stair regions, whose
    cells partition the rectangle exactly.
    """
    if not (isinstance(region.shape, StairPolygon)
            and region.mode is Mode.HALF_OPEN):
        raise ValueError("mean multiplicity is exact only for half open "
                         "stair regions")
    xs, ys = _halfopen_grid(lat, [region.shape])
    samples = [Point(x, y) for x in xs[:-1] for y in ys[:-1]]
    counts = _exact_counts(lat, region, samples)
    total = Fraction(0)
    idx = 0
    for i in range(len(xs) - 1):
        dx = xs[i + 1] - xs[i]
        for k in range(len(ys) - 1):
            total += counts[idx] * dx * (ys[k + 1] - ys[k])
            idx += 1
    w, h = fundamental_rect(lat)
    return total / (w * h)


def layer_extrema(lat: Lattice, outer: StairPolygon,
                  inner: StairPolygon) -> MultiplicityReport:
    """Multiplicity extrema of the set difference outer minus inner.

    Assumes inner is contained in outer, so the difference indicator is the
    difference of the two half open indicators; counted cellwise on the
    common translate grid.
    """
    xs, ys = _halfopen_grid(lat, [outer, inner])
    samples = [Point(x, y) for x in xs[:-1] for y in ys[:-1]]
    c_out = _exact_counts(lat, Region(outer, Mode.HALF_OPEN), samples)
    c_in = _exact_counts(lat, Region(inner, Mode.HALF_OPEN), samples)
    diffs = [a - b for a, b in zip(c_out, c_in)]
    i_min = min(range(len(diffs)), key=diffs.__getitem__)
    i_max = max(range(len(diffs)), key=diffs.__getitem__)
    return MultiplicityReport(diffs[i_min], diffs[i_max],
                              samples[i_min], samples[i_max])


_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_MODULUS = 1 << 64


class _Lcg:
    """Fixed 64-bit linear congruential generator (Knuth's constants).

    Deterministic across platforms and implementations: successive states
    are s -> (s * 6364136223846793005 + 1442695040888963407) mod 2**64 and
    each draw is state / 2**64 as an exact rational in [0, 1).
    """

    def __init__(self, seed: int) -> None:
        self.state = seed % _LCG_MODULUS
        self.step()
        self.step()

    def step(self) -> int:
        self.state = (self.state * _LCG_MULTIPLIER
                      + _LCG_INCREMENT) % _LCG_MODULUS
        return self.state

    def next_fraction(self) -> Fraction:
        return Fraction(self.step(), _LCG_MODULUS)


def random_sampling_oracle(lat: Lattice, region: Region, n: int,
                           seed: int) -> MultiplicityReport:
    """Sampled multiplicity range over n pseudo-random fundamental-domain
    points; a lower bound on the true max and an upper bound on the true min.
    """
    if n < 1:
        raise ValueError(f"need at least one sample: {n}")
    rng = _Lcg(seed)
    best_min: tuple[int, Point] | None = None
    best_max: tuple[int, Point] | None = None
    for _ in range(n):
        a = rng.next_fraction()
        b = rng.next_fraction()
        u = lat.u1.scaled(a) + lat.u2.scaled(b)
        c = count_at(lat, region, u)
        if best_min is None or c < best_min[0]:
            best_min = (c, u)
        if best_max is None or c > best_max[0]:
            best_max = (c, u)
    assert best_min is not None and best_max is not None
    return MultiplicityReport(best_min[0], best_max[0],
                              best_min[1], best_max[1])
