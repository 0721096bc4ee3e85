import hashlib
import json
import random
from fractions import Fraction as F
from math import floor, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hyp

from stairtile import (Box, Lattice, Mode, Point, Region, ScaledTriangle,
                       StairPolygon, canonical_stair, count_at,
                       integer_lattice, is_exact_jfold_tiling,
                       is_jfold_covering, is_jfold_packing, layer_extrema,
                       multiplicity_extrema, optimal_covering_lattices,
                       optimal_packing_lattices, points_in_box,
                       random_sampling_oracle, shift_lattice, stair_region,
                       triangle_region)
from stairtile.multiplicity import (_column_translates, _exact_counts,
                                    _extrema, _faces, _halfopen_grid,
                                    _triangle_faces, _vertices)

from oracles import (faces_reference, halfopen_grid_reference,
                     translates_reference)


def covering_optimal(j, m=1):
    den = 2 * j + 1
    return Lattice(Point(F(1, den), F(m, den)), Point(0, 1))


def packing_optimal(j, m=1):
    den = 2 * j
    return Lattice(Point(F(1, den), F(m, den)), Point(0, F(2 * j + 1, den)))


def test_region_mode_validation():
    with pytest.raises(ValueError):
        triangle_region(1, Mode.HALF_OPEN)
    stair_region(canonical_stair(1), Mode.CLOSED)  # fine


def test_count_at_examples():
    assert count_at(shift_lattice(1, 1), stair_region(canonical_stair(1)),
                    Point(0, 0)) == 1
    assert count_at(integer_lattice(), stair_region(StairPolygon([0, 1], [1])),
                    Point(F(7, 13), F(-22, 7))) == 1
    rng = random.Random(1)
    lat = shift_lattice(1, 2)
    region = stair_region(canonical_stair(2))
    for _ in range(20):
        u = Point(F(rng.randint(-50, 50), 9), F(rng.randint(-50, 50), 9))
        assert count_at(lat, region, u) == 2


def test_count_at_translation_invariance():
    rng = random.Random(2)
    lat = shift_lattice(3, 2)
    for region in (stair_region(canonical_stair(2)),
                   triangle_region(F(3, 2), Mode.CLOSED),
                   triangle_region(F(3, 2), Mode.INTERIOR)):
        for _ in range(10):
            u = Point(F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4))
            v = lat.point(rng.randint(-3, 3), rng.randint(-3, 3))
            assert count_at(lat, region, u) == count_at(lat, region, u + v)


def test_count_mode_monotonicity():
    rng = random.Random(3)
    lat = covering_optimal(2)
    for _ in range(25):
        u = Point(F(rng.randint(-20, 20), 7), F(rng.randint(-20, 20), 7))
        open_count = count_at(lat, triangle_region(1, Mode.INTERIOR), u)
        closed_count = count_at(lat, triangle_region(1, Mode.CLOSED), u)
        assert open_count <= closed_count


def test_extrema_exact_tiling_examples():
    rep = multiplicity_extrema(shift_lattice(1, 1),
                               stair_region(canonical_stair(1)))
    assert (rep.min_mult, rep.max_mult) == (1, 1)
    rep = multiplicity_extrema(integer_lattice(),
                               stair_region(StairPolygon([0, 1], [1])))
    assert (rep.min_mult, rep.max_mult) == (1, 1)


def test_extrema_triangle_examples():
    # interiors of unit triangles at integer offsets are disjoint
    rep = multiplicity_extrema(integer_lattice(),
                               triangle_region(1, Mode.INTERIOR))
    assert rep.max_mult == 1
    # doubled triangle covers the plane once over
    rep = multiplicity_extrema(integer_lattice(),
                               triangle_region(2, Mode.CLOSED))
    assert rep.min_mult == 1


def test_extrema_boundary_mode_edge_cases():
    # four closed unit squares meet at every lattice corner; interiors
    # leave the shared walls uncovered
    z2, square = integer_lattice(), StairPolygon([0, 1], [1])
    rep = multiplicity_extrema(z2, stair_region(square, Mode.CLOSED))
    assert (rep.min_mult, rep.max_mult) == (1, 4)
    rep = multiplicity_extrema(z2, stair_region(square, Mode.INTERIOR))
    assert (rep.min_mult, rep.max_mult) == (0, 1)
    rep = multiplicity_extrema(z2, triangle_region(1, Mode.INTERIOR))
    assert (rep.min_mult, rep.max_mult) == (0, 1)
    rep = multiplicity_extrema(z2, triangle_region(2, Mode.CLOSED))
    assert (rep.min_mult, rep.max_mult) == (1, 6)


def test_extrema_dominate_fine_grid():
    # every exactly-counted grid point must fall inside the reported range,
    # including points sitting on translate boundaries
    rng = random.Random(41)
    cases = [
        (shift_lattice(2, 1), triangle_region(F(3, 2), Mode.CLOSED)),
        (shift_lattice(2, 1), triangle_region(F(3, 2), Mode.INTERIOR)),
        (covering_optimal(2, 3), triangle_region(1, Mode.CLOSED)),
        (packing_optimal(2, 3), triangle_region(1, Mode.INTERIOR)),
        (Lattice(Point(F(1, 2), F(1, 3)), Point(F(1, 3), F(3, 2))),
         stair_region(StairPolygon([0, F(1, 2), 2], [1, F(2, 3)]),
                      Mode.CLOSED)),
        (Lattice(Point(F(1, 2), F(1, 3)), Point(F(1, 3), F(3, 2))),
         stair_region(StairPolygon([0, F(1, 2), 2], [1, F(2, 3)]),
                      Mode.INTERIOR)),
        (Lattice(Point(1, 1), Point(0, 2)),
         stair_region(StairPolygon([0, 1, 3], [2, 1]))),
    ]
    for lat, region in cases:
        rep = multiplicity_extrema(lat, region)
        for _ in range(120):
            u = Point(F(rng.randint(-24, 24), 12),
                      F(rng.randint(-24, 24), 12))
            assert rep.min_mult <= count_at(lat, region, u) <= rep.max_mult


def test_extrema_witnesses_reproduce_counts():
    cases = [
        (shift_lattice(2, 2), stair_region(canonical_stair(2))),
        (integer_lattice(), triangle_region(F(3, 2), Mode.INTERIOR)),
        (covering_optimal(1), triangle_region(1, Mode.CLOSED)),
        (integer_lattice(), stair_region(StairPolygon([0, 1, 3], [2, 1]),
                                         Mode.CLOSED)),
    ]
    for lat, region in cases:
        rep = multiplicity_extrema(lat, region)
        assert count_at(lat, region, rep.min_witness) == rep.min_mult
        assert count_at(lat, region, rep.max_witness) == rep.max_mult


def test_is_jfold_packing_examples():
    assert is_jfold_packing(triangle_region(1, Mode.INTERIOR),
                            integer_lattice(), 1)
    # oracle for the failure: this point lies in several open translates
    probe = Point(F(9, 8), F(1, 8))
    assert count_at(integer_lattice(),
                    triangle_region(F(3, 2), Mode.INTERIOR), probe) >= 2
    assert not is_jfold_packing(triangle_region(F(3, 2), Mode.INTERIOR),
                                integer_lattice(), 1)
    assert is_jfold_packing(triangle_region(1, Mode.INTERIOR),
                            packing_optimal(1), 1)
    with pytest.raises(ValueError):
        is_jfold_packing(triangle_region(1, Mode.CLOSED),
                         integer_lattice(), 1)


def test_is_jfold_covering_examples():
    assert is_jfold_covering(triangle_region(1, Mode.CLOSED),
                             covering_optimal(1), 1)
    # oracle for the failure: this point is uncovered
    probe = Point(F(3, 4), F(3, 4))
    assert count_at(integer_lattice(),
                    triangle_region(1, Mode.CLOSED), probe) == 0
    assert not is_jfold_covering(triangle_region(1, Mode.CLOSED),
                                 integer_lattice(), 1)
    assert is_jfold_covering(triangle_region(2, Mode.CLOSED),
                             integer_lattice(), 1)
    with pytest.raises(ValueError):
        is_jfold_covering(triangle_region(1, Mode.INTERIOR),
                          integer_lattice(), 1)


def test_is_exact_jfold_tiling_examples():
    assert is_exact_jfold_tiling(canonical_stair(2), shift_lattice(1, 2), 2)
    # oracle for the failure: the origin cell count is 1, not 2
    assert count_at(shift_lattice(4, 2), stair_region(canonical_stair(2)),
                    Point(0, 0)) == 1
    assert not is_exact_jfold_tiling(canonical_stair(2), shift_lattice(4, 2), 2)
    assert is_exact_jfold_tiling(StairPolygon([0, 1], [1]),
                                 integer_lattice(), 1)


def test_translative_invariance_of_stair_counts():
    # for admissible m the stair count is the same at every integer shift
    for (m, j) in ((1, 1), (2, 2), (4, 4)):
        lat = shift_lattice(m, j)
        region = stair_region(canonical_stair(j))
        baseline = count_at(lat, region, Point(0, 0))
        assert baseline == j
        for s in range(-2, 3):
            for t in range(-2, 3):
                assert count_at(lat, region, Point(-s, -t)) == baseline


def test_random_sampling_oracle_examples():
    rep = random_sampling_oracle(shift_lattice(1, 1),
                                 stair_region(canonical_stair(1)), 1000, 42)
    assert (rep.min_mult, rep.max_mult) == (1, 1)
    rep = random_sampling_oracle(integer_lattice(),
                                 triangle_region(2, Mode.CLOSED), 1000, 7)
    assert rep.min_mult >= 1
    rep = random_sampling_oracle(integer_lattice(),
                                 triangle_region(F(1, 2), Mode.CLOSED),
                                 1000, 7)
    assert rep.min_mult == 0
    with pytest.raises(ValueError):
        random_sampling_oracle(integer_lattice(),
                               triangle_region(1, Mode.CLOSED), 0, 1)


def test_random_sampling_oracle_draws_from_random():
    lat = Lattice(Point(F(2, 3), F(1, 5)), Point(F(-1, 4), F(3, 2)))
    region = triangle_region(1, Mode.CLOSED)
    for seed in (0, 1, 99):
        rng = random.Random(seed)
        a, b = F(rng.random()), F(rng.random())
        u = lat.u1.scaled(a) + lat.u2.scaled(b)
        rep = random_sampling_oracle(lat, region, 1, seed)
        assert rep.min_witness == rep.max_witness == u
        assert rep.min_mult == rep.max_mult == count_at(lat, region, u)


def test_oracle_is_reproducible():
    lat = covering_optimal(2)
    region = triangle_region(1, Mode.CLOSED)
    a = random_sampling_oracle(lat, region, 200, 123)
    b = random_sampling_oracle(lat, region, 200, 123)
    assert a == b


def mean_multiplicity(lat, region):
    """Average multiplicity over a fundamental rectangle of a half open
    stair region: the per-cell counts of the kernel, weighted by cell
    area."""
    den = _common_den(lat, region.shape)
    xs, ys = _halfopen_grid(lat, [region.shape], den)
    counts = iter(_exact_counts(lat, region, _vertices(xs, ys), den))
    total = sum(next(counts) * (x1 - x0) * (y1 - y0)
                for x0, x1 in zip(xs, xs[1:]) for y0, y1 in zip(ys, ys[1:]))
    return F(total, xs[-1] * ys[-1])


def test_mean_multiplicity_is_area_over_determinant():
    rng = random.Random(17)
    for _ in range(8):
        q = rng.choice([1, 2, 3])
        while True:
            u1 = Point(F(rng.randint(-3, 3), q), F(rng.randint(-3, 3), q))
            u2 = Point(F(rng.randint(-3, 3), q), F(rng.randint(-3, 3), q))
            if u1.x * u2.y != u1.y * u2.x:
                break
        lat = Lattice(u1, u2)
        xs = sorted(rng.sample(range(0, 8), 3))
        hs = sorted(rng.sample(range(1, 8), 2), reverse=True)
        region = stair_region(StairPolygon([F(x, q) for x in xs],
                                           [F(h, q) for h in hs]))
        assert mean_multiplicity(lat, region) == region.shape.area() / lat.d
    # for an exact tiling the mean collapses to j
    assert mean_multiplicity(shift_lattice(2, 2),
                             stair_region(canonical_stair(2))) == 2


small_rationals = hyp.fractions(min_value=-2, max_value=2, max_denominator=5)
lengths = hyp.fractions(min_value=F(1, 4), max_value=1, max_denominator=4)
fractions_01 = hyp.fractions(min_value=0, max_value=1, max_denominator=6)


@hyp.composite
def rational_lattices(draw):
    u1 = Point(draw(small_rationals), draw(small_rationals))
    u2 = Point(draw(small_rationals), draw(small_rationals))
    assume(abs(u1.x * u2.y - u1.y * u2.x) >= F(1, 5))
    return Lattice(u1, u2)


@hyp.composite
def stair_polygons(draw):
    """A small stair of two or three columns, so that every stair has an
    internal wall."""
    widths = draw(hyp.lists(lengths, min_size=2, max_size=3))
    steps = draw(hyp.lists(lengths, min_size=len(widths),
                           max_size=len(widths)))
    x0 = draw(small_rationals)
    xs = [x0]
    for w in widths:
        xs.append(xs[-1] + w)
    hs = [sum(steps[i:]) for i in range(len(steps))]
    return StairPolygon(xs, hs)


@hyp.composite
def regions(draw):
    """A small stair or triangle in one of its valid modes."""
    if draw(hyp.booleans()):
        side = draw(hyp.fractions(min_value=F(1, 4), max_value=2,
                                  max_denominator=4))
        return Region(ScaledTriangle(side),
                      draw(hyp.sampled_from([Mode.INTERIOR, Mode.CLOSED])))
    return Region(draw(stair_polygons()), draw(hyp.sampled_from(list(Mode))))


def boundary_points(shape, ts):
    """Corners and points on the walls, floor, ceilings and hypotenuse,
    placed by the parameters ts in [0, 1]."""
    if isinstance(shape, ScaledTriangle):
        s = shape.side
        pts = [Point(0, 0), Point(s, 0), Point(0, s), Point(s / 4, s / 4)]
        for t in ts:
            pts += [Point(t * s, 0), Point(0, t * s),
                    Point(t * s, (1 - t) * s)]
        return pts
    xb, hs = shape.x_breaks, shape.heights
    pts = [Point(xb[-1], 0), Point(xb[-1], hs[-1])]
    for i, h in enumerate(hs):
        pts += [Point(xb[i], 0), Point(xb[i], h)]
        if i:
            pts.append(Point(xb[i], hs[i - 1]))
        for t in ts:
            x = xb[i] + t * (xb[i + 1] - xb[i])
            pts += [Point(x, 0), Point(x, h), Point(xb[i], t * hs[0])]
    return pts


def _shape_values(shape):
    return ([shape.side] if isinstance(shape, ScaledTriangle)
            else list(shape.x_breaks) + list(shape.heights))


def _common_den(lat, shape, points=()):
    """A denominator at which the lattice, the shape and the points are
    integers."""
    values = _shape_values(shape) + [v for p in points for v in (p.x, p.y)]
    return lcm(lat.den, *(v.denominator for v in values))


def _at(sample, den):
    return Point(F(sample[0], den), F(sample[1], den))


@hyp.composite
def line_lattices(draw):
    """Random lattices, near-rotations (1, 1/N), (-1/N, 1), whose canonical
    rectangle is 1/N wide and about N tall, and wide lattices (N, 1/3),
    (0, 1/N), whose canonical rectangle is N wide and 1/N tall."""
    kind = draw(hyp.sampled_from(["random", "tall", "wide"]))
    if kind == "tall":
        n = draw(hyp.integers(2, 200))
        return Lattice(Point(1, F(1, n)), Point(F(-1, n), 1))
    if kind == "wide":
        n = draw(hyp.integers(2, 50))
        return Lattice(Point(n, F(1, 3)), Point(0, F(1, n)))
    return draw(rational_lattices())


@settings(max_examples=80, deadline=None)
@given(line_lattices(), regions(),
       hyp.lists(fractions_01, min_size=1, max_size=3),
       hyp.lists(hyp.tuples(hyp.integers(-2, 2), hyp.integers(-2, 2)),
                 min_size=1, max_size=3))
def test_counts_and_extrema_match_point_oracle(lat, region, ts, shifts):
    # boundary points of the shape moved by lattice vectors sit on walls,
    # corners, floors and hypotenuses of several translates at once
    points = [p + lat.point(a, b)
              for p in boundary_points(region.shape, ts)
              for a, b in shifts]
    # a multiple of 4 puts the midpoints of every face sampler on integers
    den = 4 * _common_den(lat, region.shape, points)
    samples = [(int(p.x * den), int(p.y * den)) for p in points]
    if region.mode is Mode.HALF_OPEN:
        faces = _vertices(*_halfopen_grid(lat, [region.shape], den))
    else:
        faces = (_triangle_faces(lat, region.shape, den)
                 if isinstance(region.shape, ScaledTriangle)
                 else _faces(*_halfopen_grid(lat, [region.shape], den)))
    samples += faces[::max(1, len(faces) // 40)]
    expected = [count_at(lat, region, _at(u, den)) for u in samples]
    assert _exact_counts(lat, region, samples, den) == expected
    rep = multiplicity_extrema(lat, region)
    assert count_at(lat, region, rep.min_witness) == rep.min_mult
    assert count_at(lat, region, rep.max_witness) == rep.max_mult
    assert rep.min_mult <= min(expected)
    assert max(expected) <= rep.max_mult


@settings(max_examples=80, deadline=None)
@given(line_lattices(), regions(), hyp.data())
def test_counts_on_shared_lines_match_point_oracle(lat, region, data):
    # a whole sub-grid of cell corners: each sample shares its line with
    # others along both axes, and either axis may have fewer values
    shape = region.shape
    if isinstance(shape, ScaledTriangle):
        shape = StairPolygon([0, shape.side], [shape.side])
    den = 4 * _common_den(lat, shape)
    xs, ys = _halfopen_grid(lat, [shape], den)
    sub_xs = data.draw(hyp.lists(hyp.sampled_from(xs[:-1]), min_size=1,
                                 max_size=5, unique=True))
    sub_ys = data.draw(hyp.lists(hyp.sampled_from(ys[:-1]), min_size=1,
                                 max_size=5, unique=True))
    samples = [(x, y) for x in sub_xs for y in sub_ys]
    counts = _exact_counts(lat, region, samples, den)
    assert counts == [count_at(lat, region, _at(u, den)) for u in samples]
    assert _exact_counts(lat, region, samples[::-1], den) == counts[::-1]


@hyp.composite
def skewed_line_lattices(draw):
    """``line_lattices``, each given through a random unimodular change of
    its basis."""
    lat = draw(line_lattices())
    a, b, c, d = 1, 0, 0, 1
    for k in draw(hyp.lists(hyp.integers(-3, 3), min_size=1, max_size=3)):
        # left multiplication by [[0, 1], [1, k]], of determinant -1
        a, b, c, d = c, d, a + k * c, b + k * d
    return Lattice(lat.u1.scaled(a) + lat.u2.scaled(b),
                   lat.u1.scaled(c) + lat.u2.scaled(d))


@settings(max_examples=80, deadline=None)
@given(skewed_line_lattices(),
       hyp.lists(stair_polygons(), min_size=1, max_size=2),
       hyp.sampled_from([1, 4]))
# the two stairs of a layer, as layer_extrema passes them
@example(shift_lattice(1, 1),
         [canonical_stair(2), StairPolygon([0, 1, 3], [3, 2])], 1)
@example(shift_lattice(3, 4), [canonical_stair(4)], 4)
# only the row point of column -1, at h - 1/den, gives the line y = 4
@example(shift_lattice(1, 2), [StairPolygon([0, 1], [1])], 1)
# every integer of [0, h] is a line after the first row: the walk stops
@example(shift_lattice(1, 8), [canonical_stair(8)], 1)
# at 4*den the lines are multiples of 4 and never fill [0, h]
@example(shift_lattice(1, 8), [canonical_stair(8)], 4)
# the first row gives the lines 0, 2 and 3 of [0, 3], the second line 1
@example(shift_lattice(1, 1), [StairPolygon([0, 1, 3], [6, 5])], 1)
def test_halfopen_grid_matches_the_full_box_reference(lat, stairs, scale):
    # one translate per lattice column gives the horizontals of every
    # translate of the tall box, at the den of the half open grids and at
    # the 4*den of _faces
    den = scale * lcm(*(_common_den(lat, shape) for shape in stairs))
    assert _halfopen_grid(lat, stairs, den) == \
        halfopen_grid_reference(lat, stairs, den)


window_lows = hyp.fractions(min_value=-3, max_value=3, max_denominator=12)
window_sizes = hyp.fractions(min_value=0, max_value=3, max_denominator=12)


@settings(max_examples=80, deadline=None)
@given(skewed_line_lattices(), hyp.sampled_from([1, 4]),
       hyp.tuples(window_lows, window_lows),
       hyp.tuples(window_sizes, window_sizes))
# the window [-2, 1] x [-2, 0] is lower than h = 5, and column 1 has no
# point in it
@example(shift_lattice(1, 2), 1, (F(-7, 5), F(-1, 3)), (3, F(1, 2)))
def test_column_translates_match_the_full_window_listing(lat, scale, lows,
                                                         sizes):
    # windows of up to 3 periods each way from -3 periods, scaled by the
    # canonical w and h: negative bounds, and y-windows lower than h,
    # which some columns miss
    x1, _, y2 = lat.canonical_key()
    den = scale * lat.den
    w, h = int(x1 * den), int(y2 * den)
    x_lo, y_lo = floor(lows[0] * w), floor(lows[1] * h)
    x_hi, y_hi = x_lo + floor(sizes[0] * w), y_lo + floor(sizes[1] * h)
    row = points_in_box(lat, Box(F(x_lo, den), F(x_hi, den),
                                 0, y2 - F(1, den)))
    assert _column_translates(row, den, h, y_lo, y_hi) == \
        translates_reference(lat, den, x_lo, x_hi, y_lo, y_hi)


def _scaled_magnitude(lat, shape, samples, den):
    values = [lat.u1.x, lat.u1.y, lat.u2.x, lat.u2.y] + _shape_values(shape)
    return max([abs(v * den) for v in values]
               + [abs(c) for u in samples for c in u])


def test_counts_at_denominators_near_2_pow_31():
    p, q, r = 2**31 - 1, 2**31 - 19, 2**31 + 11
    # S(2) and its shift lattices stretched by x -> a*x, y -> b*y: the
    # stretch keeps half open tilings, and the scaled values pass 2**60
    a, b = F(p, q), F(q, r)
    shape = StairPolygon([a * x for x in canonical_stair(2).x_breaks],
                         [b * h for h in canonical_stair(2).heights])
    region = stair_region(shape)
    for m, tiles in ((1, True), (4, False)):
        base = shift_lattice(m, 2)
        lat = Lattice(Point(a * base.u1.x, b * base.u1.y),
                      Point(a * base.u2.x, b * base.u2.y))
        den = _common_den(lat, shape)
        samples = _vertices(*_halfopen_grid(lat, [shape], den))
        assert _scaled_magnitude(lat, shape, samples, den) >= 2**60
        assert _exact_counts(lat, region, samples, den) == \
            [count_at(lat, region, _at(u, den)) for u in samples]
        assert is_exact_jfold_tiling(shape, lat, 2) is tiles
    # a perturbed optimal covering lattice against a slightly larger
    # triangle, lattice and triangle denominators coprime
    lat = Lattice(Point(F(1, 3) + F(1, p), F(1, 3)), Point(0, 1 - F(1, q)))
    for mode in (Mode.CLOSED, Mode.INTERIOR):
        region = triangle_region(1 + F(1, r), mode)
        den = 4 * _common_den(lat, region.shape)
        samples = _triangle_faces(lat, region.shape, den)
        assert _scaled_magnitude(lat, region.shape, samples, den) >= 2**60
        counts = _exact_counts(lat, region, samples, den)
        assert counts == [count_at(lat, region, _at(u, den))
                          for u in samples]
        rep = multiplicity_extrema(lat, region)
        assert (rep.min_mult, rep.max_mult) == (min(counts), max(counts))


def test_faces_sample_each_face_once():
    def mids(v):
        return {(a + b) // 2 for a, b in zip(v, v[1:])}

    shapes = [canonical_stair(1), canonical_stair(2),
              StairPolygon([0, F(1, 2), 2], [1, F(2, 3)])]
    for lat in (integer_lattice(), shift_lattice(2, 2), covering_optimal(2),
                Lattice(Point(F(2, 3), F(1, 5)), Point(F(-1, 2), 1))):
        for shape in shapes:
            den = 4 * _common_den(lat, shape)
            xs, ys = _halfopen_grid(lat, [shape], den)
            faces = _faces(xs, ys)
            assert len(faces) == len(set(faces))
            # with no diagonals: the vertices of the half open grid and the
            # cell centres, and no edge midpoint
            assert set(faces) == ({(x, y) for x in xs[:-1] for y in ys[:-1]}
                                  | {(x, y) for x in mids(xs)
                                     for y in mids(ys)})
        for side in (1, F(3, 2)):
            tri = ScaledTriangle(F(side))
            den = 4 * _common_den(lat, tri)
            faces = _triangle_faces(lat, tri, den)
            assert len(faces) == len(set(faces))
            # every sample on a line is a grid vertex of x = 0 below y = h
            a_vals, b_vals, c_in = _triangle_lines(lat, tri, den)
            assert all(x == 0 and y < b_vals[-1] and y in b_vals
                       for x, y in faces
                       if x in a_vals or y in b_vals or x + y in c_in)


def _triangle_lines(lat, tri, den):
    """The horizontals and diagonals of the translate boundaries of tri
    that meet the closed canonical rectangle, scaled by den."""
    x1, _, y2 = lat.canonical_key()
    box = Box(-tri.side, x1, -tri.side, y2)
    pts = points_in_box(lat, box)
    b_vals = {p.y * den for p in pts if 0 <= p.y <= y2} | {0, y2 * den}
    c_in = {(tri.side + p.x + p.y) * den for p in pts}
    return ([0, int(x1 * den)], sorted(int(b) for b in b_vals),
            sorted(int(c) for c in c_in if 0 <= c <= (x1 + y2) * den))


@settings(max_examples=80, deadline=None)
@given(line_lattices(), regions(),
       hyp.sampled_from([Mode.CLOSED, Mode.INTERIOR]))
def test_extrema_match_the_full_face_sampler(lat, region, mode):
    # _faces skips the edge fragments and the far sides x = w and y = h:
    # that moves neither an extremum nor its witness, the first sample to
    # reach it
    region = Region(region.shape, mode)
    shape = region.shape
    den = 4 * _common_den(lat, shape)
    if isinstance(shape, ScaledTriangle):
        lines = _triangle_lines(lat, shape, den)
        faces = _triangle_faces(lat, shape, den)
    else:
        lines = (*_halfopen_grid(lat, [shape], den), [])
        faces = _faces(*lines)
    reference = faces_reference(*lines)
    w, h = lines[0][-1], lines[1][-1]
    a_vals, b_vals, c_in = map(set, lines)
    # the reference's samples off every line (cells), and its grid
    # vertices in the half open rectangle [0, w) x [0, h), in its order
    assert faces == [(x, y) for x, y in reference
                     if (x in a_vals) + (y in b_vals) + (x + y in c_in) == 0
                     or (x in a_vals and x < w and y < h and y in b_vals)]
    counts = _exact_counts(lat, region, reference, den)
    assert multiplicity_extrema(lat, region) == _extrema(counts, reference,
                                                         den)


@settings(max_examples=60, deadline=None)
@given(line_lattices(), hyp.fractions(min_value=F(1, 4), max_value=2,
                                      max_denominator=4))
def test_dropped_diagonal_crossings_do_no_better(lat, side):
    # the two steps of _faces' proof at each point (0, c), c < h on a
    # diagonal and on no horizontal: its closed count is matched at the
    # grid vertex (0, b') below it, and its open count at (-d, y) just
    # left of x = 0, on an open set that a cell sample meets
    closed = triangle_region(side, Mode.CLOSED)
    interior = triangle_region(side, Mode.INTERIOR)
    w, _, h = lat.canonical_key()
    pts = points_in_box(lat, Box(-side, w, -side, h))
    b_vals = {p.y for p in pts if 0 <= p.y <= h} | {0, h}
    crossings = sorted(b_vals | {c for c in (side + p.x + p.y for p in pts)
                                 if 0 <= c <= h})
    for c in crossings:
        if c == h or c in b_vals:
            continue
        # the translates p + T whose closed triangle holds (0, c)
        holders = [p for p in points_in_box(lat, Box(-side, 0, -side, c))
                   if p.y <= c <= p.x + p.y + side]
        assert len(holders) == count_at(lat, closed, Point(0, c))
        b = max([F(0)] + [p.y for p in holders])
        assert b < c and b in b_vals
        assert count_at(lat, closed, Point(0, b)) >= len(holders)
        e = crossings[crossings.index(c) + 1]
        # no lattice x-coordinate in [-d, 0) or in (-side - d, -side)
        d = min(w - side % w, (e - c) / 2) / 2
        assert count_at(lat, interior, Point(0, c)) == \
            count_at(lat, interior, Point(-d, (c + e) / 2))


def test_layer_extrema_rejects_an_inner_stair_outside_outer():
    lat = shift_lattice(1, 1)
    with pytest.raises(ValueError, match="inner column 0"):
        # taller than outer
        layer_extrema(lat, StairPolygon([0, 1], [1]), canonical_stair(1))
    with pytest.raises(ValueError, match="inner column 0"):
        # wider than outer
        layer_extrema(lat, canonical_stair(1), StairPolygon([0, 3], [1]))
    with pytest.raises(ValueError, match="inner column 1"):
        # [1, 3) x [0, 5/2) rises above the outer column [2, 3) x [0, 2)
        layer_extrema(lat, canonical_stair(2),
                      StairPolygon([0, 1, 3], [3, F(5, 2)]))
    rep = layer_extrema(lat, canonical_stair(2),
                        StairPolygon([0, 1, 3], [3, 2]))
    assert (rep.min_mult, rep.max_mult) == (0, 2)


# The seven generic-D* bases of the benchmark's generic_scales ladder.
GENERIC_BASES = [
    ((3, 2), (1, F(1, 2))), ((-2, F(-1, 3)), (1, 0)),
    ((F(1, 2), F(-4, 3)), (F(3, 4), F(-25, 12))),
    ((2, F(1, 2)), (4, F(4, 5))), ((0, F(17, 30)), (2, F(-11, 15))),
    ((F(7, 2), F(3, 2)), (F(5, 2), 2)), ((-1, F(-7, 6)), (-1, F(8, 5))),
]


def test_triangle_witnesses_are_frozen():
    # which face sample becomes a witness depends on the order of the
    # faces; the digest was taken from the Fraction face sampler
    lats = [integer_lattice()]
    for j in (1, 2):
        lats += (optimal_packing_lattices(j, verify=False)
                 + optimal_covering_lattices(j, verify=False))
    lats += [Lattice(Point(*u1), Point(*u2)) for u1, u2 in GENERIC_BASES]
    digest = hashlib.sha256()
    for lat in lats:
        for side in (1, F(3, 2), 2):
            for mode in (Mode.CLOSED, Mode.INTERIOR):
                rep = multiplicity_extrema(lat, triangle_region(side, mode))
                digest.update(json.dumps(rep.to_json()).encode())
    assert digest.hexdigest() == ("e5fd0fb264ed4903010b8c147bff3d89"
                                  "0c1958edac629a86eb51c4d81ae9ed8f")


def test_stair_witnesses_are_frozen():
    # which face sample becomes a witness depends on the order of the
    # faces; the digest was taken from the integer face sampler _faces
    lats = [integer_lattice()]
    lats += [shift_lattice(m, j) for j in (1, 2) for m in range(1, 2 * j + 2)]
    lats += [Lattice(Point(*u1), Point(*u2)) for u1, u2 in GENERIC_BASES]
    shapes = [canonical_stair(1), canonical_stair(2),
              StairPolygon([0, F(1, 2), 2], [1, F(2, 3)])]
    digest = hashlib.sha256()
    for lat in lats:
        for shape in shapes:
            for mode in (Mode.CLOSED, Mode.INTERIOR):
                rep = multiplicity_extrema(lat, stair_region(shape, mode))
                digest.update(json.dumps(rep.to_json()).encode())
    assert digest.hexdigest() == ("20fceced437b3a5e03e1d61e16a4e673"
                                  "94ae7fc2b2d057b9c1f9b1c9a7598577")


def test_halfopen_reports_are_frozen():
    # the half open path counts cell corners; the digest was taken from
    # the per-sample, per-atom kernel before it became a line sweep
    lats = [integer_lattice()]
    lats += [shift_lattice(m, j) for j in (1, 2) for m in range(1, 2 * j + 2)]
    lats += [Lattice(Point(*u1), Point(*u2)) for u1, u2 in GENERIC_BASES]
    shapes = [canonical_stair(1), canonical_stair(2),
              StairPolygon([0, F(1, 2), 2], [1, F(2, 3)])]
    digest = hashlib.sha256()
    for lat in lats:
        for shape in shapes:
            region = stair_region(shape)
            rep = multiplicity_extrema(lat, region)
            digest.update(json.dumps(rep.to_json()).encode())
            digest.update(str(mean_multiplicity(lat, region)).encode())
    rep = layer_extrema(shift_lattice(1, 1), canonical_stair(2),
                        StairPolygon([0, 1, 3], [3, 2]))
    digest.update(json.dumps(rep.to_json()).encode())
    assert digest.hexdigest() == ("c302d1337534536551c8d71054c58015"
                                  "b64e67a84935220e370f8559467dbc6f")
