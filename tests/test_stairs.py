import hashlib
import json
import random
import sys
from fractions import Fraction as F
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hyp

from stairtile import stairs
from stairtile import (Lattice, Point, SelectionStairError, StairPolygon,
                       admissible_shifts, canonical_stair, count_region,
                       density_result,
                       integer_lattice, is_exact_jfold_tiling, lambda_lower,
                       lambda_upper, layer_extrema, optimal_covering_lattices,
                       optimal_packing_lattices, scales, selection_stair,
                       shift_lattice, verify_stair_tiling_converse,
                       verify_stair_tiling_forward)
from stairtile.cli import run
from stairtile.stairs import canonical_regions

from oracles import coset_counts_reference, selection_member
from test_multiplicity import GENERIC_BASES
from test_scales import near_rotation, skewed_lattices


def test_canonical_stair_shape_and_area():
    s1 = canonical_stair(1)
    assert s1.x_breaks == (0, 1, 2) and s1.heights == (2, 1)
    assert s1.area() == 3
    assert canonical_stair(2).area() == 10
    for j in (1, 2, 3, 4):
        assert canonical_stair(j).area() == j * (2 * j + 1)
        assert canonical_stair(j).r == 2 * j - 1


def test_canonical_stair_is_the_checked_stair():
    # built without StairPolygon's checks, it is the value they pass
    for j in range(1, 61):
        stair = canonical_stair(j)
        checked = StairPolygon(range(2 * j + 1), range(2 * j, 0, -1))
        assert stair == checked and hash(stair) == hash(checked)
        assert repr(stair) == repr(checked)
        assert stair.to_json() == checked.to_json()
        assert type(stair.x_breaks) is tuple and type(stair.heights) is tuple
        assert stair.x_breaks == checked.x_breaks
        assert stair.heights == checked.heights
        assert all(type(v) is F for v in stair.x_breaks + stair.heights)


def test_canonical_regions_areas_and_partition():
    for j in (1, 2, 3):
        regs = canonical_regions(j)
        n = 2 * j + 1
        square = {(i, k) for i in range(n) for k in range(n)}
        lower, diag, upper = (set(regs[r]) for r in ("S", "D", "S*"))
        assert not (lower & diag or lower & upper or diag & upper)
        assert lower | diag | upper == square
        assert all(len(regs[r]) == n for r in "BCD")
        assert len(regs["S"]) == j * n
        assert all(set(cells) <= square for cells in regs.values())
    with pytest.raises(ValueError):
        canonical_regions(0)


def assert_region_count_digest():
    # taken from the half-open box counter that unit cells replace
    counts = [count_region(m, j, r, s, t)
              for j in (1, 2, 3) for m in range(1, 2 * j + 3)
              for r in "BCDS" for s in range(-3, 4) for t in range(-3, 4)]
    assert len(counts) == 3528
    assert hashlib.sha256(json.dumps(counts).encode()).hexdigest() == (
        "17f2e73b92446b1cabb4fde6b93fc9d6fabbb03c1991cbdd568e3c21b0dbf3e7")


def test_count_region_digest():
    assert_region_count_digest()


def test_count_region_matches_the_cells_of_its_region():
    # the column rule against a scan of every cell of canonical_regions
    for j in (4, 7):
        n, regions = 2 * j + 1, canonical_regions(j)
        for m, r, s, t in product((1, 2, j, n - 1, n, n + 3), "BCDS",
                                  (-n, -1, 0, 2), (-2, 0, 1, n + 1)):
            assert count_region(m, j, r, s, t) == sum(
                (t + k - m * (s + i)) % n == 0 for i, k in regions[r])


def test_count_region_examples():
    assert count_region(2, 2, "B", 0, 0) == 1
    assert count_region(3, 1, "C", 0, 0) == 3  # gcd(3, 3)
    assert count_region(1, 1, "D", 0, 0) == 1  # gcd(2, 3)
    # enumerated values where the naive j+1-d formula fails
    assert count_region(2, 4, "S", 0, 0) == 4
    assert count_region(4, 2, "S", 0, 0) == 1
    with pytest.raises(ValueError):
        count_region(1, 1, "X", 0, 0)
    with pytest.raises(ValueError):
        count_region(1, 1, "S*", 0, 0)
    with pytest.raises(ValueError, match="integral"):
        count_region(1, 1, "B", F(1, 2), 0)
    assert count_region(3, 1, "C", F(2), F(-3)) == 3


def test_count_region_refuses_m_or_j_below_one():
    # as shift_lattice does, whatever the region would count
    for m, j in ((0, 1), (-1, 2), (1, 0), (2, -1)):
        with pytest.raises(ValueError, match="need m >= 1 and j >= 1"):
            count_region(m, j, "B", 0, 0)


def test_count_region_left_strip_always_one():
    for j in (1, 2, 3):
        for m in range(1, 2 * j + 2):
            for s in range(-2, 3):
                for t in range(-2, 3):
                    assert count_region(m, j, "B", s, t) == 1


def test_count_region_refined_c_and_d():
    # counts live in {0, gcd} and hit the gcd exactly when a congruence on
    # the shift is solvable; when the gcd is 1 the count is always 1
    for j in (1, 2, 3):
        n = 2 * j + 1
        for m in range(1, n + 1):
            dc = gcd(m, n)
            dd = gcd(m + 1, n)
            for s in range(-2, 3):
                for t in range(-2, 3):
                    c = count_region(m, j, "C", s, t)
                    assert c == (dc if t % dc == 0 else 0)
                    if dc == 1:
                        assert c == 1
                    d = count_region(m, j, "D", s, t)
                    assert d == (dd if (s + t - 1) % dd == 0 else 0)
                    if dd == 1:
                        assert d == 1


def test_count_region_stair_equals_j_in_admissible_cases():
    for j in (1, 2, 3):
        for m in admissible_shifts(j):
            for s in range(-2, 3):
                for t in range(-2, 3):
                    assert count_region(m, j, "S", s, t) == j


def test_admissible_shifts_examples():
    assert admissible_shifts(1) == [1]
    assert admissible_shifts(2) == [1, 2, 3]
    assert admissible_shifts(4) == [1, 4, 7]


def test_selection_member_examples():
    # the quadrant-form oracle: p is among the j first points of its coset
    # in the closed quadrant
    z2 = integer_lattice()
    assert selection_member(z2, 1, Point(F(1, 2), F(1, 2)))
    assert not selection_member(z2, 1, Point(F(3, 2), F(1, 2)))
    assert not selection_member(z2, 1, Point(F(1, 2), 1))
    assert selection_member(z2, 2, Point(F(1, 2), 1))
    best_cover = Lattice(Point(F(1, 3), F(1, 3)), Point(0, 1))
    assert selection_member(best_cover, 1, Point(0, 0))
    # (1/3, 1/3) comes after the origin, and (0, 2/3), which precedes it
    # in the tie of sums, after (1/3, 0)
    assert not selection_member(best_cover, 1, Point(F(1, 3), F(1, 3)))
    assert selection_member(best_cover, 2, Point(F(1, 3), F(1, 3)))
    assert not selection_member(best_cover, 1, Point(0, F(2, 3)))
    # no point outside the quadrant is selected
    assert not selection_member(z2, 3, Point(F(-1, 2), 0))
    assert not selection_member(z2, 3, Point(0, F(-1, 2)))


def test_selection_stair_z2():
    result = selection_stair(integer_lattice(), 1)
    assert result.stair.x_breaks == (0, 1) and result.stair.heights == (1,)
    assert result.scale == 2
    assert result.corners == ()
    assert result.extreme_corners == (Point(0, 1), Point(1, 0))


def test_selection_stair_optimal_lattices():
    best_cover = Lattice(Point(F(1, 3), F(1, 3)), Point(0, 1))
    res = selection_stair(best_cover, 1)
    assert res.stair == canonical_stair(1).scaled(F(1, 3))
    assert res.scale == 1
    best_pack = Lattice(Point(F(1, 2), F(1, 2)), Point(0, F(3, 2)))
    res = selection_stair(best_pack, 1)
    assert res.stair == canonical_stair(1).scaled(F(1, 2))


def test_selection_stair_validations_hold_generically():
    rng = random.Random(23)
    lattices = [integer_lattice(), shift_lattice(1, 1).scaled(F(1, 2)),
                shift_lattice(2, 2).scaled(F(1, 3)),
                Lattice(Point(1, 1), Point(0, 2)),
                Lattice(Point(F(1, 2), 0), Point(0, 1))]
    for lat in lattices:
        for j in (1, 2):
            res = selection_stair(lat, j)
            assert res.stair.area() == j * lat.d
            assert is_exact_jfold_tiling(res.stair, lat, j)
            assert len(res.corners) <= 2 * j - 1
            # the quadrant oracle agrees with the stair on random points
            for _ in range(40):
                p = Point(F(rng.randint(0, 24), 8), F(rng.randint(0, 24), 8))
                assert res.stair.contains(p) == selection_member(lat, j, p)


def _stair_probes(stair, extent, unit_points=()):
    """Every break and height, the column midpoints, the wall and floor
    midpoints, points 1/(4 den) past each, and scaled unit points."""
    xb, hs = stair.x_breaks, stair.heights
    e = F(1, 4 * lcm(*(v.denominator for v in xb + hs)))
    xs = list(xb) + [(a + b) / 2 for a, b in zip(xb, xb[1:])]
    ys = [F(0)] + list(hs) + [h / 2 for h in hs]
    probes = [Point(x + d, y + d) for x in xs for y in ys for d in (0, e)]
    probes += [Point(extent * u, extent * v) for u, v in unit_points]
    return probes


@settings(max_examples=60, deadline=None)
@given(skewed_lattices(), hyp.sampled_from([1, 2]),
       hyp.lists(hyp.tuples(hyp.fractions(0, 1, max_denominator=16),
                            hyp.fractions(0, 1, max_denominator=16)),
                 max_size=8))
@example(Lattice(Point(1, F(1, 10)), Point(F(-1, 10), 1)), 2, [])
def test_selection_stair_matches_selection_member(lat, j, unit_points):
    x1, _, y2 = lat.canonical_key()
    assume(y2 <= 4 * x1 and x1 <= 4 * y2)
    res = selection_stair(lat, j)
    for p in _stair_probes(res.stair, res.scale, unit_points):
        assert res.stair.contains(p) == selection_member(lat, j, p)


@settings(max_examples=40, deadline=None)
@given(hyp.one_of(skewed_lattices(), hyp.integers(2, 300).map(near_rotation)),
       hyp.sampled_from([1, 2, 3]))
@example(near_rotation(300), 3)
def test_quadrant_stair_against_the_oracle(lat, j):
    den = lat.den
    breaks, heights = scales.quadrant_stair(lat.int_key(den), j)
    xs = [F(x, den) for x in breaks]
    hs = [F(h, den) for h in heights]
    stair = selection_stair(lat, j).stair
    assert (stair.x_breaks, stair.heights) == (tuple(xs), tuple(hs))
    assert stair.area() == j * lat.d
    assert stair.r <= 2 * j - 1
    for p in _stair_probes(stair, 0):
        assert stair.contains(p) == selection_member(lat, j, p)
    # both certified critical scales sit on P's corners
    outer = max(x + h for x, h in zip(xs[1:], hs))
    inner = min([hs[0], xs[-1]] + [x + h for x, h in zip(xs[1:], hs[1:])])
    assert lambda_lower(lat, j).value == outer
    assert lambda_upper(lat, j).value == inner


def test_selection_stair_evaluates_no_predicate(monkeypatch):
    # the stair is built from P and proven by its tiling check and one
    # witness point; no triangle predicate and no lambda_lower runs
    calls = []
    for name in ("covering_predicate", "packing_predicate", "lambda_lower"):
        def counted(*args, real=getattr(scales, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(scales, name, counted)
    for lat in (integer_lattice(), near_rotation(10),
                Lattice(Point(F(2, 5), F(1, 7)), Point(F(-1, 3), F(3, 4)))):
        for j in (1, 2):
            selection_stair(lat, j)
    assert calls == []


@pytest.mark.parametrize("lat", [integer_lattice(), near_rotation(10),
                                 shift_lattice(2, 2).scaled(F(1, 3))],
                         ids=["Z2", "near-rotation-10", "shift-2-2"])
@pytest.mark.parametrize("j", [1, 2])
def test_a_raised_outer_corner_is_refused(monkeypatch, lat, j):
    real = scales.quadrant_stair

    def raised(key, j):
        breaks, heights = real(key, j)
        i = max(range(len(heights)), key=lambda i: breaks[i + 1] + heights[i])
        heights = heights.copy()
        heights[i] += 1
        return breaks, heights

    monkeypatch.setattr(scales, "quadrant_stair", raised)
    with pytest.raises(SelectionStairError):
        selection_stair(lat, j)


def test_selection_stairs_are_frozen():
    # the digest was taken from the construction that swept every
    # abscissa where two competitors' walls or hypotenuses could cross
    lats = [integer_lattice(), Lattice(Point(F(1, 3), F(1, 3)), Point(0, 1))]
    for j in (1, 2):
        lats += (optimal_packing_lattices(j, verify=False)
                 + optimal_covering_lattices(j, verify=False))
    lats += [Lattice(Point(*u1), Point(*u2)) for u1, u2 in GENERIC_BASES]
    lats.append(Lattice(Point(1, F(1, 10)), Point(F(-1, 10), 1)))
    digest = hashlib.sha256()
    for lat in lats:
        for j in (1, 2):
            digest.update(json.dumps(selection_stair(lat, j).to_json())
                          .encode())
    assert digest.hexdigest() == ("6afb67816c879972073b45c2bbaef63f"
                                  "9ccab15dde5ce36b07a84b2a85964eb4")


def test_sj_nesting_and_downward_closure():
    rng = random.Random(31)
    lat = shift_lattice(1, 1).scaled(F(1, 3))
    stairs = {j: selection_stair(lat, j).stair for j in (1, 2, 3)}
    for j in (1, 2):
        inner, outer = stairs[j], stairs[j + 1]
        rep = layer_extrema(lat, outer, inner)
        assert (rep.min_mult, rep.max_mult) == (1, 1)
        for _ in range(200):
            p = Point(F(rng.randint(0, 30), 9), F(rng.randint(0, 30), 9))
            if inner.contains(p):
                assert outer.contains(p)
        # downward closure of each layer
        for s in (inner, outer):
            for _ in range(100):
                p = Point(F(rng.randint(0, 30), 9), F(rng.randint(0, 30), 9))
                if not s.contains(p):
                    continue
                assert s.contains(Point(p.x * F(rng.randint(0, 8), 8), p.y))
                assert s.contains(Point(p.x, p.y * F(rng.randint(0, 8), 8)))


def test_sj_sandwiched_between_critical_triangles():
    from stairtile import ScaledTriangle, lambda_lower, lambda_upper
    rng = random.Random(47)
    for lat in (integer_lattice(), shift_lattice(1, 1).scaled(F(1, 3)),
                Lattice(Point(1, 1), Point(0, 2))):
        for j in (1, 2):
            res = selection_stair(lat, j)
            upper = ScaledTriangle(lambda_upper(lat, j).value)
            lower = ScaledTriangle(res.scale)
            assert res.scale == lambda_lower(lat, j).value
            bb = res.stair.bbox()
            for _ in range(150):
                p = Point(bb.x_max * F(rng.randint(0, 32), 32),
                          bb.y_max * F(rng.randint(0, 32), 32))
                if upper.contains_interior(p):
                    assert res.stair.contains(p)
                if res.stair.contains(p):
                    assert lower.contains_closed(p)


def test_verify_stair_tiling_forward():
    assert verify_stair_tiling_forward(1) == [(1, True), (2, False), (3, False)]
    got = dict(verify_stair_tiling_forward(2))
    assert [m for m, ok in got.items() if ok] == [1, 2, 3]
    got = dict(verify_stair_tiling_forward(4))
    assert [m for m, ok in got.items() if ok] == [1, 4, 7]
    # 2j+1 = 25 and 35 add composite moduli besides 9
    for j in (1, 2, 3, 4, 12, 17):
        n = 2 * j + 1
        for m, ok in verify_stair_tiling_forward(j):
            assert ok == (gcd(m, n) == 1 and gcd(m + 1, n) == 1)


def test_verify_stair_tiling_converse():
    assert verify_stair_tiling_converse(1, 1) == [shift_lattice(1, 1)]
    assert verify_stair_tiling_converse(1, 2) == [shift_lattice(1, 1)]
    got = set(verify_stair_tiling_converse(2, 2))
    assert got == {shift_lattice(m, 2) for m in (1, 2, 3)}


def test_converse_refuses_j_below_one():
    # with no cell corners to place, every lattice would pass; the
    # admissible shifts, the family it should find, are refused alike
    for j in (0, -1):
        with pytest.raises(ValueError, match="need j >= 1"):
            verify_stair_tiling_converse(j, 2)
        with pytest.raises(ValueError, match="need j >= 1"):
            admissible_shifts(j)


def coset_verdict(j, q, a, b, c):
    return stairs._rows_cover_exactly(stairs._grid_columns(j, q), j,
                                      (a, b, c))


def sweep_verdict(j, q, a, b, c):
    lat = Lattice(Point(F(a, q), F(b, q)), Point(0, F(c, q)))
    return is_exact_jfold_tiling(canonical_stair(j), lat, j)


def test_grid_columns_are_the_grid_points_of_the_stair():
    # the half open stair's points on the 1/q grid, its far sides left out
    for j in (1, 2, 3):
        s = canonical_stair(j)
        for q in (1, 2, 3):
            corners = [(x, y) for x, h in stairs._grid_columns(j, q)
                       for y in range(h)]
            side = range(2 * j * q + 1)
            assert corners == [(x, y) for x in side for y in side
                               if s.contains(Point(F(x, q), F(y, q)))]
            assert len(corners) == j * (2 * j + 1) * q * q


def test_row_runs_match_the_sweep_on_the_converse_space():
    # every triple of the space, the ones the converse skips included
    tilers = 0
    for j in (1, 2):
        for q in (1, 2, 3):
            index = (2 * j + 1) * q * q
            for a in range(1, index + 1):
                if index % a == 0:
                    for b in range(index // a):
                        got = coset_verdict(j, q, a, b, index // a)
                        assert got == sweep_verdict(j, q, a, b, index // a)
                        tilers += got
    assert tilers > 0


@hyp.composite
def converse_triples(draw):
    j = draw(hyp.integers(1, 3))
    q = draw(hyp.integers(1, 5))
    index = (2 * j + 1) * q * q
    a = draw(hyp.sampled_from([a for a in range(1, index + 1)
                               if index % a == 0]))
    return j, q, a, draw(hyp.integers(0, index // a - 1)), index // a


@settings(max_examples=150, deadline=None)
@given(converse_triples())
@example((1, 1, 1, 1, 3))
@example((3, 5, 5, 1, 35))
def test_row_runs_match_the_sweep_on_drawn_triples(triple):
    assert coset_verdict(*triple) == sweep_verdict(*triple)


@hyp.composite
def reference_triples(draw):
    # past the sweep oracle's reach; a = 1 puts every column in one row,
    # and a = q with b a multiple of q is a shift lattice, so tilers too
    j = draw(hyp.integers(1, 4))
    q = draw(hyp.integers(1, 8))
    index = (2 * j + 1) * q * q
    a = draw(hyp.one_of(hyp.just(1), hyp.just(q), hyp.sampled_from(
        [a for a in range(1, index + 1) if index % a == 0])))
    c = index // a
    b = draw(hyp.one_of(hyp.integers(0, c - 1),
                        hyp.sampled_from(range(0, c, q))))
    return j, q, a, b, c


@settings(max_examples=300, deadline=None)
@given(reference_triples())
@example((2, 3, 3, 6, 15))
@example((4, 8, 1, 1, 576))
def test_row_runs_match_the_coset_counts(triple):
    j, q, a, b, c = triple
    assert coset_verdict(*triple) == coset_counts_reference(
        stairs._grid_columns(j, q), j, (a, b, c))


def test_row_runs_match_the_forward_check_on_shift_lattices():
    # the forward table reads row runs; the multiplicity sweep of every
    # shift_lattice(m, j) must agree with it
    for j in range(1, 17):
        got = verify_stair_tiling_forward(j)
        assert got == [(m, is_exact_jfold_tiling(
                           canonical_stair(j), shift_lattice(m, j), j))
                       for m in range(1, 2 * j + 2)]
        assert sum(ok for _, ok in got) == len(admissible_shifts(j))


def test_forward_never_reaches_the_sweep(monkeypatch, capsys):
    # the forward table, the family check of density_result, verify --m
    # and the region counts are decided in integers
    def refused(*args, **kwargs):
        raise AssertionError("the forward check reached the tiling sweep")

    names = ("is_exact_jfold_tiling", "multiplicity_extrema",
             "is_jfold_packing", "is_jfold_covering")
    for module in [m for key, m in sys.modules.items()
                   if key == "stairtile" or key.startswith("stairtile.")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    monkeypatch.setattr(Lattice, "contains", refused)
    for j in range(1, 5):
        good = admissible_shifts(j)
        assert [m for m, ok in verify_stair_tiling_forward(j) if ok] == good
        for kind in ("packing", "covering"):
            assert len(density_result(j, kind).witness_lattices) == len(good)
        for m in range(1, 2 * j + 2):
            assert run(["verify", "--stair", "Sj", "--m", str(m),
                        "--j", str(j)]) == 0
            assert capsys.readouterr().out == (
                "tiling\n" if m in good else "not a tiling\n")
    assert_region_count_digest()


def test_converse_never_reaches_the_sweep(monkeypatch):
    # each candidate is decided by its row runs; only a tiler is built
    def refused(*args, **kwargs):
        raise AssertionError("the converse reached the tiling sweep")

    names = ("is_exact_jfold_tiling", "multiplicity_extrema",
             "enumerate_integer_sublattices")
    for module in [m for key, m in sys.modules.items()
                   if key == "stairtile" or key.startswith("stairtile.")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    assert set(verify_stair_tiling_converse(2, 3)) == {
        shift_lattice(m, 2) for m in admissible_shifts(2)}


@pytest.mark.parametrize("j, q", [(1, 8), (2, 6), (3, 5)])
def test_converse_at_larger_bounds(j, q):
    family = sorted((shift_lattice(m, j) for m in admissible_shifts(j)),
                    key=Lattice.canonical_key)
    assert [lat.to_json() for lat in verify_stair_tiling_converse(j, q)] \
        == [lat.to_json() for lat in family]
