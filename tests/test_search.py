import hashlib
import json
from fractions import Fraction as F
from itertools import product

import pytest

import stairtile.search
from stairtile import (COVERING, PACKING, CandidateGapError, Lattice, Point,
                       count_at, covering_density, is_jfold_covering,
                       is_jfold_packing, lattice_search_space,
                       optimize_circumscribed_stair, optimize_inscribed_stair,
                       packing_density, scales, search_covering,
                       search_packing, triangle_region)
from stairtile.multiplicity import KIND_MODE


def test_search_space_is_deduplicated():
    space = lattice_search_space(2, 2)
    assert len(set(space)) == len(space)
    assert Lattice(Point(1, 0), Point(0, 1)) in space


def test_search_packing_examples():
    report = search_packing(1, 2, 3)
    assert report.best_value == F(2, 3)
    best_pack = Lattice(Point(F(1, 2), F(1, 2)), Point(0, F(3, 2)))
    assert best_pack in report.best_lattices
    integer_only = search_packing(1, 1, 3)
    assert integer_only.best_value is not None
    assert integer_only.best_value <= F(2, 3)


def test_search_covering_examples():
    report = search_covering(1, 3, 3)
    assert report.best_value == F(3, 2)
    best_cover = Lattice(Point(F(1, 3), F(1, 3)), Point(0, 1))
    assert best_cover in report.best_lattices
    # integer lattices are too sparse for the unit triangle to cover, so
    # the bound "never below 3/2" holds vacuously
    small = search_covering(1, 1, 2)
    assert small.best_value is None or small.best_value >= F(3, 2)


def test_search_never_beats_closed_forms():
    for j in (1, 2):
        pack = search_packing(j, 2 * j, 2 * j + 1)
        assert pack.best_value is not None
        assert pack.best_value <= packing_density(j)
        cover = search_covering(j, 2 * j + 1, 2 * j + 1)
        assert cover.best_value is not None
        assert cover.best_value >= covering_density(j)


@pytest.mark.parametrize("search, j, q, c, best_value", [
    (search_packing, 1, 3, 4, F(2, 3)),
    (search_covering, 2, 3, 4, F(9, 2)),
    (search_covering, 1, 1, 2, None),   # no lattice passes
])
def test_search_tests_only_lattices_at_least_as_good(monkeypatch, search,
                                                     j, q, c, best_value):
    # the corner formula decides each visited lattice: the quadrant stair
    # is proven on each pass, the witness checked on each failure
    proofs, witnesses = [], []
    for name, calls in (("_proven_stair", proofs),
                        ("_witness_refutes", witnesses)):
        real = getattr(stairtile.search, name)
        monkeypatch.setattr(
            stairtile.search, name,
            lambda *args, real=real, calls=calls:
                calls.append(args) or real(*args))
    report = search(j, q, c)
    assert report.best_value == best_value
    space = lattice_search_space(q, c)
    assert report.space_size == len(space)
    sign = 1 if search is search_packing else -1
    expected = len(space) if best_value is None else sum(
        sign * F(1, 2) / abs(lat.det) >= sign * best_value for lat in space)
    assert len(proofs) == len(report.best_lattices)
    assert len(proofs) + len(witnesses) == expected
    # the packing sweep stops early; in these covering spaces only the
    # densest lattice passes, or none does, so every lattice is visited
    assert (expected < len(space)) == (search is search_packing)


@pytest.mark.parametrize("kind", [PACKING, COVERING])
def test_corner_formula_agrees_with_the_predicate(kind):
    # every lattice of a small space, j = 1..4: the verdict at scale 1 of
    # the corner that _proven_stair proves is the predicate's, and each
    # refuting witness is confirmed by the independent point oracle
    region = triangle_region(1, KIND_MODE[kind])
    predicate = is_jfold_packing if kind == PACKING else is_jfold_covering
    step = 1 if kind == PACKING else -1
    for lat in lattice_search_space(4, 5):
        den = lat.den
        e = F(step, 8 * den)
        for j in range(1, 5):
            _, corner = scales._proven_stair(lat, j, kind)
            scale = corner.x + corner.y
            passes = scale >= 1 if kind == PACKING else scale <= 1
            assert passes == predicate(region, lat, j), (lat, j)
            if passes:
                continue
            count = count_at(lat, region, corner + Point(e, e))
            assert count > j if kind == PACKING else count < j, (lat, j)
            assert stairtile.search._witness_refutes(lat, j, kind, corner)


@pytest.mark.parametrize("j, q, c", [(1, 2, 3), (2, 3, 4)])
@pytest.mark.parametrize("columns", [1, -1])
@pytest.mark.parametrize("search", [search_packing, search_covering])
def test_a_corner_one_column_over_is_caught(monkeypatch, search, columns,
                                            j, q, c):
    # the sweep's corner of P, moved by one canonical column (x1 at P's
    # den): its witness must fail to refute the lattice
    real_stair, real_corner = scales.quadrant_stair, scales._corner
    x1 = []

    def recorded(lat, j):
        den, breaks, heights = real_stair(lat, j)
        x1.append(lat.int_key(den)[0])
        return den, breaks, heights

    def moved(xs, hs, kind):
        x, y = real_corner(xs, hs, kind)
        return x + columns * x1[-1], y

    monkeypatch.setattr(stairtile.search, "quadrant_stair", recorded)
    monkeypatch.setattr(stairtile.search, "_corner", moved)
    with pytest.raises(CandidateGapError, match="witness"):
        search(j, q, c)


def test_optimize_inscribed_examples():
    for j in (1, 2):
        res = optimize_inscribed_stair(j, 10_000)
        assert abs(res.value - float(res.target)) < 1e-6
        assert res.target == F(j, 2 * j + 1)
        assert res.max_bound_violation <= 1e-9
        assert res.snapped_area == res.target
    # even a single sweep stays inside the analytic bound
    one = optimize_inscribed_stair(1, 1)
    assert one.value <= float(one.target) + 1e-9


def test_optimize_circumscribed_examples():
    for j in (1, 2):
        res = optimize_circumscribed_stair(j, 10_000)
        assert abs(res.value - float(res.target)) < 1e-6
        assert res.target == F(2 * j + 1, 4 * j)
        assert res.max_bound_violation <= 1e-9
        assert res.snapped_area == res.target
    one = optimize_circumscribed_stair(1, 1)
    assert one.value >= float(one.target) - 1e-9


def test_optimizer_outputs_are_frozen():
    # short runs, far from converged, pin every float of the iteration
    assert optimize_inscribed_stair(2, 7, seed=3).to_json() == {
        "value": 0.39921750727968675,
        "corner_layout": [0.16462118343199014, 0.37398845395610514,
                          0.5828331580981077, 0.7914165790490538],
        "target": "2/5", "gap": 0.000782492720313277,
        "max_bound_violation": 0.0, "snapped_area": "83029/207936"}
    assert optimize_circumscribed_stair(2, 7, seed=3).to_json() == {
        "value": 0.62505059591176,
        "corner_layout": [0.24178652231511594, 0.4917865223151159,
                          0.7458932611575579],
        "target": "5/8", "gap": 5.0595911760042966e-05,
        "max_bound_violation": 0.0, "snapped_area": "2891/4624"}


def test_optimizer_layout_matches_canonical_breakpoints():
    res = optimize_inscribed_stair(2, 10_000)
    expected = [i / 5 for i in range(1, 5)]
    assert all(abs(a - b) < 1e-6
               for a, b in zip(res.corner_layout, expected))
    res = optimize_circumscribed_stair(2, 10_000)
    expected = [i / 4 for i in range(1, 4)]
    assert all(abs(a - b) < 1e-6
               for a, b in zip(res.corner_layout, expected))


def test_search_rejects_bad_bounds():
    with pytest.raises(ValueError):
        search_packing(0, 1, 1)
    with pytest.raises(ValueError):
        lattice_search_space(0, 1)
    with pytest.raises(ValueError):
        optimize_inscribed_stair(1, 0)


def test_search_reports_are_frozen():
    # the small_sweeps grid, both kinds: every report byte for byte
    digest = hashlib.sha256()
    for search in (search_packing, search_covering):
        for j, q, c in product((1, 2, 3), (1, 2, 3), (2, 3, 4)):
            report = search(j, q, c).to_json()
            digest.update(json.dumps(report, sort_keys=True).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == (
        "030cc9e69bfa6a7cd5205052ec2fd3063277c3c62ffada2f7f81772d7d957abd")
