import hashlib
import json
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

import stairtile.lattice
import stairtile.search
from stairtile import (COVERING, PACKING, CandidateGapError, Lattice, Point,
                       count_at, covering_density, covering_predicate,
                       is_jfold_covering, is_jfold_packing,
                       optimize_circumscribed_stair, optimize_inscribed_stair,
                       packing_density, packing_predicate, scales,
                       search_covering, search_packing, triangle_region)
from stairtile.lattice import _triangular
from stairtile.multiplicity import KIND_MODE
from stairtile.search import _triples, lattice_search_space


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
    (search_covering, 1, 3, 4, F(3, 2)),  # the area bound skips 19 of 33
])
def test_search_decides_each_shape_once(monkeypatch, search, j, q, c,
                                        best_value):
    # one witness per primitive shape visited, in the visiting order, and
    # one proof per best lattice
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
    assert report.space_size == len(lattice_search_space(q, c))
    shapes = sorted((a0 * c0, a0, b0, c0) for _, a0, b0, c0 in _triples(1, c)
                    if gcd(a0, b0, c0) == 1)
    # packing visits a shape while its density bound q^2/(2*a0*c0) reaches
    # the best density; covering while 2j*a0*c0 <= q^2, past which the
    # shape's stair, of area j*a0*c0, cannot fit in q*T
    visited = [(a0, b0, c0) for area, a0, b0, c0 in shapes
               if (F(q * q, 2 * area) >= best_value
                   if search is search_packing else 2 * j * area <= q * q)]
    assert [args[0] for args in witnesses] == visited
    # every case stops early, and visits a shape unless none passes
    assert len(visited) < len(shapes)
    assert (not visited) == (best_value is None)
    assert [args[0] for args in proofs] == list(report.best_lattices)


def test_the_space_size_is_counted_in_closed_form():
    # per pair (a0, c0), (c0/h)*phi(h) shapes, h = gcd(a0, c0), each with
    # its coprime scalings: the size of the listed space at every bound
    for q, c in product(range(1, 5), range(1, 13)):
        size = len(lattice_search_space(q, c))
        for search in (search_packing, search_covering):
            assert search(1, q, c).space_size == size, (search, q, c)


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
        key = lat.int_key(den)
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
            at_den = (int(corner.x * den), int(corner.y * den))
            assert stairtile.search._witness_refutes(key, j, kind, at_den,
                                                     8 * den)


@pytest.mark.parametrize("j, q, c", [(1, 2, 3), (2, 3, 4)])
@pytest.mark.parametrize("columns", [1, -1])
@pytest.mark.parametrize("search", [search_packing, search_covering])
def test_a_corner_one_column_over_is_caught(monkeypatch, search, columns,
                                            j, q, c):
    # the sweep's corner of P, moved by one canonical column (x1 at P's
    # den): its witness must fail to refute the lattice
    real_stair, real_corner = scales.quadrant_stair, scales._corner
    x1 = []

    def recorded(key, j):
        x1.append(key[0])
        return real_stair(key, j)

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
    # the search does not list the space, so it checks the bounds itself,
    # after j
    for search, q, c in ((search_packing, 0, 3), (search_covering, 3, 0)):
        with pytest.raises(ValueError, match="^bounds must be positive$"):
            search(1, q, c)
    with pytest.raises(ValueError, match="need j >= 1: 0"):
        search_packing(0, 0, 0)
    with pytest.raises(ValueError):
        lattice_search_space(0, 1)
    with pytest.raises(ValueError):
        optimize_inscribed_stair(1, 0)


def reports_digest(cases) -> str:
    cases, digest = list(cases), hashlib.sha256()
    for search in (search_packing, search_covering):
        for j, q, c in cases:
            report = search(j, q, c).to_json()
            digest.update(json.dumps(report, sort_keys=True).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def test_search_reports_are_frozen():
    # the small_sweeps grid, both kinds: every report byte for byte
    assert reports_digest(product((1, 2, 3), (1, 2, 3), (2, 3, 4))) == (
        "030cc9e69bfa6a7cd5205052ec2fd3063277c3c62ffada2f7f81772d7d957abd")
    # a larger space, where many lattices share each density level
    assert reports_digest([(2, 8, 12)]) == (
        "9d7d7d4309153b2bcc6be1edfe41af660d034b9117c7868454c4bb421a122e58")


def test_each_triple_is_its_lattice_at_den_q():
    # the identity the sweep rests on: with gcd(q, a, b, c) = 1 the lattice
    # ((a/q, b/q), (0, c/q)) has den = q and integer key (a, b, c) at q
    for q, a, b, c in _triples(8, 8):
        lat = _triangular(q, a, b, c)
        assert lat.den == q, (q, a, b, c)
        assert lat.int_key(q) == (a, b, c)


@pytest.mark.parametrize("kind", [PACKING, COVERING])
@pytest.mark.parametrize("j", [1, 2])
def test_the_sweep_matches_a_scan_by_the_predicate(j, kind):
    # every lattice of the space decided at scale 1 by the triangle
    # arrangement, which shares nothing with the quadrant stair
    predicate = packing_predicate if kind == PACKING else covering_predicate
    search = search_packing if kind == PACKING else search_covering
    sign = 1 if kind == PACKING else -1
    for q, c in product(range(1, 4), range(1, 5)):
        passing = [lat for lat in lattice_search_space(q, c)
                   if predicate(lat, j, 1)]
        best = max((sign * F(1, 2) / lat.d for lat in passing), default=None)
        report = search(j, q, c)
        if best is None:
            assert report.best_value is None, (q, c)
            continue
        assert report.best_value == sign * best, (q, c)
        assert set(report.best_lattices) == {
            lat for lat in passing if F(1, 2) / lat.d == sign * best}
        assert len(report.best_lattices) == len(set(report.best_lattices))


@pytest.mark.parametrize("search, j, q, c", [
    (search_covering, 1, 1, 2),   # no lattice passes
    (search_packing, 1, 3, 4),
])
def test_only_a_passing_lattice_is_built(monkeypatch, search, j, q, c):
    # the search decides each shape in integers and builds a Lattice for
    # the best lattices alone, by either constructor
    built = []
    real, canonical = Lattice.__init__, stairtile.lattice._canonical

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    def counted_canonical(*args):
        built.append(args)
        return canonical(*args)

    monkeypatch.setattr(Lattice, "__init__", counted)
    monkeypatch.setattr(stairtile.lattice, "_canonical", counted_canonical)
    report = search(j, q, c)
    monkeypatch.undo()
    assert len(built) == len(report.best_lattices)
    assert (report.best_value is None) == (search is search_covering)


@given(hyp.integers(1, 3), hyp.integers(1, 6), hyp.integers(1, 7),
       hyp.sampled_from([PACKING, COVERING]))
@settings(max_examples=60, deadline=None)
def test_the_shape_sweep_matches_a_scan_lattice_by_lattice(j, q, c, kind):
    # every lattice of the space decided on its own, at scale 1, by the
    # corner that _proven_stair proves on it
    space = lattice_search_space(q, c)
    sign = 1 if kind == PACKING else -1
    passing = []
    for lat in space:
        _, corner = scales._proven_stair(lat, j, kind)
        if sign * (corner.x + corner.y - 1) >= 0:
            passing.append(lat)
    report = stairtile.search._search(j, q, c, kind)
    assert report.space_size == len(space)
    if not passing:
        assert report.best_value is None and report.best_lattices == ()
        return
    best = max(sign * F(1, 2) / lat.d for lat in passing)
    assert report.best_value == sign * best
    assert len(set(report.best_lattices)) == len(report.best_lattices)
    assert set(report.best_lattices) == {
        lat for lat in passing if sign * F(1, 2) / lat.d == best}
