import hashlib
import json
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hyp

from stairtile import multiplicity, scales, search, stairs
from stairtile import (COVERING, PACKING, CandidateGapError, Lattice, Point,
                       candidate_scales, count_at, covering_predicate,
                       integer_lattice, lambda_lower, shift_lattice,
                       lambda_upper, optimal_covering_lattices,
                       optimal_packing_lattices, packing_predicate,
                       search_covering, search_packing, selection_stair,
                       triangle_region)
from stairtile.multiplicity import KIND_MODE

from oracles import (candidate_scales_reference, covering_scale_oracle,
                     packing_scale_oracle)
from test_multiplicity import GENERIC_BASES

THETA = Lattice(Point(F(1, 3), F(1, 3)), Point(0, 1))
ROADMAP_A = Lattice(Point(F(2, 5), F(1, 7)), Point(F(-1, 3), F(3, 4)))
# canonical basis (1/221, 1907/77), (0, 1013/11): a sliver 1/221 wide and
# about 92 tall
SLIVER = Lattice(Point(F(7, 13), F(3, 11)), Point(F(-2, 17), F(5, 7)))
SCALED_Z2 = [F(3, 2), F(5, 3), F(7, 4), F(9, 5), F(13, 7)]


def near_rotation(n: int) -> Lattice:
    """The basis (1, 1/n), (-1/n, 1): Z^2 up to O(1/n), with a canonical
    rectangle 1/n wide and about n tall."""
    return Lattice(Point(1, F(1, n)), Point(F(-1, n), 1))


def proven_scale(lat: Lattice, j: int, kind: str) -> tuple[F, Point]:
    """The kind's critical scale and the corner of P that sets it, as
    ``scales._proven_stair`` proves them."""
    _, corner = scales._proven_stair(lat, j, kind)
    return corner.x + corner.y, corner


def test_candidate_scales_examples():
    cands = candidate_scales(integer_lattice(), 3)
    assert F(1) in cands and F(2) in cands
    third = shift_lattice(1, 1).scaled(F(1, 3))
    assert F(1) in candidate_scales(third, 2)
    for lat in (integer_lattice(), shift_lattice(2, 1), third):
        cs = candidate_scales(lat, 2)
        assert all(v > 0 for v in cs)
        assert all(a < b for a, b in zip(cs, cs[1:]))
    with pytest.raises(ValueError):
        candidate_scales(integer_lattice(), 0)


@hyp.composite
def skewed_lattices(draw):
    """A random lattice, given through a random unimodular change of its
    canonical basis ((x1, y1), (0, y2))."""
    x1 = draw(hyp.fractions(F(1, 4), 2, max_denominator=30))
    y2 = draw(hyp.fractions(F(1, 4), 2, max_denominator=30))
    y1 = draw(hyp.fractions(0, y2, max_denominator=30))
    assume(y1 < y2)
    a, b, c, d = 1, 0, 0, 1
    for k in draw(hyp.lists(hyp.integers(-3, 3), min_size=1, max_size=3)):
        # left multiplication by [[0, 1], [1, k]], of determinant -1
        a, b, c, d = c, d, a + k * c, b + k * d
    u1, u2 = Point(x1, y1), Point(0, y2)
    return Lattice(u1.scaled(a) + u2.scaled(b), u1.scaled(c) + u2.scaled(d))


@settings(max_examples=60, deadline=None)
@given(skewed_lattices(), hyp.sampled_from([F(1, 3), 1, 2, F(7, 2)]))
# l_max a candidate only through x + (y - s) with x the leftmost column
@example(Lattice(Point(F(3, 8), F(1, 3)), Point(0, F(4, 3))), F(1, 3))
@example(Lattice(Point(F(8, 5), F(1, 2)), Point(0, F(3, 2))), F(1, 2))
# a candidate only through a point on the top edge of the window
@example(Lattice(Point(F(7, 8), F(1, 18)), Point(0, F(1, 3))), F(1, 3))
def test_candidate_scales_match_reference(lat, l_max):
    x1, y1, y2 = lat.canonical_key()
    # about the number of window points, which the reference pays for
    # cubed
    assume((x1 + 2 * l_max) * (y1 + y2 + 2 * l_max) <= 60 * x1 * y2)
    assert candidate_scales(lat, l_max) == candidate_scales_reference(lat,
                                                                      l_max)


def test_candidate_scales_with_few_pairs_for_their_range():
    # a huge common denominator and few window points: the sums are
    # collected as sets, not as bitmasks over the scaled range
    p, q = 2**31 - 1, 2**31 - 19
    lat = Lattice(Point(1 + F(1, p), F(1, 3)), Point(0, 1 - F(1, q)))
    reference = candidate_scales_reference(lat, 2)
    assert candidate_scales(lat, 2) == reference
    # l_max itself a candidate of each form: x-, y- and sum-difference
    for l_max in (1 + F(1, p), 1 - F(1, q), reference[-1]):
        assert candidate_scales(lat, l_max) == \
            candidate_scales_reference(lat, l_max)
    # four window points and one candidate, 1/den = l_max
    lat = Lattice(Point(1, F(1, 1000)), Point(0, 1))
    assert candidate_scales(lat, F(1, 1000)) == \
        candidate_scales_reference(lat, F(1, 1000)) == [F(1, 1000)]


def test_lambda_on_the_sliver_basis():
    # the sliver's candidate set at l_max = 2 has 34,034 values
    lat = SLIVER
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        cert = lambda_lower(lat, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    # covering_scale_oracle(lat, 1, window=2) gives 114/91 but takes
    # seconds; the value is frozen from it
    assert cert.value == F(114, 91)
    # the candidate mask is read in place: no list of the candidates, as
    # Python ints (1.75 MB) or as Fractions (4.7 MB), is built
    assert peak < 1_000_000
    assert lambda_upper(lat, 1).value == F(145, 221) == \
        packing_scale_oracle(lat, 1, window=1)


def test_lambda_lower_z2():
    # brute-force corner oracle agrees with the frozen value 2
    assert covering_scale_oracle(integer_lattice(), 1, window=3) == 2
    cert = lambda_lower(integer_lattice(), 1)
    assert cert.value == 2
    assert cert.predicate_at_value and not cert.predicate_below


def test_lambda_lower_optimal_lattices():
    cover1 = Lattice(Point(F(1, 3), F(1, 3)), Point(0, 1))
    assert covering_scale_oracle(cover1, 1, window=2) == 1
    assert lambda_lower(cover1, 1).value == 1
    cover2 = Lattice(Point(F(1, 5), F(1, 5)), Point(0, 1))
    assert covering_scale_oracle(cover2, 2, window=2) == 1
    assert lambda_lower(cover2, 2).value == 1


def test_lambda_upper_z2():
    assert packing_scale_oracle(integer_lattice(), 1, window=2) == 1
    cert = lambda_upper(integer_lattice(), 1)
    assert cert.value == 1
    assert cert.predicate_at_value and not cert.predicate_above


def test_lambda_upper_probes_on_a_skewed_basis():
    # the probes are midpoints to the neighbouring candidates of a
    # candidate set cut short by the search window
    lat = Lattice(Point(0, F(17, 30)), Point(2, F(-11, 15)))
    cert = lambda_upper(lat, 1)
    assert (cert.value, cert.below_scale, cert.above_scale) == (
        F(17, 30), F(1, 2), F(19, 30))
    assert cert.predicate_below and not cert.predicate_above


@pytest.mark.parametrize("c", SCALED_Z2)
@pytest.mark.parametrize("j", [1, 2])
def test_lambda_upper_at_the_last_candidate_below_l_max(c, j):
    # the packing scale c is the last candidate below l_max = 2, where
    # packing fails; the search used to find no failing candidate
    lat = integer_lattice().scaled(c)
    cert = lambda_upper(lat, j)
    assert cert.value == c == packing_scale_oracle(lat, j, window=2)
    assert (cert.below_scale, cert.above_scale) == (c / 2, (c + 2) / 2)
    assert cert.predicate_below and not cert.predicate_above


def assert_neighbouring_probes(lat, j, fn):
    """The probes of fn(lat, j) are the midpoints to the value's neighbours
    in ``candidate_scales`` up to l_max, the smallest power of two >= 1
    where covering holds or packing fails, which packing appends."""
    covering = fn is lambda_lower
    cert = fn(lat, j)
    value = cert.value
    l_max = 1
    while l_max < value or (not covering and l_max == value):
        l_max *= 2
    cands = candidate_scales(lat, l_max)
    if not covering and cands[-1] != l_max:
        cands.append(F(l_max))
    i = cands.index(value)
    assert cert.below_scale == ((value + cands[i - 1]) / 2 if i
                                else value / 2)
    assert cert.above_scale == ((value + cands[i + 1]) / 2
                                if i + 1 < len(cands) else value + F(1, 2))
    return cert, l_max


@settings(max_examples=60, deadline=None)
@given(skewed_lattices(), hyp.sampled_from([1, 2, 3]))
def test_probes_are_the_neighbouring_candidates(lat, j):
    for fn in (lambda_lower, lambda_upper):
        assert_neighbouring_probes(lat, j, fn)


# a huge common denominator and few window points: the set branch
WIDE_DEN = Lattice(Point(1 + F(1, 2**31 - 1), F(1, 3)),
                   Point(0, 1 - F(1, 2**31 - 19)))


@pytest.mark.parametrize("lat, j, fn, probes, sparse", [
    # the packing scale 3/2 is the smallest candidate, and the next is
    # l_max = 2, appended
    (integer_lattice().scaled(F(3, 2)), 1, lambda_upper, (F(3, 4), F(7, 4)),
     False),
    # the covering scale 2 is l_max itself, the last candidate
    (integer_lattice(), 1, lambda_lower, (F(3, 2), F(5, 2)), False),
    (ROADMAP_A, 2, lambda_lower, None, False),
    (WIDE_DEN, 1, lambda_lower, None, True),
    (WIDE_DEN, 2, lambda_upper, None, True)],
    ids=["smallest-and-appended", "value-is-l_max", "roadmap-a",
         "set-covering", "set-packing"])
def test_probes_at_the_ends_and_in_each_branch(lat, j, fn, probes, sparse):
    cert, l_max = assert_neighbouring_probes(lat, j, fn)
    if probes:
        assert (cert.below_scale, cert.above_scale) == probes
    _, found = scales._scaled_candidates(lat, F(l_max))
    assert isinstance(found, list) == sparse


def test_no_scale_lists_its_candidates(monkeypatch):
    # the certificates place their probes by bit arithmetic on the mask
    def refused(*args, **kwargs):
        raise AssertionError("the candidate set was listed")

    monkeypatch.setattr(scales, "_bit_values", refused)
    for lat in (SLIVER, ROADMAP_A, THETA, near_rotation(10)):
        for j in (1, 2):
            lambda_lower(lat, j)
            lambda_upper(lat, j)
            selection_stair(lat, j)


@settings(max_examples=100, deadline=None)
@given(skewed_lattices(), hyp.sampled_from([1, 2, 3]))
@example(integer_lattice().scaled(F(13, 7)), 1)
def test_scales_match_the_oracles(lat, j):
    x1, _, y2 = lat.canonical_key()
    # the canonical aspect bounds the points in the oracles' windows
    assume(y2 <= 4 * x1 and x1 <= 4 * y2)
    # [0, x1) x [0, j*y2) covers j-fold and lies in the triangle of side
    # x1 + j*y2, which is thus a window past the covering scale
    lower, _ = proven_scale(lat, j, COVERING)
    assert lower == covering_scale_oracle(lat, j, window=x1 + j * y2)
    # a window narrower than the packing scale can only raise the oracle's
    # minimum, so a wrong value of either sign fails this
    upper, _ = proven_scale(lat, j, PACKING)
    assert upper == packing_scale_oracle(lat, j, window=upper)
    if j <= 2:
        assert lambda_lower(lat, j).value == lower
        assert lambda_upper(lat, j).value == upper


def test_lambda_upper_optimal_lattices():
    pack1 = Lattice(Point(F(1, 2), F(1, 2)), Point(0, F(3, 2)))
    assert packing_scale_oracle(pack1, 1, window=2) == 1
    assert lambda_upper(pack1, 1).value == 1
    pack2 = Lattice(Point(F(1, 4), F(1, 4)), Point(0, F(5, 4)))
    assert packing_scale_oracle(pack2, 2, window=2) == 1
    assert lambda_upper(pack2, 2).value == 1


@settings(max_examples=40, deadline=None)
@given(hyp.one_of(skewed_lattices(), hyp.integers(2, 300).map(near_rotation)),
       hyp.sampled_from([1, 2, 3]))
@example(integer_lattice(), 1)
@example(shift_lattice(1, 1), 2)
def test_certificate_soundness_reruns(lat, j):
    # every boolean of a certificate, proven from the quadrant stair,
    # agrees with the triangle predicate at its scale
    for fn, predicate in ((lambda_lower, covering_predicate),
                          (lambda_upper, packing_predicate)):
        cert = fn(lat, j)
        for scale, recorded in ((cert.value, cert.predicate_at_value),
                                (cert.below_scale, cert.predicate_below),
                                (cert.above_scale, cert.predicate_above)):
            assert predicate(lat, j, scale) == recorded, (fn, scale)


def test_scaling_covariance():
    lat = shift_lattice(1, 1)
    for c in (F(1, 2), F(1, 3), F(2)):
        scaled = lat.scaled(c)
        assert lambda_lower(scaled, 1).value == c * lambda_lower(lat, 1).value
        assert lambda_upper(scaled, 1).value == c * lambda_upper(lat, 1).value


def test_monotonicity_in_j():
    for lat in (integer_lattice(), shift_lattice(2, 1).scaled(F(1, 2))):
        lowers = [lambda_lower(lat, j).value for j in (1, 2, 3)]
        uppers = [lambda_upper(lat, j).value for j in (1, 2, 3)]
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers)


def test_packing_scale_never_exceeds_covering_scale():
    for lat in (integer_lattice(), shift_lattice(1, 1), shift_lattice(3, 2)):
        for j in (1, 2):
            assert lambda_upper(lat, j).value <= lambda_lower(lat, j).value


def test_area_sandwich_at_optimal_lattices():
    # packing: (lambda^j)^2/2 <= j*d; covering: (lambda_j)^2/2 >= j*d
    for j in (1, 2):
        cover_lat = Lattice(Point(F(1, 2 * j + 1), F(1, 2 * j + 1)), Point(0, 1))
        lam = lambda_lower(cover_lat, j).value
        assert lam * lam / 2 >= j * cover_lat.d
        pack_lat = Lattice(Point(F(1, 2 * j), F(1, 2 * j)),
                        Point(0, F(2 * j + 1, 2 * j)))
        lam = lambda_upper(pack_lat, j).value
        assert lam * lam / 2 <= j * pack_lat.d


def test_scale_certificates_are_frozen():
    # the digest was taken from the candidate search that doubled l_max
    # and bisected the candidates with the predicate
    lats = [integer_lattice(), THETA]
    for j in (1, 2):
        lats += (optimal_packing_lattices(j, verify=False)
                 + optimal_covering_lattices(j, verify=False))
    lats += [Lattice(Point(*u1), Point(*u2)) for u1, u2 in GENERIC_BASES]
    lats += [ROADMAP_A, near_rotation(10), near_rotation(100)]
    lats += [integer_lattice().scaled(c) for c in SCALED_Z2]
    cases = [(lat, j) for lat in lats for j in (1, 2)] + [(SLIVER, 1)]
    digest = hashlib.sha256()
    for lat, j in cases:
        for fn in (lambda_lower, lambda_upper):
            digest.update(json.dumps(fn(lat, j).to_json()).encode())
    assert digest.hexdigest() == ("f01d78d21b95b4987cc51d4f0b987645"
                                  "ccd64b0bb25744a269ae895fae7903fa")


@pytest.mark.parametrize("lat", [integer_lattice(), THETA, ROADMAP_A, SLIVER],
                         ids=["Z2", "theta", "roadmap-a", "sliver"])
@pytest.mark.parametrize("j", [1, 2])
def test_three_predicate_evaluations_per_scale(monkeypatch, lat, j):
    # the three recorded booleans come from the quadrant stair, not from a
    # triangle predicate: one proven stair at the value, one witness across
    # the flip, and monotonicity on the other side
    calls = []
    for name in ("covering_predicate", "packing_predicate", "_proven_stair",
                 "_witness_refutes"):
        def counted(*args, real=getattr(scales, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(scales, name, counted)
    for fn in (lambda_lower, lambda_upper):
        calls.clear()
        fn(lat, j)
        assert calls == ["_proven_stair", "_witness_refutes"]


def test_no_verdict_reaches_the_triangle_predicates(monkeypatch):
    # lambda, sj and search verdicts are all proven from the quadrant stair
    # alone; the triangle predicates and their arrangement are never built
    def refused(*args, **kwargs):
        raise AssertionError("a triangle predicate was evaluated")

    for module in (scales, multiplicity, search, stairs):
        for name in ("covering_predicate", "packing_predicate",
                     "is_jfold_packing", "is_jfold_covering",
                     "_triangle_faces"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    for lat in (integer_lattice(), THETA, ROADMAP_A, near_rotation(10)):
        for j in (1, 2):
            lambda_lower(lat, j)
            lambda_upper(lat, j)
            selection_stair(lat, j)
    for j in (1, 2):
        search_packing(j, 2 * j, 2 * j + 1)
        search_covering(j, 2 * j + 1, 2 * j + 1)


@pytest.mark.parametrize("lat", [integer_lattice(), ROADMAP_A],
                         ids=["Z2", "roadmap-a"])
@pytest.mark.parametrize("fn", [lambda_lower, lambda_upper])
def test_a_wrong_corner_scale_fails_its_certificate(monkeypatch, lat, fn):
    value = fn(lat, 1).value
    cands = candidate_scales(lat, 2 * value + 1)
    i = cands.index(value)
    # the neighbouring candidates, and a scale between two candidates,
    # given as the sum of P's corner, in units of 1/den
    wrong = cands[max(i - 1, 0):i] + [cands[i + 1],
                                      (value + cands[i + 1]) / 2]
    den = lat.den
    for scale in wrong:
        monkeypatch.setattr(scales, "_corner",
                            lambda xs, hs, kind: (0, scale * den))
        with pytest.raises(CandidateGapError):
            fn(lat, 1)


@pytest.mark.parametrize("lat", [integer_lattice(), THETA, ROADMAP_A,
                                 near_rotation(10)],
                         ids=["Z2", "theta", "roadmap-a", "near-rotation-10"])
@pytest.mark.parametrize("j", [1, 2])
def test_a_raised_stair_height_fails_the_certificate(monkeypatch, lat, j):
    real = scales.quadrant_stair

    def raised(lat, j):
        den, breaks, heights = real(lat, j)
        return den, breaks, heights[:-1] + [heights[-1] + 1]

    monkeypatch.setattr(scales, "quadrant_stair", raised)
    for fn in (lambda_lower, lambda_upper):
        with pytest.raises(CandidateGapError):
            fn(lat, j)


@settings(max_examples=60, deadline=None)
@given(hyp.one_of(skewed_lattices(), hyp.integers(2, 300).map(near_rotation)),
       hyp.sampled_from([1, 2, 3]), hyp.sampled_from([COVERING, PACKING]))
def test_the_corner_proves_the_probe_across_the_flip(lat, j, kind):
    # at the probe value -+ 1/(2 den) the point next to the corner lies in
    # fewer than j closed (more than j open) translates, by count_at
    value, corner = proven_scale(lat, j, kind)
    den = lat.den
    step = -1 if kind == COVERING else 1
    probe = value + F(step, 2 * den)
    e = F(step, 8 * den)
    count = count_at(lat, triangle_region(probe, KIND_MODE[kind]),
                     corner + Point(e, e))
    assert count < j if kind == COVERING else count > j


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_near_rotation_ladder(n):
    # Z^2 up to O(1/n), though its canonical rectangle is 1/n wide
    lat = near_rotation(n)
    assert lambda_lower(lat, 1).value == 2
    assert lambda_upper(lat, 1).value == 1


@pytest.mark.parametrize("lat", [THETA, ROADMAP_A, SLIVER, near_rotation(100),
                                 shift_lattice(2, 3).scaled(F(1, 3))],
                         ids=["theta", "roadmap-a", "sliver",
                              "near-rotation-100", "shift-2-3"])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_the_corner_counts_refuse_a_raised_or_cut_stair(lat, j):
    # the 2c + 1 counts accept P and refuse P with any one height raised by
    # 1/den, or with its last column dropped, whatever the area check says
    den, breaks, heights = scales.quadrant_stair(lat, j)
    key = lat.int_key(den)
    assert scales._is_first_j(key, j, breaks, heights)
    for i in range(len(heights)):
        raised = heights.copy()
        raised[i] += 1
        assert not scales._is_first_j(key, j, breaks, raised), i
    if len(heights) > 1:
        assert not scales._is_first_j(key, j, breaks[:-1], heights[:-1])


def test_no_proof_reaches_the_tiling_sweep(monkeypatch):
    # P is proven by corner counts: the half-open grid and its exact
    # tiling check never run under lambda, sj or a search
    def refused(*args, **kwargs):
        raise AssertionError("the half-open tiling sweep ran")

    for module in (scales, multiplicity, search, stairs):
        for name in ("is_exact_jfold_tiling", "_halfopen_grid"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    for lat in (integer_lattice(), THETA, SLIVER, near_rotation(1000)):
        for j in (1, 2):
            for kind in (COVERING, PACKING):
                scales._proven_stair(lat, j, kind)
            lambda_lower(lat, j)
            lambda_upper(lat, j)
            selection_stair(lat, j)
    for j in (1, 2):
        search_packing(j, 2 * j, 2 * j + 1)
        search_covering(j, 2 * j + 1, 2 * j + 1)


def transposed(lat: Lattice) -> Lattice:
    """The lattice with its two coordinates swapped."""
    return Lattice(Point(lat.u1.y, lat.u1.x), Point(lat.u2.y, lat.u2.x))


def assert_metamorphic(lat, j, c, unimodular):
    # swapping coordinates keeps both scales, though ties in the order
    # break the other way, so P itself may change; scaling by c > 0
    # scales P and its corner; a change of basis keeps both
    a, b, cc, d = unimodular
    other = Lattice(lat.u1.scaled(a) + lat.u2.scaled(b),
                    lat.u1.scaled(cc) + lat.u2.scaled(d))
    for kind in (COVERING, PACKING):
        stair, corner = scales._proven_stair(lat, j, kind)
        value = corner.x + corner.y
        # the proven corner is the one the search reads off P in integers
        den, breaks, heights = scales.quadrant_stair(lat, j)
        x, y = scales._corner(breaks, heights, kind)
        assert corner == Point(F(x, den), F(y, den))
        _, flipped = scales._proven_stair(transposed(lat), j, kind)
        assert flipped.x + flipped.y == value, (kind, "transposed")
        scaled = scales._proven_stair(lat.scaled(c), j, kind)
        assert scaled == (stair.scaled(c), corner.scaled(c)), (kind, c)
        assert proven_scale(lat.scaled(c), j, kind)[0] == c * value
        assert scales._proven_stair(other, j, kind) == (stair, corner)


@hyp.composite
def unimodular(draw):
    """An integer matrix (a, b, c, d) of determinant +-1."""
    a, b, c, d = 1, 0, 0, 1
    for k in draw(hyp.lists(hyp.integers(-3, 3), min_size=1, max_size=4)):
        a, b, c, d = c, d, a + k * c, b + k * d
    return a, b, c, d


@pytest.mark.parametrize("lat, j", [
    (integer_lattice(), 1), (integer_lattice(), 3),
    *((shift_lattice(m, j), j) for j in range(1, 5)
      for m in range(1, 2 * j + 2)),
    (near_rotation(10), 2), (near_rotation(1000), 1),
    (near_rotation(10**4), 1)])
def test_scales_are_metamorphic_on_the_families(lat, j):
    assert_metamorphic(lat, j, F(5, 3), (2, 1, 1, 1))


@settings(max_examples=150, deadline=None)
@given(hyp.integers(1, 6).flatmap(lambda q: hyp.tuples(
           *[hyp.integers(-6, 6).map(lambda v, q=q: F(v, q))] * 4)),
       hyp.sampled_from([1, 2, 3]),
       hyp.sampled_from([F(2), F(1, 3), F(7, 5), F(11, 4)]), unimodular())
def test_scales_are_metamorphic_on_random_bases(coords, j, c, matrix):
    x1, y1, x2, y2 = coords
    assume(x1 * y2 != y1 * x2)
    assert_metamorphic(Lattice(Point(x1, y1), Point(x2, y2)), j, c, matrix)
