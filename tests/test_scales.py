from fractions import Fraction as F

import pytest

from stairtile import (Lattice, Point, candidate_scales, covering_predicate,
                       integer_lattice, lambda_lower, shift_lattice,
                       lambda_upper, packing_predicate)

from oracles import covering_scale_oracle, packing_scale_oracle


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


def test_lambda_upper_optimal_lattices():
    pack1 = Lattice(Point(F(1, 2), F(1, 2)), Point(0, F(3, 2)))
    assert packing_scale_oracle(pack1, 1, window=2) == 1
    assert lambda_upper(pack1, 1).value == 1
    pack2 = Lattice(Point(F(1, 4), F(1, 4)), Point(0, F(5, 4)))
    assert packing_scale_oracle(pack2, 2, window=2) == 1
    assert lambda_upper(pack2, 2).value == 1


def test_certificate_soundness_reruns():
    for lat, j in ((integer_lattice(), 1), (shift_lattice(1, 1), 2)):
        lo = lambda_lower(lat, j)
        assert covering_predicate(lat, j, lo.value) == lo.predicate_at_value
        assert covering_predicate(lat, j, lo.below_scale) == lo.predicate_below
        assert covering_predicate(lat, j, lo.above_scale) == lo.predicate_above
        up = lambda_upper(lat, j)
        assert packing_predicate(lat, j, up.value) == up.predicate_at_value
        assert packing_predicate(lat, j, up.below_scale) == up.predicate_below
        assert packing_predicate(lat, j, up.above_scale) == up.predicate_above


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
