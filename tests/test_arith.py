from math import isqrt

import pytest

from stairtile import (admissible_shifts, count_optimal_lattices, factorize,
                       phi_k, phi_k_bruteforce, verify_stair_tiling_forward)
from stairtile.arith import (BRUTEFORCE_BUDGET, TRIAL_DIVISION_BUDGET,
                             OversizeError)


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_within_its_trial_division_budget():
    big = 999_983  # the largest prime below the budget
    assert big <= TRIAL_DIVISION_BUDGET
    # a prime cofactor below the budget squared is proven prime
    assert factorize(big * big) == [(big, 2)]
    assert factorize(2**64 * 999_999_999_989) == [(2, 64),
                                                   (999_999_999_989, 1)]
    assert factorize(big * 1_000_003) == [(big, 1), (1_000_003, 1)]
    assert phi_k(2, 10**18) == 0 and phi_k(1, 10**18) == 4 * 10**17


@pytest.mark.parametrize("n", [10**18 + 3, 1_000_003 * 1_000_033,
                               2**40 * (10**18 + 3)])
def test_factorize_refuses_a_cofactor_past_its_budget(n):
    with pytest.raises(OversizeError, match=f"isqrt\\(n\\) = {isqrt(n)}"):
        factorize(n)
    with pytest.raises(ValueError):
        phi_k(1, n)


def test_phi_k_answers_a_small_factor_before_factorizing():
    # factorize refuses each n, but a factor <= k makes phi_k zero
    assert phi_k(2, 2 * (10**18 + 3)) == 0
    assert phi_k(3, 3 * 1_000_003 * 1_000_033) == 0
    assert phi_k(2, 2**40 * (10**18 + 3)) == 0
    assert phi_k(5, 5) == phi_k(5, 4) == 0 and phi_k(5, 1) == 1
    with pytest.raises(OversizeError):
        phi_k(2, 5 * (10**18 + 3))


def test_bruteforce_refuses_oversize_inputs():
    assert phi_k_bruteforce(1, BRUTEFORCE_BUDGET // 10**4) == 400
    with pytest.raises(OversizeError, match="20000038"):
        phi_k_bruteforce(2, 10_000_019)
    with pytest.raises(ValueError):
        phi_k_bruteforce(1, BRUTEFORCE_BUDGET + 1)


def test_phi_k_examples():
    assert phi_k(1, 12) == 4  # classical totient
    assert phi_k(2, 15) == 3  # 15 * (1/3) * (3/5)
    assert phi_k(3, 6) == 0   # prime factor 2 <= 3
    assert phi_k(2, 15) == phi_k_bruteforce(2, 15)


def test_phi_k_formula_matches_definition():
    for k in range(1, 5):
        for n in range(1, 1001):
            assert phi_k(k, n) == phi_k_bruteforce(k, n), (k, n)


def test_phi_k_vanishes_iff_small_prime():
    for k in range(1, 5):
        for n in range(1, 300):
            vanishes = any(p <= k for p, _ in factorize(n))
            assert (phi_k(k, n) == 0) == vanishes or n == 1
    assert phi_k(3, 1) == 1  # empty product


def test_is_multiplicative_check():
    # phi_k(m*n) = phi_k(m)*phi_k(n) on coprime pairs, by the definitional
    # count on both sides
    for k, m, n in ((2, 3, 5), (1, 4, 9), (3, 5, 7), (3, 5, 11)):
        assert phi_k_bruteforce(k, m * n) == \
            phi_k_bruteforce(k, m) * phi_k_bruteforce(k, n)


def test_count_optimal_lattices_examples():
    assert count_optimal_lattices(1) == 1
    assert count_optimal_lattices(2) == 3
    assert count_optimal_lattices(7) == 3
    assert [count_optimal_lattices(j) for j in range(1, 8)] == \
        [1, 3, 5, 3, 9, 11, 3]


def test_count_matches_admissible_shift_enumeration():
    for j in range(1, 11):
        assert count_optimal_lattices(j) == len(admissible_shifts(j))


def test_count_matches_tiling_table():
    for j in range(1, 5):
        tilers = [m for m, ok in verify_stair_tiling_forward(j) if ok]
        assert count_optimal_lattices(j) == len(tilers)
