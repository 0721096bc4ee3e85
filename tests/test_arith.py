import pytest

from stairtile import (admissible_shifts, count_optimal_lattices, factorize,
                       phi_k, phi_k_bruteforce, verify_stair_tiling_forward)


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    with pytest.raises(ValueError):
        factorize(0)


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
