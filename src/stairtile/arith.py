"""Factorization and the windowed-coprimality totient.

phi_k(k, n) counts the m in 1..n for which the k consecutive integers
m, m+1, ..., m+k-1 are all coprime to n.  It is multiplicative, vanishes as
soon as n has a prime factor <= k, and otherwise equals
n * prod(1 - k/p) over the distinct primes p of n.  phi_1 is the classical
Euler totient, and phi_2(2j+1) counts the optimal lattices for the j-fold
triangle densities.
"""

from __future__ import annotations

from math import gcd, isqrt

Factorization = list[tuple[int, int]]

# Trial division tries the divisors up to this bound and no further, about
# 5 * 10^5 of them, a fraction of a second.
TRIAL_DIVISION_BUDGET = 10**6
# phi_k_bruteforce makes up to n * k gcd calls and refuses more than this.
BRUTEFORCE_BUDGET = 10**7


class OversizeError(ValueError):
    """An input whose exact answer would cost more than a documented
    budget; the message names the work it would take."""


def factorize(n: int) -> Factorization:
    """Prime factorization as (prime, exponent) pairs, primes ascending.

    Trial division by the d <= ``TRIAL_DIVISION_BUDGET``.  A cofactor m
    left with no divisor up to the budget is prime when d * d > m for the
    next d; otherwise it may be composite, and ``OversizeError`` names the
    isqrt(n) divisions that a full trial division would take.
    """
    if n < 1:
        raise ValueError(f"need a positive integer: {n}")
    out: Factorization = []
    m, d = n, 2
    while d * d <= m:
        if d > TRIAL_DIVISION_BUDGET:
            raise OversizeError(
                f"factorizing {n} needs trial division up to isqrt(n) = "
                f"{isqrt(n)}, past the budget of {TRIAL_DIVISION_BUDGET}: "
                f"the cofactor {m} has no divisor up to it")
        e = 0
        while m % d == 0:
            e += 1
            m //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def phi_k(k: int, n: int) -> int:
    """The count of m in 1..n with gcd(m+i, n) = 1 for i = 0..k-1.

    Evaluated through the product formula: zero when some prime factor of n
    is <= k, else prod p^(a-1) * (p - k).  A factor <= k is looked for
    first, among the d <= ``TRIAL_DIVISION_BUDGET``, so that such an n is
    answered even when ``factorize`` would refuse it.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    if 1 < n <= k or any(n % d == 0 for d in
                         range(2, min(k, TRIAL_DIVISION_BUDGET) + 1)):
        return 0
    result = 1
    for p, a in factorize(n):
        if p <= k:
            return 0
        result *= p ** (a - 1) * (p - k)
    return result


def phi_k_bruteforce(k: int, n: int) -> int:
    """Definitional count of phi_k; the windowed values m+i are taken as
    written, not reduced mod n, so m = n contributes gcd(n, n) = n.
    Past n * k = ``BRUTEFORCE_BUDGET`` it raises ``OversizeError``."""
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    if n * k > BRUTEFORCE_BUDGET:
        raise OversizeError(
            f"the definitional count of phi_{k}({n}) needs n * k = {n * k} "
            f"gcd calls, past the budget of {BRUTEFORCE_BUDGET}")
    return sum(1 for m in range(1, n + 1)
               if all(gcd(m + i, n) == 1 for i in range(k)))


def count_optimal_lattices(j: int) -> int:
    """Number of density-optimal lattices for the j-fold triangle problems,
    phi_2(2j+1) = (2j+1) * prod(1 - 2/p) over primes p dividing 2j+1."""
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    return phi_k(2, 2 * j + 1)
