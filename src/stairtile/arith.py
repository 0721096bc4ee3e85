"""Factorization and the windowed-coprimality totient.

phi_k(k, n) counts the m in 1..n for which the k consecutive integers
m, m+1, ..., m+k-1 are all coprime to n.  It is multiplicative, vanishes as
soon as n has a prime factor <= k, and otherwise equals
n * prod(1 - k/p) over the distinct primes p of n.  phi_1 is the classical
Euler totient, and phi_2(2j+1) counts the optimal lattices for the j-fold
triangle densities.
"""

from __future__ import annotations

from math import gcd

Factorization = list[tuple[int, int]]


def factorize(n: int) -> Factorization:
    """Prime factorization as (prime, exponent) pairs, primes ascending.

    Trial division; inputs here are desk scale.
    """
    if n < 1:
        raise ValueError(f"need a positive integer: {n}")
    out: Factorization = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def phi_k(k: int, n: int) -> int:
    """The count of m in 1..n with gcd(m+i, n) = 1 for i = 0..k-1.

    Evaluated through the product formula: zero when some prime factor of n
    is <= k, else prod p^(a-1) * (p - k).
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    result = 1
    for p, a in factorize(n):
        if p <= k:
            return 0
        result *= p ** (a - 1) * (p - k)
    return result


def phi_k_bruteforce(k: int, n: int) -> int:
    """Definitional count of phi_k; the windowed values m+i are taken as
    written, not reduced mod n, so m = n contributes gcd(n, n) = n."""
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    return sum(1 for m in range(1, n + 1)
               if all(gcd(m + i, n) == 1 for i in range(k)))


def count_optimal_lattices(j: int) -> int:
    """Number of density-optimal lattices for the j-fold triangle problems,
    phi_2(2j+1) = (2j+1) * prod(1 - 2/p) over primes p dividing 2j+1."""
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    return phi_k(2, 2 * j + 1)
