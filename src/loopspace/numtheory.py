"""Small exact number-theory helpers: factorization and a Moebius sieve."""

from functools import lru_cache


@lru_cache(maxsize=None)
def factorint(n: int) -> tuple:
    """Prime factorization of n >= 1 as a sorted tuple of (prime, exponent)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def mobius_sieve(cap: int) -> list:
    """Moebius function mu(0..cap) by one sieve; mu[0] is unused and 0.

    mu is (-1)^#primes on squarefree n, else 0: each prime p flips the sign
    of its multiples and zeroes the multiples of p^2.
    """
    mu = [0] + [1] * cap
    composite = [False] * (cap + 1)
    for p in range(2, cap + 1):
        if composite[p]:
            continue
        for m in range(p, cap + 1, p):
            composite[m] = True
            mu[m] = -mu[m]
        for m in range(p * p, cap + 1, p * p):
            mu[m] = 0
    return mu
