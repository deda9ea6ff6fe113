"""Exact primality test, a leaf module: every layer that checks a modulus
imports it without loading the invariants or :mod:`fractions`."""

from .errors import PreconditionError

# Strong-probable-prime bases: the first 13 primes.  The least composite
# that passes all of them is _MR_LIMIT (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), so below it
# the test is exact.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 3.3 * 10^24.

    Costs O(log n) modular multiplications per base.  Larger n without a
    prime factor up to 41 raise PreconditionError instead of a probable
    answer.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise PreconditionError(f"{n} is too large for the exact primality test (limit {_MR_LIMIT})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
