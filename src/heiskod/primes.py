"""Exact primality test, the factoring and the count kappa built on it (one
omega sieve for a range), and the rules that admit a modulus and (b, p) to
each family: a leaf module, so checking a genus or a modulus, or counting
kappa, loads neither the invariants nor :mod:`fractions`.  A float or a
bool is refused by :func:`integer`, a range of more than 10^6 values by
:func:`bounded`.  A refusal prints an integer through :func:`shown`, so it
formats under Python's limit on the digits of an int.

The two families of the paper admit a prime p at genus b >= 2 when

* non-degenerate: p >= 5 (at p = 2 and 3 no parameters lambda, mu exist);
* degenerate:     p divides b + 1.
"""

from functools import cache, lru_cache
from itertools import compress, islice
from math import isqrt
from operator import index

from .errors import PreconditionError

# Strong-probable-prime bases: the first 13 primes.  The least composite
# that passes all of them is _MR_LIMIT (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), so below it
# the test is exact.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def integer(n, what: str) -> int:
    """``n`` as an int, refused unless ``operator.index`` takes it; a bool is
    refused first, since ``index(True)`` is the int 1."""
    if not isinstance(n, bool):
        try:
            return index(n)
        except TypeError:
            pass
    raise PreconditionError(f"{what} must be an integer, got {shown(n)}")


_SHOWN_DIGITS = 10**4300  # the least integer of 4301 digits


def shown(x) -> str:
    """How a refusal prints ``x``, whatever Python's limit on the digits of
    an int: an int in full up to 4300 digits, the default limit, and by its
    size in bits beyond; anything else by its repr, or by its type where
    that repr holds an int past the limit."""
    if not isinstance(x, int):
        try:
            return repr(x)
        except ValueError:
            return f"a {type(x).__name__}"
    if -_SHOWN_DIGITS < x < _SHOWN_DIGITS:
        return str(x)
    return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>"


def bounded(values, what: str) -> list[int]:
    """Each of ``values`` through :func:`integer`, refused past 10^6 of them before any is checked."""
    values = list(islice(values, 10**6 + 1))
    if len(values) > 10**6:
        raise PreconditionError(f"{what} takes more than 10^6 values")
    return [integer(v, what) for v in values]


@lru_cache(maxsize=2**17, typed=True)  # typed: a bool is refused, never served an equal integer's answer
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 3.3 * 10^24.

    Costs O(log n) modular multiplications per base.  Larger n without a
    prime factor up to 41 raise PreconditionError instead of a probable
    answer.  Cached for census: over two or more genera it reads at most 5 * 10^5
    moduli, and that many consecutive integers hold fewer than 2^17 primes.
    """
    n = integer(n, "modulus")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise PreconditionError(f"{shown(n)} is too large for the exact primality test (limit {_MR_LIMIT})")
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


def check_prime(p: int) -> None:
    """Refuse a modulus that is not prime: F_p is a field only then."""
    if not is_prime(p):
        raise PreconditionError(f"modulus {shown(p)} is not prime")


_TRIAL_DIVISION_LIMIT = 10**6


@cache
def _small_primes() -> tuple[int, ...]:
    """The primes up to _TRIAL_DIVISION_LIMIT, off one sieve, built the first
    time a cofactor needs trial division."""
    sieve = bytearray([1]) * (_TRIAL_DIVISION_LIMIT + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, isqrt(_TRIAL_DIVISION_LIMIT) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, _TRIAL_DIVISION_LIMIT + 1, q)))
    return tuple(compress(range(_TRIAL_DIVISION_LIMIT + 1), sieve))


def distinct_prime_factors(n: int) -> tuple[int, ...]:
    """Prime divisors, ascending.

    Trial division by the primes up to _TRIAL_DIVISION_LIMIT stops as soon as
    the cofactor is 1 or a prime below _MR_LIMIT (tested with
    :func:`is_prime` at the start and after each factor), so a prime or a
    prime times small factors costs little.  Any other cofactor with no prime
    factor up to _TRIAL_DIVISION_LIMIT is refused.
    """
    n = integer(n, "the number to factor")
    if n < 1:
        raise PreconditionError(f"need a positive integer, got {shown(n)}")
    out = []
    if n > 1 and not (n < _MR_LIMIT and is_prime(n)):
        for q in _small_primes():
            if n % q == 0:
                out.append(q)
                while n % q == 0:
                    n //= q
                if n == 1 or (n < _MR_LIMIT and is_prime(n)):
                    break
        else:
            raise PreconditionError(
                f"{shown(n)} has no prime factor up to {_TRIAL_DIVISION_LIMIT}; factoring it is out of range"
            )
    if n > 1:
        out.append(n)
    return tuple(out)


def kappa(b: int) -> int:
    """Number of degenerate-family fibrations over a fixed genus-b curve:
    one per prime dividing b+1, pairwise non-homeomorphic total spaces."""
    check_genus(b)
    return len(distinct_prime_factors(b + 1))


KAPPA_SIEVE_LIMIT = 10**6 + 2  # the largest b + 1 whose kappa a range reads off the sieve
_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # bytes.translate table adding 1 to each byte


def kappas(bs) -> list[int]:
    """kappa(b) for each of at most 10^6 values b of ``bs``, in order.  With
    more than one, omega(b + 1) is read off one sieve table up to the largest
    b + 1 that is at most ``KAPPA_SIEVE_LIMIT``; a larger b, a genus below 2
    and a lone value go through :func:`kappa`, which refuses in the same order."""
    bs = bounded(bs, "genus b")
    n = max((b + 1 for b in bs if 2 <= b < KAPPA_SIEVE_LIMIT), default=1) if len(bs) > 1 else 1
    table = bytearray(n + 1)  # omega(m) for m = 0..n once the loop ends
    for q in range(2, n + 1):
        if not table[q]:  # no smaller prime divides q
            table[q::q] = table[q::q].translate(_PLUS_ONE)
    return [table[b + 1] if 2 <= b < n else kappa(b) for b in bs]


def check_genus(b: int) -> int:
    """The genus b as an int; below 2 there is no presentation, form or fibration."""
    if (b := integer(b, "genus b")) < 2:
        raise PreconditionError(f"genus b must be >= 2, got {shown(b)}")
    return b


def admits(family: str, b: int, p: int) -> bool:
    """Whether p meets the family's condition at genus b; the genus itself
    is not checked.  Primality is tested first, so a modulus beyond the exact
    test's range is refused for either family."""
    if family == "nondegenerate":
        return is_prime(p) and p >= 5
    if family == "degenerate":
        return is_prime(p) and (b + 1) % p == 0
    raise PreconditionError(f"unknown family {shown(family)}")


def check_family(family: str, b: int, p: int) -> tuple[int, int]:
    """(b, p) as ints, refused outside the family, saying which condition fails."""
    b, p = check_genus(b), integer(p, "modulus")
    if admits(family, b, p):
        return b, p
    if family == "nondegenerate":
        raise PreconditionError(f"the non-degenerate family needs a prime p >= 5, got {shown(p)}")
    check_prime(p)
    raise PreconditionError(f"the degenerate family needs p | b+1; {shown(p)} does not divide {shown(b + 1)}")
