"""Tests for the exact invariant formulas, kappa and the census claims."""

from fractions import Fraction

import pytest

from heiskod.errors import InconsistencyError, PreconditionError
from heiskod.invariants import (
    CSV_COLUMNS,
    census,
    census_degenerate,
    census_nondegenerate,
    degenerate_invariants,
    distinct_prime_factors,
    general_invariants,
    kappa,
    nondegenerate_invariants,
    row_record,
    rows_to_csv,
)


# -- general formula -------------------------------------------------------------


def test_general_invariants_nondegenerate_25():
    inv = general_invariants(2, 5**9, 5, 5**4, 5**4)
    assert (inv.b1, inv.b2) == (626, 626)
    assert (inv.g1, inv.g2) == (4376, 4376)
    assert inv.cover_degree == 5


def test_general_invariants_27():
    inv = general_invariants(2, 7**9, 7, 7**4, 7**4)
    assert (inv.b1, inv.g1) == (2402, 24011)
    assert inv.slope == 2 + Fraction(12, 35)


def test_general_invariants_kirby_case():
    inv = general_invariants(2, 3**5, 3, 1, 1)
    assert inv.g1 == 325
    assert inv.signature == 144


def test_non_integral_combination_rejected():
    # |G| = 10, n = 3 gives c2 = 10 * 2 * (2 + 2/3) = 160/3
    with pytest.raises(InconsistencyError):
        general_invariants(2, 10, 3, 1, 1)


def test_parameter_preconditions():
    with pytest.raises(PreconditionError):
        general_invariants(1, 3**5, 3, 1, 1)
    with pytest.raises(PreconditionError):
        general_invariants(2, 3**5, 1, 1, 1)
    with pytest.raises(PreconditionError):
        general_invariants(2, 3**5, 3, 7, 1)


# -- family specialisations --------------------------------------------------------


def test_nondegenerate_headline_values():
    inv = nondegenerate_invariants(2, 5)
    assert (inv.b1, inv.g1) == (626, 4376)
    assert inv.signature == 1_250_000 == 2**4 * 5**7
    assert inv.slope == Fraction(82, 35) == 2 + Fraction(12, 35)
    assert inv.cover_degree == 5
    assert inv.group_order == 5**9

    inv = nondegenerate_invariants(2, 7)
    assert (inv.b1, inv.g1) == (2402, 24011)
    assert inv.slope == 2 + Fraction(12, 35)
    assert inv.signature == 26_353_376  # (1/3) * 2 * 7^7 * 48


def test_nondegenerate_35_exact():
    inv = nondegenerate_invariants(3, 5)
    assert inv.c2 == 96 * 5**12  # 5^13 * 4 * (4 + 4/5)
    assert 2 < inv.slope < 2 + Fraction(12, 35)


def test_nondegenerate_preconditions():
    with pytest.raises(PreconditionError):
        nondegenerate_invariants(2, 3)
    with pytest.raises(PreconditionError):
        nondegenerate_invariants(2, 6)


def test_degenerate_headline_values():
    inv = degenerate_invariants(2, 3)
    assert inv.g1 == 325 and inv.signature == 144
    assert inv.slope == Fraction(7, 3)
    assert (inv.c1_sq, inv.c2) == (3024, 1296)
    assert (inv.b1, inv.b2) == (2, 2)
    assert inv.cover_degree == 3**5

    inv = degenerate_invariants(3, 2)
    assert inv.g1 == 289 and inv.signature == 128

    inv = degenerate_invariants(5, 3)
    assert inv.signature == 419_904  # (1/3) * 8 * 3^9 * 8
    assert inv.signature % 16 == 0


def test_degenerate_preconditions():
    with pytest.raises(PreconditionError):
        degenerate_invariants(2, 2)
    with pytest.raises(PreconditionError):
        degenerate_invariants(4, 3)


@pytest.mark.parametrize("b,p", [(2, 5), (2, 7), (3, 5), (4, 7), (6, 13)])
def test_nondegenerate_closed_forms(b, p):
    inv = nondegenerate_invariants(b, p)
    assert inv.slope == 2 + Fraction(p * p - 1, (2 * b - 1) * p * p - p)
    assert 3 * inv.signature == (2 * b - 2) * p ** (4 * b - 1) * (p * p - 1)
    assert inv.signature == (inv.c1_sq - 2 * inv.c2) // 3
    assert inv.signature % 16 == 0
    assert 2 * inv.g1 - 2 == inv.c2 // ((2 * b - 2) * p ** (2 * b))


@pytest.mark.parametrize("b,p", [(2, 3), (3, 2), (4, 5), (5, 2), (5, 3), (9, 5), (12, 13)])
def test_degenerate_closed_forms(b, p):
    inv = degenerate_invariants(b, p)
    k = (b + 1) // p
    assert inv.slope == 2 + Fraction(p * p - 1, 2 * k * p**3 - 3 * p * p - p)
    assert 3 * inv.signature == (2 * b - 2) * p ** (2 * b - 1) * (p * p - 1)
    assert inv.signature % 16 == 0
    # cross-family consistency: same fibre-genus expression as the other family
    f = 1 - Fraction(1, p)
    assert 2 * inv.g1 - 2 == p ** (2 * b + 1) * (2 * b - 2 + f)


# -- kappa -------------------------------------------------------------------------


def test_distinct_prime_factors():
    assert distinct_prime_factors(30) == (2, 3, 5)
    assert distinct_prime_factors(8) == (2,)
    assert distinct_prime_factors(1) == ()


def test_distinct_prime_factors_large():
    big = 10**18 + 3  # prime
    assert distinct_prime_factors(big) == (big,)
    assert distinct_prime_factors(2 * big) == (2, big)
    assert distinct_prime_factors(2**5 * 3 * 999983**2 * 1000003) == (2, 3, 999983, 1000003)
    # a composite cofactor without a factor up to 10^6 is refused
    with pytest.raises(PreconditionError):
        distinct_prime_factors(1000003 * 1000033)


def test_distinct_prime_factors_past_primality_range():
    # the cofactor only drops below the exact primality range after 999983
    # is divided out
    assert distinct_prime_factors(999983**2 * (10**18 + 3)) == (999983, 10**18 + 3)
    # a prime past that range has no factor up to 10^6 and is refused
    with pytest.raises(PreconditionError):
        distinct_prime_factors(2**89 - 1)


def test_kappa_values():
    assert kappa(2) == 1
    assert kappa(5) == 2
    assert kappa(29) == 3
    expected = {2: 1, 3: 1, 4: 1, 5: 2, 6: 1, 7: 1, 8: 1, 9: 2, 10: 1}
    assert {b: kappa(b) for b in range(2, 11)} == expected


def test_kappa_against_independent_count():
    for b in range(2, 101):
        n = b + 1
        count = sum(
            1 for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, int(q**0.5) + 1))
        )
        assert kappa(b) == count


# -- census ------------------------------------------------------------------------


def test_census_nondegenerate_claims():
    rows, claims = census_nondegenerate(range(2, 7), (5, 7, 11, 13))
    assert len(rows) == 20
    assert all(c.holds for c in claims), [c for c in claims if not c.holds]
    peak = [r for r in rows if r.invariants.slope == 2 + Fraction(12, 35)]
    assert {(r.b, r.p) for r in peak} == {(2, 5), (2, 7)}
    assert min(r.invariants.signature for r in rows) == 1_250_000


def test_census_degenerate_claims():
    rows, claims = census_degenerate(range(2, 13), range(2, 14))
    assert all(c.holds for c in claims), [c for c in claims if not c.holds]
    pairs = {(r.b, r.p) for r in rows}
    assert pairs == {
        (2, 3), (3, 2), (4, 5), (5, 2), (5, 3), (6, 7), (7, 2), (8, 3),
        (9, 2), (9, 5), (10, 11), (11, 2), (11, 3), (12, 13),
    }
    assert min(r.invariants.signature for r in rows) == 128
    top = [r for r in rows if r.invariants.slope == Fraction(7, 3)]
    assert [(r.b, r.p) for r in top] == [(2, 3)]


def test_census_rows_sorted_and_serialised():
    rows, _ = census("degenerate", range(2, 7), range(2, 8))
    keys = [(r.b, r.p) for r in rows]
    assert keys == sorted(keys)
    csv = rows_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(rows) + 1
    rec = row_record(rows[0])
    assert rec["family"] == "degenerate" and rec["b"] == 2 and rec["p"] == 3
    assert rec["nu_num"] == 7 and rec["nu_den"] == 3


def test_census_claim_structure():
    _, claims = census_nondegenerate([2], [5])
    assert all(c.name and c.detail for c in claims)
    # restricted ranges simply omit out-of-range peak pairs
    assert any("maximum" in c.name for c in claims)


def test_degenerate_sigma_increases_with_p():
    for b in (5, 9, 11, 29):
        primes = distinct_prime_factors(b + 1)
        sigmas = [degenerate_invariants(b, p).signature for p in primes]
        assert sigmas == sorted(sigmas) and len(set(sigmas)) == len(sigmas)


def test_invariant_divisibility_flags():
    # odd branching order forces divisibility by 16, even order at least 4
    inv = degenerate_invariants(3, 2)
    assert inv.signature % 4 == 0
    inv = degenerate_invariants(2, 3)
    assert inv.signature % 16 == 0
