"""Tests for the exact invariant formulas, kappa and the census claims."""

from fractions import Fraction

import pytest

from heiskod.errors import InconsistencyError, PreconditionError
from heiskod.invariants import (
    CSV_COLUMNS,
    FibrationInvariants,
    census,
    family_invariants,
    general_invariants,
    row_record,
    rows_to_csv,
)
from heiskod.primes import admits, distinct_prime_factors, kappa, kappas


# -- general formula -------------------------------------------------------------


def test_general_invariants_nondegenerate_25():
    inv = general_invariants(2, 5**9, 5, 5**4, 5**4)
    assert (inv.b1, inv.b2) == (626, 626)
    assert (inv.g1, inv.g2) == (4376, 4376)
    assert inv.cover_degree == 5


def test_invariant_record_refuses_impossible_values():
    # the record checks its own values, whoever builds it
    fields = general_invariants(2, 5**9, 5, 5**4, 5**4)._asdict()
    for change, message in (
        ({"slope": Fraction(3)}, "outside the open interval"),
        ({"slope": Fraction(2)}, "outside the open interval"),
        ({"signature": fields["signature"] + 2}, "not divisible by 4"),
        ({"n": 3, "signature": 4}, "not divisible by 16"),
        ({"g1": 1}, "2g1 - 2 = 0 is not positive"),
        ({"c2": 0}, "c2 = 0 is not positive"),
    ):
        with pytest.raises(InconsistencyError, match=message):
            FibrationInvariants(**{**fields, **change})
    assert FibrationInvariants(**fields) == general_invariants(2, 5**9, 5, 5**4, 5**4)


def test_family_signature_raises_off_its_closed_form(monkeypatch):
    # a signature 16 too large is still a valid record, so only the closed form catches it
    from heiskod import invariants

    general = invariants.general_invariants

    def off_by_16(*args):
        inv = general(*args)
        return inv._replace(signature=inv.signature + 16)

    monkeypatch.setattr(invariants, "general_invariants", off_by_16)
    with pytest.raises(InconsistencyError, match="signature disagrees with its closed form"):
        family_invariants("degenerate", 2, 3)


def test_general_invariants_27():
    inv = general_invariants(2, 7**9, 7, 7**4, 7**4)
    assert (inv.b1, inv.g1) == (2402, 24011)
    assert inv.slope == 2 + Fraction(12, 35)


def test_general_invariants_kirby_case():
    inv = general_invariants(2, 3**5, 3, 1, 1)
    assert inv.g1 == 325
    assert inv.signature == 144


def test_non_integral_combination_rejected():
    # |G| = 10, n = 3 gives c2 = 10 * 2 * (2 + 2/3) = 160/3: the tuple is not
    # admissible, a refused input (exit 2), not a refuted claim
    with pytest.raises(PreconditionError, match=r"^\(\|G\|, n, m1, m2\) = \(10, 3, 1, 1\) is not admissible at b = 2 "):
        general_invariants(2, 10, 3, 1, 1)
    # |G| = 9 makes g1, g2, c1^2 and c2 integers but the signature 16/3
    with pytest.raises(PreconditionError, match=r"\(non-integral signature\)$"):
        general_invariants(2, 9, 3, 1, 1)


def test_numpy_genus_and_modulus_are_read_as_ints():
    # a numpy genus used to flow on as np.int64 and wrap |G| = 13^25
    import numpy as np

    want = family_invariants("nondegenerate", 6, 13)
    for b, p in ((np.int64(6), 13), (6, np.int64(13)), (np.int64(6), np.int64(13))):
        got = family_invariants("nondegenerate", b, p)
        assert got == want
        assert all(type(x) is int for x in got if not isinstance(x, Fraction))
        assert type(got.slope.numerator) is type(got.slope.denominator) is int
    assert general_invariants(np.int64(2), 5**9, 5, 5**4, 5**4) == general_invariants(2, 5**9, 5, 5**4, 5**4)


def test_parameter_preconditions():
    with pytest.raises(PreconditionError):
        general_invariants(1, 3**5, 3, 1, 1)
    with pytest.raises(PreconditionError):
        general_invariants(2, 3**5, 1, 1, 1)
    # one precondition covers the cover degree: |G|, m1, m2 >= 1 and m1 m2 | |G|;
    # a zero used to raise ZeroDivisionError, and a negative size, or an m1 m2
    # that does not divide |G| although m1 and m2 do, an inconsistency (exit 1
    # on the command line)
    for group_order, m1, m2 in (
        (5**9, 7, 1),
        (5**9, 0, 5**4),
        (5**9, 5**4, 0),
        (5**9, -1, 5**4),
        (5**9, 5**5, 5**5),
        (0, 1, 1),
        (-(5**9), 1, 1),
    ):
        with pytest.raises(PreconditionError, match=rf"got \|G\| = {group_order}, m1 = {m1}, m2 = {m2}$"):
            general_invariants(2, group_order, 5, m1, m2)
    # a float size used to raise a bare TypeError
    with pytest.raises(PreconditionError, match=r"^\|G\| must be an integer, got 1953125.0$"):
        general_invariants(2, 5.0**9, 5, 5**4, 5**4)
    with pytest.raises(PreconditionError, match="^m2 must be an integer, got True$"):
        general_invariants(2, 5**9, 5, 5**4, True)


# -- family specialisations --------------------------------------------------------


def test_nondegenerate_headline_values():
    inv = family_invariants("nondegenerate", 2, 5)
    assert (inv.b1, inv.g1) == (626, 4376)
    assert inv.signature == 1_250_000 == 2**4 * 5**7
    assert inv.slope == Fraction(82, 35) == 2 + Fraction(12, 35)
    assert inv.cover_degree == 5
    assert inv.group_order == 5**9

    inv = family_invariants("nondegenerate", 2, 7)
    assert (inv.b1, inv.g1) == (2402, 24011)
    assert inv.slope == 2 + Fraction(12, 35)
    assert inv.signature == 26_353_376  # (1/3) * 2 * 7^7 * 48


def test_nondegenerate_35_exact():
    inv = family_invariants("nondegenerate", 3, 5)
    assert inv.c2 == 96 * 5**12  # 5^13 * 4 * (4 + 4/5)
    assert 2 < inv.slope < 2 + Fraction(12, 35)


def test_nondegenerate_preconditions():
    with pytest.raises(PreconditionError):
        family_invariants("nondegenerate", 2, 3)
    with pytest.raises(PreconditionError):
        family_invariants("nondegenerate", 2, 6)


def test_degenerate_headline_values():
    inv = family_invariants("degenerate", 2, 3)
    assert inv.g1 == 325 and inv.signature == 144
    assert inv.slope == Fraction(7, 3)
    assert (inv.c1_sq, inv.c2) == (3024, 1296)
    assert (inv.b1, inv.b2) == (2, 2)
    assert inv.cover_degree == 3**5

    inv = family_invariants("degenerate", 3, 2)
    assert inv.g1 == 289 and inv.signature == 128

    inv = family_invariants("degenerate", 5, 3)
    assert inv.signature == 419_904  # (1/3) * 8 * 3^9 * 8
    assert inv.signature % 16 == 0


def test_degenerate_preconditions():
    with pytest.raises(PreconditionError):
        family_invariants("degenerate", 2, 2)
    with pytest.raises(PreconditionError):
        family_invariants("degenerate", 4, 3)


@pytest.mark.parametrize("b,p", [(2, 5), (2, 7), (3, 5), (4, 7), (6, 13)])
def test_nondegenerate_closed_forms(b, p):
    inv = family_invariants("nondegenerate", b, p)
    assert inv.slope == 2 + Fraction(p * p - 1, (2 * b - 1) * p * p - p)
    assert 3 * inv.signature == (2 * b - 2) * p ** (4 * b - 1) * (p * p - 1)
    assert inv.signature == (inv.c1_sq - 2 * inv.c2) // 3
    assert inv.signature % 16 == 0
    assert 2 * inv.g1 - 2 == inv.c2 // ((2 * b - 2) * p ** (2 * b))


@pytest.mark.parametrize("b,p", [(2, 3), (3, 2), (4, 5), (5, 2), (5, 3), (9, 5), (12, 13)])
def test_degenerate_closed_forms(b, p):
    inv = family_invariants("degenerate", b, p)
    k = (b + 1) // p
    assert inv.slope == 2 + Fraction(p * p - 1, 2 * k * p**3 - 3 * p * p - p)
    assert 3 * inv.signature == (2 * b - 2) * p ** (2 * b - 1) * (p * p - 1)
    assert inv.signature % 16 == 0
    # cross-family consistency: same fibre-genus expression as the other family
    f = 1 - Fraction(1, p)
    assert 2 * inv.g1 - 2 == p ** (2 * b + 1) * (2 * b - 2 + f)


def test_family_invariants_unknown_family():
    with pytest.raises(PreconditionError, match="unknown family"):
        family_invariants("symplectic", 2, 5)
    with pytest.raises(PreconditionError, match="unknown family"):
        census("symplectic", [2], [5])


# -- admission -----------------------------------------------------------------------


@pytest.mark.parametrize("family", ["nondegenerate", "degenerate"])
def test_one_admission_rule(family):
    # the rule as the paper states it, against the census row filter and
    # the refusals of family_invariants
    def rule(b, p):
        prime = p > 1 and all(p % d for d in range(2, p))
        return prime and (p >= 5 if family == "nondegenerate" else (b + 1) % p == 0)

    cells = [(b, p) for b in range(2, 13) for p in range(-2, 30)]
    admitted = [cell for cell in cells if rule(*cell)]
    assert [cell for cell in cells if admits(family, *cell)] == admitted
    rows, _ = census(family, range(2, 13), range(-2, 30))
    assert [(r.b, r.p) for r in rows] == admitted
    for b, p in cells:
        if not rule(b, p):
            with pytest.raises(PreconditionError):
                family_invariants(family, b, p)


@pytest.mark.parametrize(
    "family,b,p",
    [("degenerate", b, p) for b, p in ((2, 3), (3, 2), (4, 5), (5, 2), (5, 3), (8, 3))]
    + [("nondegenerate", b, p) for b, p in ((2, 5), (2, 7), (3, 5))],
)
def test_family_invariants_match_the_verified_lifting(family, b, p):
    # the invariants layer states (|G|, n, m1, m2); the verifier measures them
    from heiskod.cohomology import search_family_params
    from heiskod.verify import standard_assignment, verify_assignment

    params = next(search_family_params(b, p, 1)) if family == "nondegenerate" else ()
    report = verify_assignment(standard_assignment(family, b, p, *params))
    inv = family_invariants(family, b, p)
    assert report.ok
    assert (inv.group_order, inv.n, inv.m1, inv.m2) == (report.target_order, report.a12_order, report.m1, report.m2)


def test_every_layer_refuses_genus_below_2_alike():
    from heiskod.braid import build_presentation
    from heiskod.cohomology import diagonal_class, search_family_params
    from heiskod.fplinalg import AlternatingForm
    from heiskod.verify import standard_assignment

    for refuse in (
        lambda: build_presentation(1),
        lambda: diagonal_class(1, 5),
        lambda: search_family_params(1, 5),
        lambda: AlternatingForm.family(1, 5, [1], [1]),
        lambda: standard_assignment("degenerate", 1, 2),
        lambda: standard_assignment("nondegenerate", 1, 5, [1], [1]),
        lambda: general_invariants(1, 3**5, 3, 1, 1),
        lambda: family_invariants("degenerate", 1, 2),
        lambda: kappa(1),
        lambda: census("degenerate", [1], [2]),
    ):
        with pytest.raises(PreconditionError, match=r"^genus b must be >= 2, got 1$"):
            refuse()


def test_genus_and_modulus_pass_one_integer_gate():
    import numpy as np

    from heiskod.braid import involution_substitute, word_display
    from heiskod.cohomology import count_heisenberg_candidates, diagonal_class, search_family_params
    from heiskod.fplinalg import AlternatingForm, FpMatrix
    from heiskod.primes import check_genus, check_prime

    # a float is refused, not compared as if it were the integer it equals,
    # and a bool is refused, not read as 0 or 1 (operator.index(True) is 1)
    for refuse in (
        lambda: check_prime(5.0),
        lambda: check_genus(2.0),
        lambda: distinct_prime_factors(6.0),
        lambda: distinct_prime_factors(True),
        lambda: kappa(2.0),
        lambda: diagonal_class(2, 5.0),
        lambda: count_heisenberg_candidates(2, 5.0),
        lambda: search_family_params(2, 5.0),
        lambda: search_family_params(2, 5, True),
        lambda: search_family_params(2, 5, 2.0),
        lambda: FpMatrix.sparse([{0: 1}], True, 5),
        lambda: FpMatrix.sparse([{0: 1}], 1.0, 5),
        lambda: AlternatingForm.standard_symplectic(True, 5),
        lambda: AlternatingForm.standard_symplectic(2.0, 5),
        # a letter's genus too: these used to return (7.0,) and ['r1.0_1.0']
        lambda: involution_substitute((1,), 2.0),
        lambda: word_display((1,), 2.0),
    ):
        with pytest.raises(PreconditionError, match="must be an integer, got"):
            refuse()
    # what operator.index accepts is an integer
    check_prime(np.int64(5))
    check_genus(np.int64(2))
    assert kappa(np.int64(5)) == 2
    assert distinct_prime_factors(np.int64(30)) == (2, 3, 5)
    assert len(list(search_family_params(2, 5, np.int64(2)))) == 2
    assert FpMatrix.sparse([{0: 1}], np.int64(1), 5) == FpMatrix([[1]], 5)
    assert AlternatingForm.family(np.int64(2), 5, (1, 1), (1, 1)).dim == 8
    assert AlternatingForm.standard_symplectic(np.int64(2), 5).dim == 4
    sizes = (np.int64(5**9), np.int64(5), np.int64(5**4), np.int64(5**4))
    assert general_invariants(2, *sizes) == general_invariants(2, 5**9, 5, 5**4, 5**4)


# -- kappa -------------------------------------------------------------------------


def test_distinct_prime_factors():
    assert distinct_prime_factors(30) == (2, 3, 5)
    assert distinct_prime_factors(8) == (2,)
    assert distinct_prime_factors(1) == ()
    with pytest.raises(PreconditionError, match="need a positive integer, got 0"):
        distinct_prime_factors(0)


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


def test_kappas_read_off_the_sieve_agree_with_kappa():
    bs = list(range(2, 20002))
    assert kappas(bs) == [kappa(b) for b in bs]
    # a b + 1 beyond the sieve is factored in its place, and a lone value too
    mixed = [29, 10**18 + 2, 5, 2, 10**6 + 1, 10**6 + 2]
    assert kappas(mixed) == [kappa(b) for b in mixed] == [3, 1, 2, 1, 3, 1]
    assert kappas([29]) == [3]


def test_kappas_refuse_a_genus_in_its_place():
    with pytest.raises(PreconditionError, match="genus b must be >= 2, got 1"):
        kappas([5, 1, 0])
    with pytest.raises(PreconditionError, match="genus b must be an integer, got 2.0"):
        kappas([5, 2.0])


# -- census ------------------------------------------------------------------------


def test_census_nondegenerate_claims():
    rows, claims = census("nondegenerate", range(2, 7), (5, 7, 11, 13))
    assert len(rows) == 20
    assert all(c.holds for c in claims), [c for c in claims if not c.holds]
    peak = [r for r in rows if r.invariants.slope == 2 + Fraction(12, 35)]
    assert {(r.b, r.p) for r in peak} == {(2, 5), (2, 7)}
    assert min(r.invariants.signature for r in rows) == 1_250_000


def test_census_degenerate_claims():
    rows, claims = census("degenerate", range(2, 13), range(2, 14))
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
    _, claims = census("nondegenerate", [2], [5])
    assert all(c.name and c.detail for c in claims)
    # restricted ranges simply omit out-of-range peak pairs
    assert any("maximum" in c.name for c in claims)


def test_degenerate_sigma_increases_with_p():
    for b in (5, 9, 11, 29):
        primes = distinct_prime_factors(b + 1)
        sigmas = [family_invariants("degenerate", b, p).signature for p in primes]
        assert sigmas == sorted(sigmas) and len(set(sigmas)) == len(sigmas)


def test_invariant_divisibility_flags():
    # odd branching order forces divisibility by 16, even order at least 4
    inv = family_invariants("degenerate", 3, 2)
    assert inv.signature % 4 == 0
    inv = family_invariants("degenerate", 2, 3)
    assert inv.signature % 16 == 0


# -- census claims that fail ----------------------------------------------------------
#
# One case per claim of each family: a single tampered cell that violates the
# claim, the claim's name and its detail in the printed format.  ``_replace``
# builds the record without the checks of ``FibrationInvariants``, so a row
# can carry values no fibration has.

NONDEGENERATE = ("nondegenerate", (2, 6), (5, 13))
DEGENERATE = ("degenerate", (2, 12), (2, 13))
FAILING_CLAIMS = [
    (NONDEGENERATE, (3, 5), {"slope": Fraction(3)}, "slope in (2, 82/35]", "violations at [(3, 5)]"),
    (
        NONDEGENERATE, (3, 5), {"slope": Fraction(82, 35)},
        "slope maximum attained exactly at [(2, 5), (2, 7)]", "attained at [(2, 5), (2, 7), (3, 5)]",
    ),
    (NONDEGENERATE, (3, 5), {"signature": 8}, "signature divisible by 16", "violations at [(3, 5)]"),
    (NONDEGENERATE, (3, 5), {"signature": 16}, "minimum signature 1250000 at (2, 5)", "minimum 16 at (3, 5)"),
    (
        NONDEGENERATE, (3, 5), {"slope": Fraction(21, 10)},
        "slope = 2 + (p^2-1)/((2b-1)p^2 - p)", "violations at [(3, 5)]",
    ),
    (
        NONDEGENERATE, (2, 13), {"slope": Fraction(103, 44)},
        "slope at b=2 strictly decreasing across consecutive primes >= 7", "slopes ['82/35', '103/44', '103/44']",
    ),
    (DEGENERATE, (5, 3), {"slope": Fraction(3)}, "slope in (2, 7/3]", "violations at [(5, 3)]"),
    (
        DEGENERATE, (5, 3), {"slope": Fraction(7, 3)},
        "slope maximum attained exactly at [(2, 3)]", "attained at [(2, 3), (5, 3)]",
    ),
    (DEGENERATE, (5, 3), {"signature": 8}, "signature divisible by 16", "violations at [(5, 3)]"),
    (DEGENERATE, (5, 3), {"signature": 16}, "minimum signature 128 at (3, 2)", "minimum 16 at (5, 3)"),
    (
        DEGENERATE, (5, 3), {"slope": Fraction(201, 100)},
        "slope = 2 + (p^2-1)/(2kp^3 - 3p^2 - p) with b = kp - 1", "violations at [(5, 3)]",
    ),
    (
        DEGENERATE, (5, 3), {"g1": 1000},
        "fibre genus satisfies 2g - 2 = p^{2b+1}(2b - 2 + 1 - 1/p)", "violations at [(5, 3)]",
    ),
    (
        # the signature at (5, 2) is 8 * 2^9 = 4096
        DEGENERATE, (5, 3), {"signature": 4096},
        "for fixed b the signature is strictly increasing in p", "violations [(5, 2, 3)]",
    ),
]


@pytest.mark.parametrize(
    "ranges,cell,change,name,detail", FAILING_CLAIMS, ids=[f"{c[0][0]}-{c[3]}" for c in FAILING_CLAIMS]
)
def test_census_claim_can_fail(monkeypatch, capsys, ranges, cell, change, name, detail):
    import heiskod.invariants as invariants
    from heiskod.cli import main

    exact = invariants.family_invariants

    def tampered(family, b, p):
        inv = exact(family, b, p)
        return inv._replace(**change) if (b, p) == cell else inv

    monkeypatch.setattr(invariants, "family_invariants", tampered)
    family, (b_lo, b_hi), (p_lo, p_hi) = ranges
    _, claims = census(family, range(b_lo, b_hi + 1), range(p_lo, p_hi + 1))
    failed = {c.name: c.detail for c in claims if not c.holds}
    assert failed[f"{family}: {name}"] == detail
    code = main(["census", "--family", family, "--b", f"{b_lo}..{b_hi}", "--p", f"{p_lo}..{p_hi}"])
    assert code == 1
    assert f"claim [FAILED] {family}: {name}: {detail}\n" in capsys.readouterr().out
