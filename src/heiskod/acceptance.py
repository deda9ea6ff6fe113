"""The acceptance suite: one table of exit criteria, exact tolerances.

``CRITERIA`` has one (name, budget or None, check) entry per criterion, and
criterion i is entry i - 1.  A check appends a message per failed assertion
to the list it is given; ``run`` times it, enforces the budget (kept only in
the table) and builds the :class:`CriterionResult`.  ``run_all`` runs them in
order for ``heiskod selftest`` and the pytest acceptance module.

All assertions are exact equalities (integers, tuples, Fractions); the only
approximate quantities are the wall-clock budgets.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import NamedTuple

from .cohomology import (
    classify_form,
    count_heisenberg_candidates,
    diagonal_class,
    eta_matrix,
    search_family_params,
    xi_matrix,
    xi_of_form,
)
from .errors import InconsistencyError
from .fplinalg import AlternatingForm
from .heisenberg import HeisGroup, verify_extra_special
from .invariants import census, family_invariants
from .primes import distinct_prime_factors, kappa
from .verify import (
    precompose_involution,
    standard_assignment,
    tau2_to_r2_variant,
    verify_assignment,
)


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index:2d} ({self.seconds:6.3f}s): {self.name} -- {self.detail}"


def _check(cond: bool, message: str, problems: list[str]) -> None:
    if not cond:
        problems.append(message)


def _degenerate_relators(problems: list[str]) -> None:
    """Degenerate relator verification over five (b, p) pairs."""
    for b, p in ((2, 3), (3, 2), (4, 5), (5, 2), (5, 3)):
        report = verify_assignment(standard_assignment("degenerate", b, p))
        expected = 8 * b * b + 4 * b + 2
        _check(report.total_relators == expected, f"({b},{p}): relator count {report.total_relators}", problems)
        _check(not report.failures, f"({b},{p}): {len(report.failures)} relators failed", problems)
        _check(report.a12_order == p, f"({b},{p}): A12 image order {report.a12_order} != {p}", problems)
        _check(report.m1 == 1 and report.m2 == 1, f"({b},{p}): indices ({report.m1}, {report.m2}) != (1, 1)", problems)
        _check(report.is_surjective, f"({b},{p}): image not the whole group", problems)


def _nondegenerate_with_oracle(problems: list[str]) -> None:
    """Non-degenerate verification at (2, 5), lambda = mu = (3, 3)."""
    assignment = standard_assignment("nondegenerate", 2, 5, (3, 3), (3, 3))
    report = verify_assignment(assignment, oracle=True)
    _check(report.total_relators == 42, f"relator count {report.total_relators} != 42", problems)
    _check(not report.failures, f"{len(report.failures)} relators failed", problems)
    _check(report.a12_order == 5, f"A12 image order {report.a12_order} != 5", problems)
    _check(report.m1 == 625 and report.m2 == 625, f"indices ({report.m1}, {report.m2}) != (625, 625)", problems)
    _check(len(report.oracle) == 2, f"{len(report.oracle)} BFS cross-checks, expected 2", problems)
    for label, size, agrees in report.oracle:
        _check(size == 3125, f"BFS kernel-subgroup order [{label}] {size} != 3125", problems)
        _check(agrees, f"BFS and fast index disagree [{label}]", problems)


def _tau2_variant_refuted(problems: list[str]) -> None:
    """The tau_2j -> r_2j variant fails [rho_1j, tau_2j] = A12^-1; that the
    t_2j assignment passes is criterion 2."""
    bad = verify_assignment(tau2_to_r2_variant(standard_assignment("nondegenerate", 2, 5, (3, 3), (3, 3))))
    hit = [src for _, src, _ in bad.failures if "on tau_2k" in src and "rho_1j on" in src and "j=k" in src]
    _check(bool(hit), "the variant did not fail any [rho_1j, tau_2j] relator", problems)


def _involution_precomposition(problems: list[str]) -> None:
    """Precomposing a passing assignment with the reflection substitution
    passes, at (2, 3) and (3, 2)."""
    for b, p in ((2, 3), (3, 2)):
        base = standard_assignment("degenerate", b, p)
        _check(not verify_assignment(base).failures, f"({b},{p}): base assignment failed", problems)
        twisted = verify_assignment(precompose_involution(base))
        _check(not twisted.failures, f"({b},{p}): involution-precomposed assignment failed", problems)


def _heisenberg_type_forms(problems: list[str]) -> None:
    """Every valid family form maps to the diagonal class; determinant
    formula; the all-J form classifies as Heisenberg type but not symplectic."""
    rng = random.Random(20260808)
    for b in (2, 3):
        for p in (5, 7):
            delta = diagonal_class(b, p)
            for lam, mu in search_family_params(b, p):
                form = AlternatingForm.family(b, p, lam, mu)
                if xi_of_form(form) != delta:
                    problems.append(f"xi(family form) != diagonal class at b={b}, p={p}, {lam}, {mu}")
                    break
            for _ in range(100):
                lam = [rng.randrange(p) for _ in range(b)]
                mu = [rng.randrange(p) for _ in range(b)]
                form = AlternatingForm.family(b, p, lam, mu)
                expected = 1
                for l, m in zip(lam, mu):
                    expected = expected * (1 - l * m) ** 2 % p
                if form.det() != expected % p:
                    problems.append(f"det formula failed at b={b}, p={p}, {lam}, {mu}")
                    break
    # the all-J form is Heisenberg type exactly when p | b+1 (its image under
    # xi has gamma coefficients -b); classification works over p = 2 as well
    for b, p in ((2, 3), (3, 2), (5, 3)):
        form = AlternatingForm.family(b, p, [-1] * b, [-1] * b)
        _check(classify_form(form) not in (None, 0), f"all-J form not Heisenberg type at ({b},{p})", problems)
        _check(form.det() == 0, f"all-J form symplectic at ({b},{p})", problems)
        _check(form.dim - form.rank() == 2 * b, f"all-J kernel dimension != 2b at ({b},{p})", problems)


def _ranks_and_count(problems: list[str]) -> None:
    """Ranks of xi and eta at three (b, p), and the count, which raises off its closed form."""
    for b, p in ((2, 3), (2, 5), (3, 3)):
        rx = xi_matrix(b, p).rank()
        re_ = eta_matrix(b, p).rank()
        _check(rx == 4 * b * b + 2, f"rank xi = {rx} != {4 * b * b + 2} at ({b},{p})", problems)
        _check(re_ == 4 * b * b + 1, f"rank eta = {re_} != {4 * b * b + 1} at ({b},{p})", problems)
        count_heisenberg_candidates(b, p)


def _empty_search_mod_3(problems: list[str]) -> None:
    """No valid family parameters exist mod 3 (exhaustive search)."""
    for b in (2, 3):
        hits = list(search_family_params(b, 3))
        _check(hits == [], f"found {len(hits)} parameter pairs at b={b}, p=3", problems)


def _headline_invariants(problems: list[str]) -> None:
    """Headline invariant values, exact."""
    inv = family_invariants("nondegenerate", 2, 5)
    _check((inv.b1, inv.g1) == (626, 4376), f"(b', g) = {(inv.b1, inv.g1)} != (626, 4376)", problems)
    _check(inv.signature == 1_250_000 == 2**4 * 5**7, f"sigma = {inv.signature}", problems)
    _check(inv.slope == Fraction(82, 35), f"slope = {inv.slope}", problems)
    _check(inv.cover_degree == 5, f"degree = {inv.cover_degree}", problems)
    inv = family_invariants("nondegenerate", 2, 7)
    _check((inv.b1, inv.g1) == (2402, 24011), f"(b', g) = {(inv.b1, inv.g1)}", problems)
    _check(inv.slope == 2 + Fraction(12, 35), f"slope = {inv.slope}", problems)
    inv = family_invariants("degenerate", 2, 3)
    _check(inv.g1 == 325 and inv.signature == 144, f"(g, sigma) = {(inv.g1, inv.signature)}", problems)
    _check(inv.slope == Fraction(7, 3), f"slope = {inv.slope}", problems)
    _check(inv.c1_sq == 3024 and inv.c2 == 1296, f"(c1^2, c2) = {(inv.c1_sq, inv.c2)}", problems)
    inv = family_invariants("degenerate", 3, 2)
    _check(inv.g1 == 289 and inv.signature == 128, f"(g, sigma) = {(inv.g1, inv.signature)}", problems)


def _census_claims(problems: list[str]) -> None:
    """Census claims over the stated ranges."""
    rows, claims = census("nondegenerate", range(2, 7), (5, 7, 11, 13))
    for c in claims:
        _check(c.holds, f"nondegenerate census: {c.name} -- {c.detail}", problems)
    _check(len(rows) == 5 * 4, f"expected 20 nondegenerate rows, got {len(rows)}", problems)
    rows, claims = census("degenerate", range(2, 13), range(2, 14))
    for c in claims:
        _check(c.holds, f"degenerate census: {c.name} -- {c.detail}", problems)
    _check(bool(rows), "degenerate census is empty", problems)


def _group_structure(problems: list[str]) -> None:
    """Structure suite for the small groups, exhaustive."""
    for p in (3, 5, 7):
        group = HeisGroup(AlternatingForm.standard_symplectic(1, p))
        rep = verify_extra_special(group)
        _check(rep.order == p**3, f"p={p}: order {rep.order}", problems)
        _check(rep.exponent == p, f"p={p}: exponent {rep.exponent}", problems)
        _check(rep.center_order == p, f"p={p}: center order {rep.center_order}", problems)
        _check(rep.commutator_order == p, f"p={p}: commutator subgroup order {rep.commutator_order}", problems)
        _check(rep.is_extra_special, f"p={p}: not extra-special", problems)
    rep = verify_extra_special(HeisGroup(AlternatingForm.standard_symplectic(1, 2)))
    _check(rep.order == 8 and rep.exponent == 4, f"H3(F2): order {rep.order}, exponent {rep.exponent}", problems)
    _check(rep.involution_count == 5, f"H3(F2): {rep.involution_count} involutions != 5 (dihedral signature)", problems)
    # at p = 3 the group law is the product of the unitriangular matrices
    # [[1, x, z], [0, 1, y], [0, 0, 1]] of the elements ((x, y), z)
    h27 = HeisGroup(AlternatingForm.standard_symplectic(1, 3))
    els = [h27.element((x, y), z) for x in range(3) for y in range(3) for z in range(3)]

    def matrix(g):
        return [[1, g.v[0], g.t], [0, 1, g.v[1]], [0, 0, 1]]

    def matrix_product(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) % 3 for j in range(3)] for i in range(3)]

    mismatches = sum(matrix(h27.mul(g, h)) != matrix_product(matrix(g), matrix(h)) for g in els for h in els)
    _check(mismatches == 0, f"product differs from the matrix product on {mismatches} of 729 pairs", problems)


def _kappa_and_signature_order(problems: list[str]) -> None:
    """kappa(b) = number of distinct primes dividing b+1; degenerate
    signature strictly increasing in p for each fixed b."""
    for b in range(2, 101):
        n = b + 1
        naive = sum(1 for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q)))
        _check(kappa(b) == naive, f"kappa({b}) = {kappa(b)} != {naive}", problems)
    _check(kappa(2) == 1, f"kappa(2) = {kappa(2)}", problems)
    _check(kappa(29) == 3, f"kappa(29) = {kappa(29)}", problems)
    for b in range(2, 31):
        primes = distinct_prime_factors(b + 1)
        sigmas = [family_invariants("degenerate", b, p).signature for p in primes]
        _check(sigmas == sorted(set(sigmas)), f"signatures not strictly increasing in p at b={b}", problems)


# (name, wall-clock budget in seconds or None, check)
CRITERIA = (
    ("degenerate family passes all relators", 1.0, _degenerate_relators),
    ("non-degenerate (2,5) verification with BFS oracle", 5.0, _nondegenerate_with_oracle),
    ("tau_2j image variant is refuted by the verifier", None, _tau2_variant_refuted),
    ("involution precomposition preserves verification", None, _involution_precomposition),
    ("Heisenberg-type classification and determinant formula", 1.0, _heisenberg_type_forms),
    ("rank and count identities", 2.0, _ranks_and_count),
    ("family parameter search is empty mod 3", 1.0, _empty_search_mod_3),
    ("headline invariants match exactly", 1.0, _headline_invariants),
    ("census claims hold over the stated ranges", 5.0, _census_claims),
    ("group structure suite", 1.0, _group_structure),
    ("kappa and per-genus signature monotonicity", None, _kappa_and_signature_order),
)


def run(index: int) -> CriterionResult:
    """Criterion ``index``, counted from 1: its check timed, and failed
    when it asserts anything false, a cross-check inside it raises
    :class:`InconsistencyError`, or it overruns its budget."""
    if not 0 < index <= len(CRITERIA):
        raise IndexError(f"no criterion {index}; they are 1..{len(CRITERIA)}")
    name, budget, check = CRITERIA[index - 1]
    problems: list[str] = []
    t0 = time.perf_counter()
    try:
        check(problems)
    except InconsistencyError as exc:
        problems.append(f"inconsistency: {exc}")
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        problems.append(f"runtime {elapsed:.3f}s exceeded budget {budget}s")
    detail = "ok" if not problems else "; ".join(problems)
    return CriterionResult(index, name, not problems, detail, elapsed)


def run_all() -> list[CriterionResult]:
    return [run(i) for i in range(1, len(CRITERIA) + 1)]
