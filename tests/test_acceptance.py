"""Acceptance gate: every exit criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines, or equivalently ``heiskod selftest``.
"""

import time

import pytest

from heiskod import acceptance

# the criteria by name, in order: criterion i is NAMES[i - 1]
NAMES = [
    "degenerate family passes all relators",
    "non-degenerate (2,5) verification with BFS oracle",
    "tau_2j image variant is refuted by the verifier",
    "involution precomposition preserves verification",
    "Heisenberg-type classification and determinant formula",
    "rank and count identities",
    "family parameter search is empty mod 3",
    "headline invariants match exactly",
    "census claims hold over the stated ranges",
    "group structure suite",
    "kappa and per-genus signature monotonicity",
]


@pytest.mark.parametrize("index", range(1, len(acceptance.CRITERIA) + 1), ids="criterion_{}".format)
def test_criterion(index):
    result = acceptance.run(index)
    print(result.line())
    assert result.passed, result.detail


def test_full_run_summary(capsys):
    results = acceptance.run_all()
    with capsys.disabled():
        print()
        for r in results:
            print(r.line())
    assert all(r.passed for r in results)
    # a criterion's number is its position in the table
    assert [r.index for r in results] == list(range(1, 12))
    assert [r.name for r in results] == NAMES


def test_run_refuses_an_index_outside_the_table():
    for index in (0, -1, len(acceptance.CRITERIA) + 1):
        with pytest.raises(IndexError, match="no criterion"):
            acceptance.run(index)


def test_run_fails_a_criterion_over_its_budget(monkeypatch):
    # budgets live only in the table; criterion 1's 1 s bounds the whole
    # criterion, so no case can be slower than that either
    assert acceptance.CRITERIA[0][1] == 1.0
    monkeypatch.setattr(acceptance, "CRITERIA", (("sleeps", 0.0, lambda problems: time.sleep(0.001)),))
    result = acceptance.run(1)
    assert not result.passed
    assert "exceeded budget 0.0s" in result.detail


def test_suite_detects_cup_rule_sign_flip(monkeypatch):
    """Mutation check: flipping one sign in the basis cup rule must break the
    family-form-hits-diagonal criterion, proving the gate has teeth."""
    from heiskod import cohomology

    original = cohomology._cup_basis

    def flipped(i1, i2, b, p):
        hit = original(i1, i2, b, p)
        if hit is None:
            return None
        idx, sign = hit
        if idx == 0:  # g(x)1
            return idx, (-sign) % p
        return idx, sign

    monkeypatch.setattr(cohomology, "_cup_basis", flipped)
    # bypass the cache: earlier tests filled it, and the mutant's matrices
    # must not stay in it
    monkeypatch.setattr(cohomology, "xi_matrix", cohomology.xi_matrix.__wrapped__)
    result = acceptance.run(5)
    assert not result.passed
    assert "diagonal" in result.detail


def test_selftest_reports_an_inconsistency_as_its_criterion_failing(capsys, monkeypatch):
    # eta taken for xi: the count raises inside criterion 6, which used to
    # end selftest before a single criterion line was printed
    from heiskod import cohomology
    from heiskod.cli import main

    monkeypatch.setattr(cohomology, "eta_matrix", cohomology.xi_matrix)
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12 and lines[-1] == "10/11 criteria passed"
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] criterion  6")
    message = "candidate count from ranks (0) disagrees with closed form (118098) at b=2, p=3"
    assert f"inconsistency: {message}" in failed[0]
