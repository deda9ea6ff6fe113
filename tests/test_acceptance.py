"""Acceptance gate: every exit criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines, or equivalently ``heiskod selftest``.
"""

import pytest

from heiskod import acceptance

CRITERIA = [
    acceptance.criterion_1,
    acceptance.criterion_2,
    acceptance.criterion_3,
    acceptance.criterion_4,
    acceptance.criterion_5,
    acceptance.criterion_6,
    acceptance.criterion_7,
    acceptance.criterion_8,
    acceptance.criterion_9,
    acceptance.criterion_10,
    acceptance.criterion_11,
]


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda f: f.__name__)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.detail


def test_full_run_summary(capsys):
    results = acceptance.run_all()
    with capsys.disabled():
        print()
        for r in results:
            print(r.line())
    assert all(r.passed for r in results)
    assert len(results) == 11


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
    result = acceptance.criterion_5()
    assert not result.passed
    assert "diagonal" in result.detail
