"""Tests for the presentation data: counts, reduction, substitution, export."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heiskod.braid import (
    A12,
    RHO,
    TAU,
    BraidGenerator,
    build_presentation,
    free_reduce,
    generator_list,
    involution_substitute,
    kernel_generator_sets,
    presentation_to_json,
    rho,
    tau,
    winding,
    word_display,
    word_generators,
)
from heiskod.errors import PreconditionError


@pytest.mark.parametrize("b", range(2, 9))
def test_relator_count(b):
    pres = build_presentation(b)
    assert len(pres.relators) == 8 * b * b + 4 * b + 2
    assert len(pres.generators) == 4 * b + 1


def test_b_below_two_rejected():
    with pytest.raises(PreconditionError):
        build_presentation(1)


@pytest.mark.parametrize("b", [2, 3, 5])
def test_relators_reduced_and_nonempty(b):
    for rel in build_presentation(b).relators:
        assert rel.word, f"empty relator from {rel.source}"
        assert free_reduce(rel.word) == rel.word


def test_specific_relators_b2():
    pres = build_presentation(2)
    by_source = {r.source: r for r in pres.relators}

    # rho_11 acting on rho_22 (j < k): plain commutator word
    rel = by_source["action rho_1j on rho_2k, j=1, k=2 (j<k)"]
    assert word_display(rel.word, pres.generators) == ["r1_1", "r2_2", "r1_1^-1", "r2_2^-1"]

    # rho_11 acting on tau_21 (j = k): commutator equals A12^-1
    rel = by_source["action rho_1j on tau_2k, j=1, k=1 (j=k)"]
    assert word_display(rel.word, pres.generators) == ["r1_1", "t2_1", "r1_1^-1", "t2_1^-1", "A12"]


def test_surface_relators_shape():
    pres = build_presentation(2)
    s1, s2 = pres.relators[0], pres.relators[1]
    assert s1.source == "surface relation 1"
    # raw word [r1_2^-1, t1_2^-1] t1_2^-1 [r1_1^-1, t1_1^-1] t1_1^-1
    # (t1_1 t1_2) A12^-1 after cancelling t1_2 t1_2^-1 and t1_1^-1 t1_1
    assert word_display(s1.word, pres.generators) == [
        "r1_2^-1", "t1_2^-1", "r1_2",
        "r1_1^-1", "t1_1^-1", "r1_1",
        "t1_1", "t1_2", "A12^-1",
    ]
    assert s2.source == "surface relation 2"
    assert word_display(s2.word, pres.generators)[-1] == "A12"  # ... = A12^-1 becomes trailing A12


def test_free_reduce_examples():
    r11 = rho(2, 1, 1)
    assert free_reduce(r11 + rho(2, 1, 1, -1)) == ()
    assert free_reduce(()) == ()
    w = r11 + tau(2, 1, 1) + tau(2, 1, 1, -1) + rho(2, 1, 1, -1) + rho(2, 2, 1)
    assert free_reduce(w) == rho(2, 2, 1)


@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from([1, -1])), max_size=30))
def test_free_reduce_idempotent_and_no_adjacent_inverses(letters):
    word = tuple(e * (i + 1) for i, e in letters)
    reduced = free_reduce(word)
    assert free_reduce(reduced) == reduced
    for x1, x2 in zip(reduced, reduced[1:]):
        assert x1 != -x2


def test_involution_examples():
    assert involution_substitute(winding(2), 2) == winding(2, -1)
    out = involution_substitute(tau(2, 1, 1), 2)
    assert word_generators(out, generator_list(2)) == [(BraidGenerator(TAU, 2, 2), -1)]
    out = involution_substitute(rho(3, 1, 1), 3)
    assert word_generators(out, generator_list(3)) == [(BraidGenerator(RHO, 2, 3), 1)]


@given(st.lists(st.tuples(st.integers(0, 8), st.sampled_from([1, -1])), max_size=30))
def test_involution_is_order_two(letters):
    b = 2
    word = tuple(e * (i + 1) for i, e in letters)
    assert involution_substitute(involution_substitute(word, b), b) == word


def test_involution_order_two_on_all_relators():
    for b in (2, 3):
        for rel in build_presentation(b).relators:
            assert involution_substitute(involution_substitute(rel.word, b), b) == rel.word


@pytest.mark.parametrize("b", [2, 3, 4])
def test_abelianisation_is_free_of_rank_4b(b):
    """Exponent-sum vectors of the relators must generate exactly the A12
    line in Z^{4b+1}: commutator relators abelianise to zero and relators of
    the form [x, y] = word abelianise to minus the word's exponent sum, which
    is a power of A12 in every printed relation.  A missing or doubled letter
    anywhere would show up here."""
    pres = build_presentation(b)
    a12_axis = pres.generators.index(A12)
    nonzero = 0
    for rel in pres.relators:
        vec = [0] * len(pres.generators)
        for x in rel.word:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        assert all(v == 0 for i, v in enumerate(vec) if i != a12_axis), rel.source
        assert vec[a12_axis] in (-1, 0, 1), rel.source
        nonzero += vec[a12_axis] != 0
    # two surface relations plus one j=k relation per actor family and j
    assert nonzero == 4 * b + 2


def test_kernel_generator_sets():
    first, second = kernel_generator_sets(2)
    assert [g.display() for g in first] == ["r2_1", "r2_2", "t2_1", "t2_2", "A12"]
    assert [g.display() for g in second] == ["r1_1", "r1_2", "t1_1", "t1_2", "A12"]
    for b in (2, 3, 7):
        first, second = kernel_generator_sets(b)
        assert len(first) == len(second) == 2 * b + 1


def test_json_export_shape():
    records = presentation_to_json(build_presentation(2))
    assert len(records) == 42
    assert set(records[0]) == {"relator", "source"}
    assert all(isinstance(tok, str) for rec in records for tok in rec["relator"])


def test_generator_validation():
    with pytest.raises(PreconditionError):
        BraidGenerator(RHO, 3, 1)
    with pytest.raises(PreconditionError):
        BraidGenerator("A", 1, 1)
    with pytest.raises(PreconditionError):
        BraidGenerator("sigma", 1, 1)
