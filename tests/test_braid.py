"""Tests for the presentation data: counts, reduction, substitution, export."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heiskod import braid
from heiskod.braid import (
    Relator,
    Word,
    build_presentation,
    check_letters,
    commutator,
    concat,
    free_reduce,
    involution_substitute,
    inverse_word,
    kernel_generator_sets,
    rho,
    tau,
    winding,
    word_display,
)
from heiskod.cli import main
from heiskod.errors import PreconditionError


@pytest.mark.parametrize("b", range(2, 9))
def test_relator_count(b):
    pres = build_presentation(b)
    assert len(pres.relators) == 8 * b * b + 4 * b + 2
    # every one of the 4b + 1 generators occurs
    assert {abs(x) for rel in pres.relators for x in rel.word} == set(range(1, 4 * b + 2))


def test_b_below_two_rejected():
    with pytest.raises(PreconditionError):
        build_presentation(1)


@pytest.mark.parametrize("b", [2, 3, 5])
def test_relators_reduced_and_nonempty(b):
    for rel in build_presentation(b).relators:
        assert rel.word, f"empty relator from {rel.source}"
        assert free_reduce(rel.word) == rel.word


# The action relators as the case ladder that built them before the table of
# printed right-hand sides, kept as the reference the table is checked against.

RHO, TAU = "rho", "tau"


def _relation(left: Word, right: Word, source: str) -> Relator:
    return Relator(free_reduce(concat(left, inverse_word(right))), source)


def _reference_action_relators(b: int, actor_kind: str, actor_exp: int) -> list[Relator]:
    """The 2b+1 relations describing how one actor conjugates the kernel
    generators.  The case split j < k, j = k, j > k follows the printed form."""
    out: list[Relator] = []
    a = winding(b)
    ai = winding(b, -1)
    actor_name = f"{actor_kind}_1j" + ("" if actor_exp == 1 else "^-1")

    def r2(k: int, exp: int = 1) -> Word:
        return rho(b, 2, k, exp)

    def t2(k: int, exp: int = 1) -> Word:
        return tau(b, 2, k, exp)

    for j in range(1, b + 1):
        x = rho(b, 1, j, actor_exp) if actor_kind == RHO else tau(b, 1, j, actor_exp)

        for k in range(1, b + 1):
            lhs = commutator(x, r2(k))
            if j < k:
                rhs: Word = ()
            elif (actor_kind, actor_exp) == (RHO, 1):
                rhs = () if j == k else concat(ai, r2(k), r2(j, -1), a, r2(j), r2(k, -1))
            elif (actor_kind, actor_exp) == (RHO, -1):
                rhs = () if j == k else concat(r2(j), a, r2(j, -1), r2(k), ai, r2(k, -1))
            elif (actor_kind, actor_exp) == (TAU, 1):
                rhs = (
                    concat(t2(j, -1), a, t2(j))
                    if j == k
                    else commutator(t2(j, -1), a)
                )
            else:  # tau_1j^-1
                rhs = ai if j == k else commutator(ai, t2(j))
            case = "j=k" if j == k else ("j<k" if j < k else "j>k")
            out.append(_relation(lhs, rhs, f"action {actor_name} on rho_2k, j={j}, k={k} ({case})"))

        for k in range(1, b + 1):
            lhs = commutator(x, t2(k))
            if j < k:
                rhs = ()
            elif (actor_kind, actor_exp) == (RHO, 1):
                rhs = ai if j == k else commutator(ai, t2(k))
            elif (actor_kind, actor_exp) == (RHO, -1):
                rhs = (
                    concat(r2(j), a, r2(j, -1))
                    if j == k
                    else concat(
                        r2(j), a, r2(j, -1), t2(k), r2(j), ai, r2(j, -1), t2(k, -1)
                    )
                )
            elif (actor_kind, actor_exp) == (TAU, 1):
                rhs = (
                    commutator(t2(j, -1), a)
                    if j == k
                    else concat(
                        t2(j, -1), a, t2(j), ai, t2(k), a, t2(j, -1), ai, t2(j), t2(k, -1)
                    )
                )
            else:  # tau_1j^-1
                rhs = (
                    commutator(ai, t2(j))
                    if j == k
                    else concat(
                        ai, t2(j), a, t2(j, -1), t2(k), t2(j), ai, t2(j, -1), a, t2(k, -1)
                    )
                )
            case = "j=k" if j == k else ("j<k" if j < k else "j>k")
            out.append(_relation(lhs, rhs, f"action {actor_name} on tau_2k, j={j}, k={k} ({case})"))

        lhs = commutator(x, a)
        if (actor_kind, actor_exp) == (RHO, 1):
            rhs = commutator(r2(j, -1), a)
        elif (actor_kind, actor_exp) == (RHO, -1):
            rhs = commutator(r2(j), a)
        elif (actor_kind, actor_exp) == (TAU, 1):
            rhs = commutator(t2(j, -1), a)
        else:
            rhs = commutator(ai, t2(j))
        out.append(_relation(lhs, rhs, f"action {actor_name} on A12, j={j}"))

    return out


@pytest.mark.parametrize("b", range(2, 13))
def test_action_relators_match_reference_builder(b):
    pres = build_presentation(b)
    reference = [
        rel
        for kind, exp in ((RHO, 1), (RHO, -1), (TAU, 1), (TAU, -1))
        for rel in _reference_action_relators(b, kind, exp)
    ]
    relators = list(pres.relators)
    assert relators[2:] == reference
    # distinct sources, so a failure names exactly one relation
    sources = [rel.source for rel in relators]
    assert len(set(sources)) == len(sources)


# The inverse-actor rows of the table are theorems of the direct ones.  A row
# [x, y] = w says x y x^-1 = w y, and a row [x^-1, y] = w' says x^-1 y x = w' y.
# Conjugating w y by x^-1, letter by letter through the rows of x^-1, must
# give back y after free reduction, and so must conjugating w' y by x
# through the rows of x: the two sets of rows are inverse automorphisms.

_RJ, _RK, _TJ, _TK, _A = (braid._SYMBOLS.index(s) + 1 for s in ("rj", "rk", "tj", "tk", "a"))


def _conjugates(table, actor, case):
    """{y: the word of x y x^-1} for the actor x (x^-1 y x for x^-1) and each
    symbol y of the case: rho_2k and tau_2k, rho_2j and tau_2j through the
    j=k rows, and A12."""

    def row(target, case):
        return braid._symbols(table[actor, target, case])

    images = {_RJ: row("rho_2k", "j=k") + (_RJ,), _TJ: row("tau_2k", "j=k") + (_TJ,), _A: row("A12", "") + (_A,)}
    if case != "j=k":
        images.update({_RK: row("rho_2k", case) + (_RK,), _TK: row("tau_2k", case) + (_TK,)})
    return images


def _substitute(images, word):
    return free_reduce(concat(*(images[s] if s > 0 else inverse_word(images[-s]) for s in word)))


def derivation_failures(table):
    """(actor, case, y) of every composite conjugation that does not reduce to y."""
    failures = []
    for actor in ("rho_1j", "tau_1j"):
        for case in ("j<k", "j=k", "j>k"):
            direct, inverse = _conjugates(table, actor, case), _conjugates(table, actor + "^-1", case)
            for first, then in ((direct, inverse), (inverse, direct)):
                failures += [(actor, case, y) for y, w in first.items() if _substitute(then, w) != (y,)]
    return failures


def test_inverse_actor_rows_follow_from_the_direct_ones():
    assert derivation_failures(braid._ACTION_RIGHT_SIDES) == []


def test_derivation_check_sees_every_mutated_entry():
    # each mutation swaps two adjacent letters of one non-empty entry or
    # inverts one letter; the check fails on every one of them
    table = braid._ACTION_RIGHT_SIDES
    swaps, inversions = [], []
    for key, right in table.items():
        letters = right.split()
        for i in range(len(letters) - 1):
            swapped = letters[:i] + letters[i : i + 2][::-1] + letters[i + 2 :]
            swaps.append({**table, key: " ".join(swapped)})
        for i, s in enumerate(letters):
            inverted = letters[:i] + [s[0].swapcase() + s[1:]] + letters[i + 1 :]
            inversions.append({**table, key: " ".join(inverted)})
    assert (len(swaps), len(inversions)) == (66, 84)  # 18 non-empty entries of 84 letters
    assert all(mutant != table and derivation_failures(mutant) for mutant in swaps + inversions)


def test_specific_relators_b2():
    pres = build_presentation(2)
    by_source = {r.source: r for r in pres.relators}

    # rho_11 acting on rho_22 (j < k): plain commutator word
    rel = by_source["action rho_1j on rho_2k, j=1, k=2 (j<k)"]
    assert word_display(rel.word, 2) == ["r1_1", "r2_2", "r1_1^-1", "r2_2^-1"]

    # rho_11 acting on tau_21 (j = k): commutator equals A12^-1
    rel = by_source["action rho_1j on tau_2k, j=1, k=1 (j=k)"]
    assert word_display(rel.word, 2) == ["r1_1", "t2_1", "r1_1^-1", "t2_1^-1", "A12"]


def test_surface_relators_shape():
    pres = build_presentation(2)
    s1, s2 = list(pres.relators)[:2]
    assert s1.source == "surface relation 1"
    # raw word [r1_2^-1, t1_2^-1] t1_2^-1 [r1_1^-1, t1_1^-1] t1_1^-1
    # (t1_1 t1_2) A12^-1 after cancelling t1_2 t1_2^-1 and t1_1^-1 t1_1
    assert word_display(s1.word, 2) == [
        "r1_2^-1", "t1_2^-1", "r1_2",
        "r1_1^-1", "t1_1^-1", "r1_1",
        "t1_1", "t1_2", "A12^-1",
    ]
    assert s2.source == "surface relation 2"
    assert word_display(s2.word, 2)[-1] == "A12"  # ... = A12^-1 becomes trailing A12


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
    assert word_display(involution_substitute(tau(2, 1, 1), 2), 2) == ["t2_2^-1"]
    assert word_display(involution_substitute(rho(3, 1, 1), 3), 3) == ["r2_3"]


@pytest.mark.parametrize("b", range(2, 6))
def test_involution_sends_each_letter_to_its_stated_image(b):
    # r1_j -> r2_{b+1-j}, t1_j -> t2_{b+1-j}^-1, A12 -> A12^-1, and back
    expected = {"A12": "A12^-1", "A12^-1": "A12"}
    for j in range(1, b + 1):
        for s, t in ((1, 2), (2, 1)):
            expected[f"r{s}_{j}"] = f"r{t}_{b + 1 - j}"
            expected[f"r{s}_{j}^-1"] = f"r{t}_{b + 1 - j}^-1"
            expected[f"t{s}_{j}"] = f"t{t}_{b + 1 - j}^-1"
            expected[f"t{s}_{j}^-1"] = f"t{t}_{b + 1 - j}"
    letters = [x for i in range(1, 4 * b + 2) for x in (i, -i)]
    images = word_display(involution_substitute(tuple(letters), b), b)
    assert dict(zip(word_display(tuple(letters), b), images)) == expected


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
    a12_axis = 4 * b  # A12 is the last letter
    nonzero = 0
    for rel in pres.relators:
        vec = [0] * (4 * b + 1)
        for x in rel.word:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        assert all(v == 0 for i, v in enumerate(vec) if i != a12_axis), rel.source
        assert vec[a12_axis] in (-1, 0, 1), rel.source
        nonzero += vec[a12_axis] != 0
    # two surface relations plus one j=k relation per actor family and j
    assert nonzero == 4 * b + 2


def test_kernel_generator_sets():
    first, second = kernel_generator_sets(2)
    assert word_display(first, 2) == ["r2_1", "r2_2", "t2_1", "t2_2", "A12"]
    assert word_display(second, 2) == ["r1_1", "r1_2", "t1_1", "t1_2", "A12"]
    for b in (2, 3, 7):
        first, second = kernel_generator_sets(b)
        assert len(first) == len(second) == 2 * b + 1


def test_json_export_shape(capsys):
    assert main(["presentation", "--b", "2", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 42
    assert set(records[0]) == {"relator", "source"}
    assert all(isinstance(tok, str) for rec in records for tok in rec["relator"])


@pytest.mark.parametrize("b", range(2, 6))
def test_letter_names(b):
    names = [f"{kind}{s}_{j}" for s in (1, 2) for j in range(1, b + 1) for kind in "rt"] + ["A12"]
    if b == 2:
        assert names == ["r1_1", "t1_1", "r1_2", "t1_2", "r2_1", "t2_1", "r2_2", "t2_2", "A12"]
    assert word_display(range(1, 4 * b + 2), b) == names
    assert word_display(range(-1, -4 * b - 2, -1), b) == [name + "^-1" for name in names]


@pytest.mark.parametrize("b", [2, 3])
def test_check_letters_refuses_non_letters(b):
    check_letters((1, -1, 4 * b + 1, -(4 * b + 1)), b)
    for bad in (0, 4 * b + 2, -(4 * b + 2), True, 1.0):
        with pytest.raises(PreconditionError, match="not a generator index"):
            check_letters((1, bad), b)
        with pytest.raises(PreconditionError, match="not a generator index"):
            word_display((bad,), b)
