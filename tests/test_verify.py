"""Tests for word evaluation, relator verification, indices and the oracle.

The fast subgroup-order method and the exhaustive bitmap enumeration behind
``bfs_subgroup_order`` are independent routes to the same number; they are
compared on every standard case and on random generator subsets, including
the edge cases where a naive center-containment rule would go wrong.  A
pure-Python set closure is the reference for the oracle itself.
"""

import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiskod import verify
from heiskod.braid import build_presentation, rho, winding
from heiskod.cohomology import classify_form, eta_matrix, search_family_params
from heiskod.errors import PreconditionError
from heiskod.fplinalg import AlternatingForm, FpMatrix
from heiskod.heisenberg import HeisElement, HeisGroup
from heiskod.primes import admits
from heiskod.verify import (
    GeneratorAssignment,
    bfs_subgroup_order,
    evaluate_word,
    lift,
    precompose_involution,
    standard_assignment,
    subgroup_order_fast,
    tau2_to_r2_variant,
    verify_assignment,
)


@pytest.fixture(scope="module")
def nondeg25():
    return standard_assignment("nondegenerate", 2, 5, (3, 3), (3, 3))


def unit(group, i):
    """(e_i, 0), the i-th basis vector with central part 0."""
    return group.element([int(k == i) for k in range(group.dim)], 0)


def j_group(b, p):
    """Heis(F_p^{2b}, J_b), J_b with blocks [[0, -1], [1, 0]]."""
    rows = [{i + 1: -1} if i % 2 == 0 else {i - 1: 1} for i in range(2 * b)]
    return HeisGroup(AlternatingForm(FpMatrix.sparse(rows, 2 * b, p)))


# -- word evaluation -----------------------------------------------------------


def test_evaluate_word_basics(nondeg25):
    group = nondeg25.target
    assert evaluate_word(nondeg25, ()) == group.identity
    g = rho(2, 1, 1)[0]
    assert evaluate_word(nondeg25, (g, -g)) == group.identity


def test_surface_relator_closes_via_central_values(nondeg25):
    # the first surface relator evaluates to z^{sum lambda} z^-1 = identity
    first = next(iter(build_presentation(2).relators)).word
    assert evaluate_word(nondeg25, first) == nondeg25.target.identity
    # dropping the final A12^-1 letter leaves exactly z
    value = evaluate_word(nondeg25, first[:-1])
    assert value == nondeg25.target.central(1)


def test_image_tuple_of_wrong_length_refused(nondeg25):
    images = nondeg25.images
    # images[:5] would be genus 1; the plain ints are refused by their
    # length before any is read, and not as "not an element"
    for bad in ((), images[:5], images[:-1], images + images[-1:], list(images), (0, 1, 2, 3, 4)):
        with pytest.raises(PreconditionError, match="generator images for some genus b >= 2"):
            GeneratorAssignment("partial", nondeg25.target, bad)


def test_genus_read_off_the_images(nondeg25):
    assert GeneratorAssignment("nine", nondeg25.target, nondeg25.images).b == 2
    deg32 = standard_assignment("degenerate", 3, 2)
    assert GeneratorAssignment("thirteen", deg32.target, deg32.images).b == 3


def test_images_outside_the_target_refused(nondeg25):
    # an int image used to raise AttributeError in the evaluator
    group, images = nondeg25.target, nondeg25.images
    element = images[0]
    bad_images = [
        5,
        (element.v, element.t),  # a plain tuple, not an element
        HeisElement(element.v[:-1], 0),  # the wrong dimension
        HeisElement(element.v + (0,), 0),
        HeisElement((5,) + element.v[1:], 0),  # not reduced mod 5
        HeisElement((-1,) + element.v[1:], 0),
        HeisElement(element.v, 5),
        HeisElement((1.0,) + element.v[1:], 0),
        HeisElement((np.int64(1),) + element.v[1:], 0),
        HeisElement(list(element.v), 0),
    ]
    for bad in bad_images:
        with pytest.raises(PreconditionError, match="is not an element"):
            GeneratorAssignment("bad", group, (bad,) + images[1:])
    # any reduced element of the target is an image: the images rotated
    GeneratorAssignment("fine", group, images[1:] + images[:1])


def test_assignment_prime_is_its_targets():
    # an assignment carried a second prime that nothing compared with its
    # target's: the degenerate (2, 3) images under p = 7 were reported as
    # p = 7 and not ok, though every relator dies and A12 has order 3
    standard = standard_assignment("degenerate", 2, 3)
    assignment = GeneratorAssignment("degenerate", standard.target, standard.images)
    report = verify_assignment(assignment)
    assert report.p == 3 and report.ok
    assert verify_assignment(precompose_involution(assignment)).p == 3
    with pytest.raises(TypeError):
        GeneratorAssignment(7, "degenerate", standard.target, standard.images)


def test_unreduced_degenerate_images_refused():
    # entries 3 at p = 2 were accepted, and degenerate (3, 2) reported 86/86
    standard = standard_assignment("degenerate", 3, 2)
    images = tuple(HeisElement(tuple(3 * a for a in g.v), 3 * g.t) for g in standard.images)
    with pytest.raises(PreconditionError, match="reduced mod 2"):
        GeneratorAssignment("unreduced", standard.target, images)


def test_letters_out_of_range_refused(nondeg25):
    # b = 2: the letters are +-1..+-9; an array index would wrap silently
    assert evaluate_word(nondeg25, winding(2) + winding(2, -1)) == nondeg25.target.identity
    for bad in (0, 10, -10, 10**30):
        with pytest.raises(PreconditionError, match="not a generator index"):
            evaluate_word(nondeg25, (1, bad, -1))


def test_bool_letters_refused():
    # (True,) used to evaluate as r1_1; (1, True) as r1_1^2, since a set of
    # letters merges True into 1
    degenerate = standard_assignment("degenerate", 2, 3)
    for word in ((True,), (1, True), (False,), (np.True_,), (np.int64(1),), (1.0,)):
        with pytest.raises(PreconditionError, match="not a generator index"):
            evaluate_word(degenerate, word)


# -- the evaluator against a pure-Python reference ----------------------------------


def reference_products(cocycle, p, images, words):
    """Left-to-right products in Python integers, without numpy or the group:
    (v, t)(w, s) = (v + w, t + s + v.C.w) and (w, s)^-1 = (-w, -s + w.C.w).
    ``images`` lists the (w, s) of the letters 1..4b+1 in order."""
    dim = len(cocycle)

    def c_times(w):
        return [sum(cocycle[a][b] * w[b] for b in range(dim)) for a in range(dim)]

    def dot(v, u):
        return sum(x * y for x, y in zip(v, u))

    table = {}
    for i, (w, s) in enumerate(images, start=1):
        cw = c_times(w)
        table[i] = (w, s, cw)
        winv = [-x for x in w]
        table[-i] = (winv, -s + dot(w, cw), [-x for x in cw])
    out = []
    for word in words:
        v, t = [0] * dim, 0
        for x in word:
            w, s, cw = table[x]
            t = (t + s + dot(v, cw)) % p
            v = [(a + b) % p for a, b in zip(v, w)]
        out.append((tuple(v), t))
    return out


def check_against_reference(assignment, words):
    """evaluate_word must give the reference product of each word."""
    group = assignment.target
    images = [(list(g.v), g.t) for g in assignment.images]
    expected = reference_products(group.cocycle.to_lists(), group.p, images, words)
    for word, (v, t) in zip(words, expected):
        assert evaluate_word(assignment, word) == HeisElement(v, t)


def matrix_group(n, p):
    """H_{2n+1}(F_p) as a test case: the group of the standard symplectic
    form, labelled as the matrix Heisenberg group with its n, p and order."""
    group = HeisGroup(AlternatingForm.standard_symplectic(n, p))
    return pytest.param(group, id=f"MatrixHeisGroup(n={n}, p={p}, order={group.order})")


KERNEL_GROUPS = [
    HeisGroup(AlternatingForm.standard_symplectic(2, 3)),
    # degenerate form: ker(omega) is the third coordinate
    HeisGroup(AlternatingForm(FpMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], 5))),
    HeisGroup(AlternatingForm.standard_symplectic(3, 7)),
    matrix_group(3, 2),
    # the largest prime with 4 (p - 1)^2 < 2^63
    HeisGroup(AlternatingForm.standard_symplectic(2, 1518500213)),
]


@pytest.mark.parametrize("group", KERNEL_GROUPS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_matches_python_reference(group, data):
    b, p = 2, group.p
    n = 4 * b + 1
    element = st.tuples(
        st.lists(st.integers(0, p - 1), min_size=group.dim, max_size=group.dim), st.integers(0, p - 1)
    )
    raw = data.draw(st.lists(element, min_size=n, max_size=n))
    images = tuple(HeisElement(tuple(v), t) for v, t in raw)
    assignment = GeneratorAssignment("random", group, images)
    letter = st.integers(1, n).flatmap(lambda i: st.sampled_from([i, -i]))
    words = data.draw(st.lists(st.lists(letter, max_size=40).map(tuple), min_size=1, max_size=12))
    check_against_reference(assignment, words)


@pytest.mark.parametrize("family,b,p", [("degenerate", 5, 3), ("degenerate", 15, 2), ("nondegenerate", 6, 7)])
def test_every_relator_matches_python_reference(family, b, p):
    if family == "degenerate":
        standard = standard_assignment("degenerate", b, p)
    else:
        standard = standard_assignment("nondegenerate", b, p, (2,) * (b - 1) + (5,), (2,) * (b - 1) + (5,))
    words = [rel.word for rel in build_presentation(b).relators]
    check_against_reference(standard, words)
    # random images make most relators fail
    rng = random.Random(100 * b + p)
    group = standard.target
    images = tuple(
        HeisElement(tuple(rng.randrange(p) for _ in range(group.dim)), rng.randrange(p)) for _ in range(4 * b + 1)
    )
    check_against_reference(GeneratorAssignment("random", group, images), words)


def equivalence_assignments(b):
    """The standard assignments at genus b for two primes or more, their
    involution images, and per assignment one single-image mutation of every
    letter."""
    bases = [standard_assignment("degenerate", b, p) for p in (2, 3, 5, 7) if (b + 1) % p == 0]
    for p in (5, 7):
        lam, mu = next(search_family_params(b, p, 1))
        bases.append(standard_assignment("nondegenerate", b, p, lam, mu))
    out = []
    for base in bases + [precompose_involution(a) for a in bases]:
        out.append(base)
        group = base.target
        for i, g in enumerate(base.images):
            images = base.images[:i] + (group.mul(g, unit(group, i % group.dim)),) + base.images[i + 1 :]
            out.append(GeneratorAssignment(f"{base.family} mutated at {i + 1}", group, images))
    return out


@pytest.mark.parametrize("b", range(2, 7))
def test_templates_evaluate_as_their_words(b):
    """The report's failures, index, source and value, are exactly the
    materialised relator words that ``evaluate_word`` does not send to the
    identity, under every assignment: one evaluator, two ways of reading a
    relator."""
    relators = list(build_presentation(b).relators)
    failing = 0
    for assignment in equivalence_assignments(b):
        report = verify_assignment(assignment)
        identity = assignment.target.identity
        evaluated = ((i, rel.source, evaluate_word(assignment, rel.word)) for i, rel in enumerate(relators))
        assert list(report.failures) == [f for f in evaluated if f[2] != identity], assignment.family
        failing += bool(report.failures)
    assert failing > 4 * b  # the mutations do break relators


def test_evaluate_word_reads_the_table_built_with_the_assignment(monkeypatch):
    """The letter table is built once, with the assignment: evaluating every
    relator word of the presentation multiplies no matrix."""
    assignment = standard_assignment("degenerate", 6, 7)
    products = []
    matmul = FpMatrix.__matmul__
    monkeypatch.setattr(FpMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    words = [rel.word for rel in build_presentation(6).relators]
    assert all(evaluate_word(assignment, word) == assignment.target.identity for word in words)
    assert len(words) == 314 and not products


# -- standard assignments --------------------------------------------------------


def test_nondegenerate_verification(nondeg25):
    report = verify_assignment(nondeg25)
    assert not report.failures and report.total_relators == 42
    assert report.a12_order == 5
    assert report.m1 == report.m2 == 5**4 == 625
    assert report.is_surjective


def test_nondegenerate_parameter_validation():
    # the family checks its rule; AlternatingForm.family the counts and types
    for p, lambdas, mus, message in (
        (3, (1, 1), (1, 1), "needs a prime p >= 5, got 3"),
        (5, (0, 1), (3, 3), "must be nonzero mod p"),
        (5, (1, 1), (3, 3), "sum of lambdas is 2, must be 1 mod 5"),
        (5, (2, 4), (2, 3), "sum of mus is 0, must be 1 mod 5"),
        (5, (2, 4), (3, 3), r"lambda_1 \* mu_1 = 1 mod 5"),
        (5, (3,), (3, 3), "need 2 lambdas and 2 mus, got 1 and 2"),
    ):
        with pytest.raises(PreconditionError, match=message):
            standard_assignment("nondegenerate", 2, p, lambdas, mus)
    # the valid neighbour passes
    standard_assignment("nondegenerate", 2, 5, (2, 4), (4, 2))


def test_nondegenerate_parameters_refuse_floats():
    # 3.9 used to be read as lambda_1 = 3
    with pytest.raises(PreconditionError, match="^lambda must be an integer, got 3.9$"):
        standard_assignment("nondegenerate", 2, 5, (3.9, 3), (3, 3))
    with pytest.raises(PreconditionError, match="^mu must be an integer, got 3.0$"):
        standard_assignment("nondegenerate", 2, 5, (3, 3), (3, 3.0))


def test_unvalidated_bad_mu_fails_surface_relation_2(nondeg25):
    """mu = (2,3) sums to 0 mod 5; forced through, it must break relators."""
    group = HeisGroup(AlternatingForm.family(2, 5, (3, 3), (2, 3)))
    images = tuple(unit(group, i) for i in range(8)) + (group.central(1),)
    report = verify_assignment(GeneratorAssignment("forced", group, images))
    failed_sources = {src for _, src, _ in report.failures}
    assert "surface relation 2" in failed_sources


@pytest.mark.parametrize("b,p", [(2, 3), (3, 2), (4, 5), (5, 2), (5, 3)])
def test_degenerate_verification(b, p):
    report = verify_assignment(standard_assignment("degenerate", b, p))
    assert not report.failures
    assert report.total_relators == 8 * b * b + 4 * b + 2
    assert report.a12_order == p
    assert report.m1 == report.m2 == 1
    assert report.is_surjective


def test_relator_count_is_what_the_evaluator_walked(monkeypatch):
    # the count used to be the template formula 8b^2 + 4b + 2, so a walk that
    # skipped a relator still reported 42/42 at b = 2
    from heiskod import braid

    walk = braid._Templates.walk
    monkeypatch.setattr(braid._Templates, "walk", lambda self, sources=False: list(walk(self, sources))[:-1])
    report = verify_assignment(standard_assignment("degenerate", 2, 3))
    assert (report.total_relators, report.passed) == (41, 41)
    assert "relators passed: 41/41" in report.text()


def test_degenerate_preconditions():
    with pytest.raises(PreconditionError):
        standard_assignment("degenerate", 2, 2)  # 2 does not divide 3
    with pytest.raises(PreconditionError):
        standard_assignment("degenerate", 2, 4)  # not prime
    assert standard_assignment("degenerate", 3, 2).target.order == 128


@pytest.mark.parametrize(
    "args,message",
    # each case also breaks every rule checked after the one it names
    [
        (("nondegenerate", 1, 4, None, (0,)), "genus b must be >= 2, got 1"),
        (("degenerate", 100000, 4, (1,), None), "the lifting's images would hold 80000200000 entries, more than 10000000"),
        (("nondegenerate", 2, 4, None, (0,)), "the non-degenerate family needs a prime p >= 5, got 4"),
        (("degenerate", 2, 3, (1, 2), (3.5,)), "the degenerate family takes no lambdas or mus"),
        (("nondegenerate", 2, 5, None, (3.5,)), "the non-degenerate family needs lambdas and mus"),
        (("nondegenerate", 2, 5, (3,), (0.5, 0)), "need 2 lambdas and 2 mus, got 1 and 2"),
        (("nondegenerate", 2, 5, (1, 1), (2, 3)), "sum of lambdas is 2, must be 1 mod 5"),
    ],
    ids=["genus", "image-size", "family", "degenerate-lambda", "missing-lambda", "short-lambda", "lambda-sum"],
)
def test_standard_assignment_refuses_in_order(args, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        standard_assignment(*args)


@pytest.mark.parametrize("family", ["elliptic", "Degenerate", None, 3])
def test_unknown_family_is_a_precondition_error(family):
    with pytest.raises(PreconditionError, match="^unknown family"):
        standard_assignment(family, 2, 3)


def test_the_oracle_is_a_keyword_switch():
    # the oracle's bound is ENUMERATION_BOUND; a bound passed where the old
    # oracle_bound stood fails loudly instead of switching the oracle on
    assignment = standard_assignment("degenerate", 2, 3)
    with pytest.raises(TypeError):
        verify_assignment(assignment, 10**6)
    assert verify_assignment(assignment).oracle == ()
    report = verify_assignment(assignment, oracle=True)
    assert report.ok and [size for _, size, _ in report.oracle] == [243, 243]


def test_enumeration_bound_is_below_2_62():
    # so every bit index and shift count the oracle computes fits a machine word
    assert verify.ENUMERATION_BOUND < 2**62


def test_tau2_variant_fails_expected_relator(nondeg25):
    report = verify_assignment(tau2_to_r2_variant(nondeg25))
    assert report.failures
    by_source = {src: value for _, src, value in report.failures}
    key = "action rho_1j on tau_2k, j=1, k=1 (j=k)"
    assert key in by_source
    # the relator evaluates to the central z: [r_1j, r_2j] z = z
    assert by_source[key].t == 1
    assert not any(by_source[key].v)


def test_a12_mutation_breaks_surface_relation(nondeg25):
    images = nondeg25.images[:-1] + (nondeg25.target.identity,)
    mutated = GeneratorAssignment("a12-killed", nondeg25.target, images)
    report = verify_assignment(mutated)
    failures = {src: v for _, src, v in report.failures}
    assert "surface relation 1" in failures
    assert failures["surface relation 1"] == nondeg25.target.central(1)


def test_a12_order_is_one_or_p(nondeg25):
    report = verify_assignment(nondeg25)
    assert report.a12_order in (1, 5)
    for b, p in ((2, 3), (3, 2)):
        rep = verify_assignment(standard_assignment("degenerate", b, p))
        assert rep.a12_order in (1, p)


def test_degenerate_assignment_is_quotient_of_big_lifting():
    """Full pipeline check: the strand-separating images into the big group
    on the rank-2b form pass every relator (with disconnected-fibre indices
    p^{2b}), and merging the strands, r_sj -> r_j and t_sj -> t_j, reproduces
    the standard degenerate assignment exactly."""
    for b, p in ((2, 3), (4, 5), (3, 2)):
        big = HeisGroup(AlternatingForm.family(b, p, [-1] * b, [-1] * b))
        images = tuple(unit(big, i) for i in range(4 * b)) + (big.central(1),)
        assignment = GeneratorAssignment("degenerate-on-V", big, images)
        report = verify_assignment(assignment)
        assert not report.failures and report.a12_order == p
        assert report.m1 == report.m2 == p ** (2 * b)  # connected only after quotient

        standard = standard_assignment("degenerate", b, p)
        small = standard.target
        assert small.form == j_group(b, p).form

        def merge(g):
            # (v, t) -> (v_1 + v_2, t - sum_j v_t1j v_r2j), a homomorphism
            # onto Heis(F_p^{2b}, J_b)
            v1, v2 = g.v[: 2 * b], g.v[2 * b :]
            t = g.t - sum(v1[2 * j + 1] * v2[2 * j] for j in range(b))
            return small.element([x + y for x, y in zip(v1, v2)], t)

        for img, small_img in zip(images, standard.images):
            assert merge(img) == small_img
        rng = np.random.default_rng(b * p)
        for _ in range(100):
            g, h = (big.element(rng.integers(0, p, 4 * b), int(rng.integers(0, p))) for _ in range(2))
            assert merge(big.mul(g, h)) == small.mul(merge(g), merge(h))


# -- lift of a form ----------------------------------------------------------------


def form_of_wedge(w, b, p):
    """The alternating form with wedge-square coordinates w (upper triangle)."""
    rows = [{} for _ in range(4 * b)]
    for (a, c), x in zip(itertools.combinations(range(4 * b), 2), w):
        if x:
            rows[a][c], rows[c][a] = x, -x
    return AlternatingForm(FpMatrix.sparse(rows, 4 * b, p))


@pytest.mark.parametrize("b,p", [(2, 2), (2, 3), (2, 5), (3, 3)])
def test_lift_of_a_heisenberg_type_form_is_proved(b, p):
    # every form in ker eta is xi^-1 of a multiple k of the diagonal class;
    # lift sends A12 to that k, read off omega alone, and proves every
    # lift with k != 0
    rng = random.Random(b * 100 + p)
    kernel = eta_matrix(b, p).kernel_basis()
    proved = 0
    for _ in range(12):
        coeffs = [rng.randrange(p) for _ in kernel]
        form = form_of_wedge([sum(c * v[i] for c, v in zip(coeffs, kernel)) % p for i in range(len(kernel[0]))], b, p)
        assignment = lift(form, "ker-eta")
        k = classify_form(form)
        assert assignment.images[-1] == assignment.target.central(k)
        if k:
            assert verify_assignment(assignment).ok
            proved += 1
    assert proved >= 4  # k = 0 on about one form in p


def test_lift_refutes_a_form_outside_the_family():
    # sum lambda = 2 at p = 5: xi(Omega) is not a multiple of the diagonal
    # class, and the one relation that reads the sum breaks
    report = verify_assignment(lift(AlternatingForm.family(2, 5, (1, 1), (3, 3)), "forced"))
    assert {source for _, source, _ in report.failures} == {"surface relation 1"}


@pytest.mark.parametrize(
    "b,p,lambdas,mus,rank",
    [(3, 2, (-1,) * 3, (-1,) * 3, 6), (5, 3, (-1,) * 5, (-1,) * 5, 10), (2, 5, (3, 3), (3, 3), 8)],
    ids=["degenerate-3-2", "degenerate-5-3", "nondegenerate-2-5"],
)
def test_lift_targets_the_form_on_its_pivot_coordinates(b, p, lambdas, mus, rank):
    # the target's form is omega restricted to the pivots of rref(omega),
    # read off the dense matrix; the degenerate forms are singular
    form = AlternatingForm.family(b, p, lambdas, mus)
    _, pivots = form.rref()
    omega = form.to_lists()
    assert len(pivots) == rank
    assert lift(form, "any").target.form.to_lists() == [[omega[i][j] for j in pivots] for i in pivots]


@pytest.mark.parametrize("dim", [0, 1, 2, 4, 6, 7, 9, 10, 11])
def test_lift_refuses_a_form_whose_dimension_is_not_4b(dim):
    # the library fuzz gate's finding: the form of dimension 0 raised
    # IndexError reading the coordinate of rho_11
    with pytest.raises(PreconditionError, match=f"^form dimension {dim} is not 4b for some b >= 2$"):
        lift(AlternatingForm.sparse([{}] * dim, dim, 5), "any")


@pytest.mark.parametrize("dim", [8, 12])
@pytest.mark.parametrize("p", [2, 5])
def test_lift_of_the_zero_form_is_measured_not_refused(p, dim):
    # rank 0 has no reduced rows, so the images were read off no columns and
    # refused as "need a tuple of 4b + 1 generator images"; every letter goes
    # to the identity of the order-p centre, and A12 too, since k = 0
    assignment = lift(AlternatingForm.sparse([{}] * dim, dim, p), "zero")
    assert len(assignment.images) == dim + 1
    assert set(assignment.images) == {assignment.target.identity}
    report = verify_assignment(assignment, oracle=True)
    assert (report.total_relators, report.failures) == (8 * (dim // 4) ** 2 + dim + 2, ())
    assert (report.target_order, report.a12_order, report.m1, report.m2) == (p, 1, p, p)
    assert not report.is_surjective and not report.ok
    assert report.oracle == (("m1", 1, True), ("m2", 1, True))


def test_degenerate_admission_rule_is_the_classifiers():
    # p | b + 1 is exactly when the all-J form Omega_b(-1, ..., -1) is of
    # Heisenberg type with k != 0
    for b in range(2, 9):
        for p in (2, 3, 5, 7, 11):
            k = classify_form(AlternatingForm.family(b, p, (-1,) * b, (-1,) * b))
            assert admits("degenerate", b, p) == (k not in (None, 0)), (b, p)


@pytest.mark.parametrize("b,p", [(2, 3), (2, 5), (2, 7), (3, 2), (3, 7)])
def test_family_form_is_of_heisenberg_type_when_both_sums_are_one(b, p):
    rng = random.Random(b * p)
    for _ in range(40):
        # half the draws are adjusted so that both sums are 1
        lam, mu = [rng.randrange(p) for _ in range(b)], [rng.randrange(p) for _ in range(b)]
        if rng.random() < 0.5:
            lam[0], mu[0] = (lam[0] + 1 - sum(lam)) % p, (mu[0] + 1 - sum(mu)) % p
        ones = sum(lam) % p == sum(mu) % p == 1
        assert classify_form(AlternatingForm.family(b, p, lam, mu)) == (1 if ones else None), (lam, mu)


# -- involution precomposition -----------------------------------------------------


@pytest.mark.parametrize("b,p", [(2, 3), (3, 2)])
def test_involution_precompose_degenerate(b, p):
    base = standard_assignment("degenerate", b, p)
    report = verify_assignment(precompose_involution(base))
    assert not report.failures and report.is_surjective


def test_involution_precompose_nondegenerate(nondeg25):
    report = verify_assignment(precompose_involution(nondeg25))
    assert not report.failures


# -- subgroup orders -----------------------------------------------------------------


def test_image_index_full_generating_set(nondeg25):
    target = nondeg25.target
    assert target.order // subgroup_order_fast(target, nondeg25.images) == 1


def test_kernel_set_indices_and_bfs(nondeg25):
    target = nondeg25.target
    first, second = nondeg25.images[4:], nondeg25.images[:4] + nondeg25.images[-1:]  # strands 2 and 1, A12
    assert target.order // subgroup_order_fast(target, first) == 625
    assert target.order // subgroup_order_fast(target, second) == 625
    assert bfs_subgroup_order(target, first) == 3125  # 5^9 / 5^4


@pytest.mark.parametrize(
    "assignment,calls",
    [
        # the degenerate family's two kernel sets are one set of images
        (lambda: standard_assignment("degenerate", 3, 2), 2),
        (lambda: standard_assignment("nondegenerate", 2, 5, (3, 3), (3, 3)), 3),
    ],
)
def test_structural_order_runs_once_per_distinct_generating_set(monkeypatch, assignment, calls):
    counted = []
    order = verify.subgroup_order_fast

    def counting(group, elements):
        counted.append(elements)
        return order(group, elements)

    monkeypatch.setattr(verify, "subgroup_order_fast", counting)
    report = verify_assignment(assignment())
    # the kernel sets, then every image for surjectivity
    assert len(counted) == calls and report.ok


@pytest.mark.parametrize("b,p", [(2, 3), (3, 2), (5, 2), (5, 3)])
def test_bfs_matches_fast_index_degenerate(b, p):
    assignment = standard_assignment("degenerate", b, p)
    els = assignment.images[2 * b :]  # strand 2 and A12
    assert bfs_subgroup_order(assignment.target, els) == assignment.target.order
    assert subgroup_order_fast(assignment.target, els) == assignment.target.order


@pytest.mark.slow
def test_bfs_matches_fast_index_degenerate_45():
    assignment = standard_assignment("degenerate", 4, 5)
    els = assignment.images[8:]  # strand 2 and A12
    assert assignment.target.order == 5**9
    assert bfs_subgroup_order(assignment.target, els) == 5**9
    assert subgroup_order_fast(assignment.target, els) == 5**9


def test_bfs_memory_is_bounded():
    # a few copies of the set, 5 slabs of 5^8 bits (49 KiB each), and about
    # 40 masks of one slab each for the digits the generators touch: about
    # 3.5 MiB in all
    assignment = standard_assignment("degenerate", 4, 5)
    els = assignment.images[8:]  # strand 2 and A12
    tracemalloc.start()
    try:
        assert bfs_subgroup_order(assignment.target, els) == 5**9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_surjectivity_index_memory_is_bounded():
    # the pairing of the 801 generator projections stays sparse: with the
    # dense 801 x 801 lists built to look for a nonzero entry the index
    # peaked at 5.7 MiB under tracemalloc, sparse it peaks at 0.85 MiB
    b, p = 200, 67
    assignment = standard_assignment("degenerate", b, p)
    tracemalloc.start()
    try:
        assert subgroup_order_fast(assignment.target, assignment.images) == assignment.target.order
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("p", [131, 257])
def test_bfs_exact_at_digit_type_edges(p, monkeypatch):
    # p = 257 is the first prime whose digit values need 9 bits, so each
    # twist takes 9 masked moves; coordinates near p - 1 make most digit
    # rotations wrap
    group = HeisGroup(AlternatingForm.standard_symplectic(1, p))
    monkeypatch.setattr(verify, "ENUMERATION_BOUND", 2 * 10**7)  # 257^3 is above the bound
    g = group.element((p - 1, p - 2), p - 1)
    h = group.element((p - 2, p - 4), 1)  # g^2 times a nonzero central element
    for els, order in (([g], p), ([g, h], p * p)):
        assert bfs_subgroup_order(group, els) == order
        assert subgroup_order_fast(group, els) == order
        assert closure_order(group, els) == order


@pytest.mark.parametrize("p", [37, 41])
def test_bfs_whole_group_at_large_p(p):
    # every slab ends full, with every digit value present
    group = HeisGroup(AlternatingForm.standard_symplectic(1, p))
    els = [group.element((p - 1, p - 2), p - 3), group.element((p - 4, p - 1), p - 1)]
    assert bfs_subgroup_order(group, els) == p**3
    assert subgroup_order_fast(group, els) == p**3
    assert closure_order(group, els) == p**3


def test_bfs_whole_group_at_uint8_edge():
    group = HeisGroup(AlternatingForm.standard_symplectic(1, 131))
    els = [group.element((130, 129), 128), group.element((127, 130), 130)]
    assert bfs_subgroup_order(group, els) == 131**3 == 2_248_091
    assert subgroup_order_fast(group, els) == 131**3


def test_fast_order_edge_cases():
    """Cases where 'a nonzero central part implies center containment' fails."""
    group = HeisGroup(AlternatingForm.standard_symplectic(2, 5))
    one = group.element((1, 2, 0, 3), 1)  # nonzero central part, u != 0
    assert subgroup_order_fast(group, [one]) == 5
    assert bfs_subgroup_order(group, [one]) == 5
    # adding an explicit central element does hit the center
    assert subgroup_order_fast(group, [one, group.central(1)]) == 25
    assert bfs_subgroup_order(group, [one, group.central(1)]) == 25
    # two commuting generators whose central parts are independent of the
    # projections: (e1, 0) and (2 e1, 1) -> projections span one line but the
    # combination g2 * g1^-2 is exactly z
    g1 = group.element((1, 0, 0, 0), 0)
    g2 = group.element((2, 0, 0, 0), 1)
    assert subgroup_order_fast(group, [g1, g2]) == 25
    assert bfs_subgroup_order(group, [g1, g2]) == 25
    assert subgroup_order_fast(group, []) == 1


def test_fast_order_exact_at_large_p():
    # g and g^2 generate a cyclic group of order p; the pairing
    # proj . C . proj^T used to wrap around int64 and report p^2
    p = 1000003
    group = HeisGroup(AlternatingForm.family(3, p, (1, 2, 3), (4, 5, 6)))
    g = group.element([p - 1] * 12, p - 1)
    assert subgroup_order_fast(group, [g, group.power(g, 2)]) == p


def test_fast_order_matches_bfs_on_random_subsets():
    rng = random.Random(23)
    group = j_group(2, 3)  # order 3^5 = 243
    for _ in range(60):
        els = [random_element(group, rng) for _ in range(rng.randint(1, 4))]
        assert subgroup_order_fast(group, els) == bfs_subgroup_order(group, els)
    mgroup = HeisGroup(AlternatingForm.standard_symplectic(2, 2))  # order 32, exercises the square test
    for _ in range(60):
        els = [random_element(mgroup, rng) for _ in range(rng.randint(1, 4))]
        assert subgroup_order_fast(mgroup, els) == bfs_subgroup_order(mgroup, els)


def test_bfs_of_identity_is_trivial():
    group = HeisGroup(AlternatingForm.standard_symplectic(1, 3))
    assert bfs_subgroup_order(group, [group.identity]) == 1
    # central generators touch no coordinate: the enumeration is over F_p alone
    assert bfs_subgroup_order(group, [group.identity, group.central(2)]) == 3


def test_bfs_enumerates_only_the_touched_coordinates():
    # 3^13 elements; each generator set touches a few coordinates, one
    # twisted pair (0, 1) of J_6 among them, so the oracle marks 3^6 at most
    group = j_group(6, 3)
    rng = random.Random(13)
    for _ in range(20):
        touched = {0, 1, *rng.sample(range(2, 12), rng.randint(0, 3))}
        els = [
            group.element([rng.randrange(3) if c in touched else 0 for c in range(12)], rng.randrange(3))
            for _ in range(rng.randint(1, 3))
        ]
        assert bfs_subgroup_order(group, els) == subgroup_order_fast(group, els) == closure_order(group, els)


def test_bfs_bound_is_enforced(monkeypatch):
    group = HeisGroup(AlternatingForm.standard_symplectic(2, 5))
    # the bound is read at call time
    monkeypatch.setattr(verify, "ENUMERATION_BOUND", 10)
    with pytest.raises(PreconditionError, match="exceeds the enumeration bound 10$"):
        bfs_subgroup_order(group, [group.central(1)])
    # the bound is on the group, however few coordinates the generators touch
    monkeypatch.setattr(verify, "ENUMERATION_BOUND", group.order - 1)
    with pytest.raises(PreconditionError, match=f"exceeds the enumeration bound {group.order - 1}$"):
        bfs_subgroup_order(group, [unit(group, 0)])
    monkeypatch.setattr(verify, "ENUMERATION_BOUND", group.order)
    assert bfs_subgroup_order(group, [unit(group, 0)]) == 5

    # a mask that cannot be allocated is refused, not raised as a crash:
    # the first one, and one built after the enumeration has begun
    tiled = verify._tiled
    for fail_at in (1, 2):
        calls = []

        def no_memory(*args):
            calls.append(None)
            if len(calls) == fail_at:
                raise MemoryError
            return tiled(*args)

        monkeypatch.setattr(verify, "_tiled", no_memory)
        with pytest.raises(PreconditionError, match="not enough memory"):
            bfs_subgroup_order(group, [unit(group, 0), unit(group, 2)])
        assert len(calls) == fail_at


def test_enumeration_guard_and_input_refusals(monkeypatch):
    group = HeisGroup(AlternatingForm.standard_symplectic(1, 5))
    # a float is refused, not truncated to a bit (1.5 read as 1)
    for bad in (HeisElement((1.5, 2), 0), HeisElement((1, 2), 0.5)):
        with pytest.raises(PreconditionError):
            bfs_subgroup_order(group, [bad])
    # so is an element of another dimension
    with pytest.raises(PreconditionError):
        bfs_subgroup_order(group, [HeisElement((1, 2, 3), 0)])
    big = HeisGroup(AlternatingForm.family(3, 7, (1, 1, 6), (2, 2, 4)))
    with monkeypatch.context() as patched, pytest.raises(PreconditionError, match="exceeds the enumeration bound 100$"):
        patched.setattr(verify, "ENUMERATION_BOUND", 100)
        bfs_subgroup_order(big, [big.central(1)])

    # an allocation that fails is refused, not raised as a crash: here the
    # square of a generator, taken once it has added elements
    def no_memory(self, g, k):
        raise MemoryError

    monkeypatch.setattr(HeisGroup, "power", no_memory)
    with pytest.raises(PreconditionError, match="not enough memory"):
        bfs_subgroup_order(group, [unit(group, 0)])


# -- the oracle against a set-closure reference ----------------------------------


def closure_order(group, elements):
    """Reference order: multiply by the generators until nothing new appears."""
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        fresh = []
        for h in frontier:
            for g in elements:
                x = group.mul(h, g)
                if x not in seen:
                    seen.add(x)
                    fresh.append(x)
        frontier = fresh
    return len(seen)


def random_element(group, rng):
    return HeisElement(tuple(rng.randrange(group.p) for _ in range(group.dim)), rng.randrange(group.p))


SMALL_GROUPS = [
    matrix_group(2, 2),  # order 32, elements of order 4
    matrix_group(3, 2),  # order 128
    HeisGroup(AlternatingForm.standard_symplectic(2, 3)),  # order 243
    HeisGroup(AlternatingForm.standard_symplectic(1, 5)),  # order 125
    # degenerate form: the center is ker(omega) x F_5
    HeisGroup(AlternatingForm(FpMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], 5))),  # order 625
]


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=repr)
def test_oracle_matches_set_closure(group):
    rng = random.Random(group.order)
    for _ in range(25):
        els = [random_element(group, rng) for _ in range(rng.randint(1, 3))]
        assert bfs_subgroup_order(group, els) == closure_order(group, els)
    # sparse generators, as the standard assignments use
    basis = [unit(group, i) for i in range(group.dim)]
    for k in range(1, group.dim + 1):
        assert bfs_subgroup_order(group, basis[:k]) == closure_order(group, basis[:k])


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=repr)
def test_oracle_redundant_generators(group):
    rng = random.Random(7)
    g, h = random_element(group, rng), random_element(group, rng)
    assert bfs_subgroup_order(group, []) == 1
    assert bfs_subgroup_order(group, [group.identity, group.identity]) == 1
    base = bfs_subgroup_order(group, [g, h])
    assert base == closure_order(group, [g, h])
    assert bfs_subgroup_order(group, [g, g, h, h, g]) == base  # duplicates
    assert bfs_subgroup_order(group, [group.identity, g, group.identity, h]) == base
    # generators already in the subgroup generated so far
    assert bfs_subgroup_order(group, [g, h, group.mul(g, h), group.power(g, 2)]) == base
    commutator = group.mul(group.mul(g, h), group.mul(group.inv(g), group.inv(h)))
    assert bfs_subgroup_order(group, [g, h, commutator, group.inv(h)]) == base
    assert bfs_subgroup_order(group, [g, group.power(g, group.p - 1)]) == group.order_of(g)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=repr)
def test_oracle_ignores_generator_order(group):
    rng = random.Random(11)
    for _ in range(3):
        els = [random_element(group, rng) for _ in range(3)] + [group.central(1)]
        orders = {bfs_subgroup_order(group, list(perm)) for perm in itertools.permutations(els)}
        assert orders == {closure_order(group, els)}


# groups with the number of random vectors spanning the generators' projections
CROSS_CHECK_GROUPS = [
    (HeisGroup(AlternatingForm.standard_symplectic(3, 2)), 5),  # p = 2, elements of order 4
    (j_group(3, 5), 4),
    (HeisGroup(AlternatingForm.family(2, 5, (3, 3), (3, 3))), 4),  # C has two entries in some rows
    (HeisGroup(AlternatingForm.standard_symplectic(1, 61)), 1),
]


@pytest.mark.parametrize("group,span", CROSS_CHECK_GROUPS, ids=[repr(g) for g, _ in CROSS_CHECK_GROUPS])
def test_oracle_matches_closure_and_fast_order_on_proper_subgroups(group, span):
    # generators whose projections lie in the span of fewer than dim random
    # vectors generate a proper subgroup, of order at most p^(span + 1)
    rng = random.Random(group.order)
    for _ in range(20):
        spanning = [[rng.randrange(group.p) for _ in range(group.dim)] for _ in range(rng.randint(1, span))]
        els = []
        for _ in range(rng.randint(1, len(spanning) + 1)):
            coeffs = [rng.randrange(group.p) for _ in spanning]
            v = tuple(sum(c * u[k] for c, u in zip(coeffs, spanning)) % group.p for k in range(group.dim))
            els.append(HeisElement(v, rng.randrange(group.p)))
        order = closure_order(group, els)
        assert order < group.order
        assert bfs_subgroup_order(group, els) == order == subgroup_order_fast(group, els)


def test_null_combinations_skip_zero_coefficients(monkeypatch, nondeg25):
    # the m1 images of the tau_2j -> r_2j variant at (2, 5) are r_21, r_21,
    # r_22, r_22, z: they commute and have order p, so the order is decided on
    # the null combinations (-1, 1, 0, 0, 0), (0, 0, -1, 1, 0), (0, 0, 0, 0, 1)
    # of their projections, one product per nonzero coefficient
    assignment = tau2_to_r2_variant(nondeg25)
    els = assignment.images[4:]  # strand 2 and A12
    calls = []
    mul = HeisGroup.mul

    def counted(self, g, h):
        calls.append(None)
        return mul(self, g, h)

    monkeypatch.setattr(HeisGroup, "mul", counted)
    assert subgroup_order_fast(assignment.target, els) == 125
    assert len(calls) == 5


@pytest.mark.parametrize("b,p", [(2, 3), (3, 5), (4, 7)])
def test_odd_p_central_powers_are_the_identity(monkeypatch, b, p):
    # r_1, ..., r_b of J_b commute and have independent projections, so no
    # pairing and no null combination can hit the center; each generator's
    # p-th power is taken, as at every prime, and at odd p it is the identity
    group = j_group(b, p)
    els = [unit(group, 2 * j) for j in range(b)]
    calls = []
    power = HeisGroup.power

    def counted(self, g, k):
        calls.append((g, k, power(self, g, k)))
        return calls[-1][2]

    monkeypatch.setattr(HeisGroup, "power", counted)
    assert subgroup_order_fast(group, els) == p**b
    assert calls == [(g, p, group.identity) for g in els]


# -- report serialisation --------------------------------------------------------


def test_report_json_golden():
    report = verify_assignment(standard_assignment("degenerate", 2, 3))
    assert report.to_json_dict() == {
        "b": 2,
        "p": 3,
        "family": "degenerate",
        "relators": 42,
        "passed": 42,
        "a12_order": 3,
        "m1": 1,
        "m2": 1,
        "surjective": True,
    }
