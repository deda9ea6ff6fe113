"""Tests for cup products, the diagonal class, xi/eta and the classifier.

Rank assertions have a constructive oracle: every H^2 basis class is (up to
sign) the cup product of two explicit H^1 basis classes, which proves
surjectivity of xi without row reduction; eta inherits surjectivity through
the quotient.  Row reduction must then report full rank.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heiskod import cohomology
from heiskod.cohomology import (
    SEARCH_BOUND,
    classify_form,
    count_heisenberg_candidates,
    diagonal_class,
    eta_matrix,
    search_family_params,
    vec_of_form,
    xi_matrix,
    xi_of_form,
)
from heiskod.errors import InconsistencyError, PreconditionError
from heiskod.fplinalg import AlternatingForm, FpMatrix


def random_alternating(b, p, rng) -> AlternatingForm:
    n = 4 * b
    upper = rng.integers(0, p, size=(n, n))
    m = np.triu(upper, k=1)
    return AlternatingForm(FpMatrix((m - m.T).tolist(), p))


def combine(p, *terms):
    """Sum of c * x over the (c, x) terms, on plain lists: forms give a form,
    H^2 classes a coefficient tuple."""
    if isinstance(terms[0][1], AlternatingForm):
        mats = [(c, f.to_lists()) for c, f in terms]
        n = len(mats[0][1])
        rows = [[sum(c * m[i][j] for c, m in mats) for j in range(n)] for i in range(n)]
        return AlternatingForm(FpMatrix(rows, p))
    return tuple(sum(c * h[k] for c, h in terms) % p for k in range(len(terms[0][1])))


def cup_reference(u, v, b, p):
    """sum over all (i1, i2) of u_i1 v_i2 cup(e_i1, e_i2) in Python integers."""
    out = [0] * (4 * b * b + 2)
    for i1, i2 in itertools.product(range(4 * b), repeat=2):
        hit = cohomology._cup_basis(i1, i2, b, p)
        if hit is not None:
            out[hit[0]] = (out[hit[0]] + int(u[i1]) * int(v[i2]) * hit[1]) % p
    return tuple(out)


def xi_reference(form):
    """sum over a < c of Omega[a][c] cup(e_a, e_c), read off the cup rule."""
    b, p = form.dim // 4, form.p
    omega = form.to_lists()
    pairs = itertools.combinations(range(4 * b), 2)
    return combine(p, *((omega[a][c], cup_reference(basis(a, b), basis(c, b), b, p)) for a, c in pairs))


def cup(u, v, b, p):
    """u v through the matrix of xi: xi of the wedge u ^ v = u v^T - v u^T."""
    wedge = [int(u[a]) * int(v[c]) - int(u[c]) * int(v[a]) for a, c in itertools.combinations(range(4 * b), 2)]
    return xi_matrix(b, p).apply(wedge)


def basis(i, b):
    """The H^1 basis class e_i as a coefficient list."""
    return [int(k == i) for k in range(4 * b)]


def delta_quotient_reference(b, p):
    """Dense surjection H^2 -> H^2 / <delta>: subtract (first coordinate) *
    delta and drop the first coordinate."""
    delta = np.array(diagonal_class(b, p), dtype=np.int64)
    n = delta.size
    q = np.zeros((n - 1, n), dtype=np.int64)
    q[:, 1:] = np.eye(n - 1, dtype=np.int64)
    q[:, 0] = (-delta[1:]) % p
    return FpMatrix(q.tolist(), p)


# -- cup products ------------------------------------------------------------


def test_cup_basis_examples():
    b, p = 2, 5
    # H^1 at b = 2: a_1(x)1, b_1(x)1, a_2(x)1, b_2(x)1, 1(x)a_1, ...
    a1_left, b1_left, a2_left, a1_right = (basis(i, b) for i in (0, 1, 2, 4))

    out = cup(a1_left, b1_left, b, p)
    assert out[0] == 1 and sum(out) == 1  # g(x)1
    assert out == cup_reference(a1_left, b1_left, b, p)

    # (1(x)a_1)(b_1(x)1) = -b_1(x)a_1, H^2 index 2 + 2 b^2 (block BA)
    out = cup(a1_right, b1_left, b, p)
    expected = [0] * (4 * b * b + 2)
    expected[10] = (-1) % p
    assert list(out) == expected == list(cup_reference(a1_right, b1_left, b, p))

    assert not any(cup(a1_left, a2_left, b, p))


def test_cup_graded_antisymmetry_and_bilinearity():
    b, p = 2, 7
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.integers(0, p, size=4 * b)
        v = rng.integers(0, p, size=4 * b)
        w = rng.integers(0, p, size=4 * b)
        uv = cup(u, v, b, p)
        vu = cup(v, u, b, p)
        assert uv == combine(p, (-1, vu)) == cup_reference(u, v, b, p)
        c = int(rng.integers(0, p))
        left = cup((u + c * w) % p, v, b, p)
        assert left == combine(p, (1, cup(u, v, b, p)), (c, cup(w, v, b, p)))


def test_entry_beyond_int64_exact():
    # a wedge coordinate past int64 is reduced exactly
    e0 = basis(0, 2)
    huge = [10**30] + [0] * 7
    assert cup(huge, e0, 2, 5) == cup_reference(huge, e0, 2, 5)
    # a nonzero product: (10^30 + 2) e_4 . e_0 = 2 e_4 . e_0 mod 5
    u = [0] * 4 + [10**30 + 2] + [0] * 3
    product = cup(u, e0, 2, 5)
    assert product == cup_reference(u, e0, 2, 5) == cup([0] * 4 + [2] + [0] * 3, e0, 2, 5)
    assert any(product)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_cup_and_xi_match_dense_xi_matrix(p):
    rng = np.random.default_rng(p)
    for b in (2, 3):
        xi = xi_matrix(b, p)
        for _ in range(30):
            u = rng.integers(0, p, size=4 * b)
            v = rng.integers(0, p, size=4 * b)
            wedge = [int(u[a] * v[c] - u[c] * v[a]) % p for a, c in itertools.combinations(range(4 * b), 2)]
            assert xi.apply(wedge) == cup_reference(u, v, b, p)
            form = random_alternating(b, p, rng)
            assert xi_of_form(form) == xi_reference(form)


def test_cup_exact_at_large_p():
    # (p-1)^3 overflows int64 here; the product must stay exact
    b, p = 2, 3000017
    u = [0] * 8
    v = [0] * 8
    u[4] = v[0] = p - 1
    assert cup(u, v, b, p) == cup_reference(u, v, b, p)
    assert cup(u, v, b, p)[cohomology._cup_basis(4, 0, b, p)[0]] == p - 1
    rng = np.random.default_rng(5)
    for p in (3000017, 3037000493, 2**61 - 1):
        for _ in range(20):
            u = [int(x) for x in rng.integers(0, p, size=8)]
            v = [int(x) for x in rng.integers(0, p, size=8)]
            assert cup(u, v, b, p) == cup_reference(u, v, b, p)


# -- diagonal class ----------------------------------------------------------


def test_diagonal_class_b2():
    for p in (3, 2):
        d = diagonal_class(2, p)
        nonzero = {i: c for i, c in enumerate(d) if c}
        # g(x)1, 1(x)g, then the b x b blocks AA, AB, BA, BB from index 2
        expected = {
            0: 1,
            1: 1,
            10: 1,  # b_1(x)a_1
            13: 1,  # b_2(x)a_2
            6: (-1) % p,  # a_1(x)b_1
            9: (-1) % p,  # a_2(x)b_2
        }
        assert nonzero == expected
        if p == 2:
            assert set(nonzero.values()) == {1}


def test_diagonal_class_counts():
    assert sum(1 for c in diagonal_class(3, 5) if c) == 8  # 2 + 2b


# -- xi ------------------------------------------------------------------


def test_xi_zero_form():
    form = AlternatingForm(FpMatrix([[0] * 8] * 8, 5))
    assert not any(xi_of_form(form))


@pytest.mark.parametrize("b,p", [(2, 5), (2, 7), (3, 5), (2, 3)])
def test_xi_family_form_hits_diagonal(b, p):
    # any lambda, mu with both sums 1 (zeros and lambda*mu = 1 allowed: only
    # the sums matter for the image)
    rng = np.random.default_rng(b * 100 + p)
    for _ in range(20):
        lam = rng.integers(0, p, size=b)
        mu = rng.integers(0, p, size=b)
        lam[-1] = (1 - int(lam[:-1].sum())) % p
        mu[-1] = (1 - int(mu[:-1].sum())) % p
        form = AlternatingForm.family(b, p, lam.tolist(), mu.tolist())
        assert xi_of_form(form) == diagonal_class(b, p)


def test_xi_linearity_and_scaling():
    b, p = 2, 5
    form = AlternatingForm.family(b, p, (3, 3), (3, 3))
    doubled = combine(p, (2, form))
    assert xi_of_form(doubled) == combine(p, (2, diagonal_class(b, p)))
    rng = np.random.default_rng(11)
    for _ in range(30):
        f1 = random_alternating(b, p, rng)
        f2 = random_alternating(b, p, rng)
        c = int(rng.integers(0, p))
        combo = combine(p, (c, f1), (1, f2))
        assert xi_of_form(combo) == combine(p, (c, xi_of_form(f1)), (1, xi_of_form(f2)))


# -- classifier --------------------------------------------------------------


def test_classify_examples():
    form = AlternatingForm.family(2, 5, (3, 3), (3, 3))
    assert classify_form(form) == 1 and form.det() != 0

    form = AlternatingForm.family(2, 3, [-1] * 2, [-1] * 2)
    assert classify_form(form) == 1 and form.det() == 0

    # the zero form is on the line with k = 0, so it is not of Heisenberg type
    assert classify_form(AlternatingForm(FpMatrix([[0] * 8] * 8, 5))) == 0


def test_classify_large_p():
    p = 1000000007
    form = AlternatingForm.family(2, p, (3, p - 2), (3, p - 2))
    assert classify_form(form) == 1
    assert xi_of_form(form) == diagonal_class(2, p)
    assert form.det() == 576
    assert classify_form(combine(p, (p - 1, form))) == p - 1


@pytest.mark.parametrize("b,p,count", [(2, 3, 1000), (2, 5, 1000), (3, 3, 1000)])
def test_classifier_agrees_with_matrix_characterisation(b, p, count):
    """Heisenberg type <=> eta(omega) = 0 and xi(omega) != 0, batched."""
    rng = np.random.default_rng(97 * b + p)
    xi = np.array(xi_matrix(b, p).to_lists(), dtype=np.int64)
    eta = np.array(eta_matrix(b, p).to_lists(), dtype=np.int64)
    pairs = list(itertools.combinations(range(4 * b), 2))
    # sprinkle in forms that are actual diagonal multiples so both branches
    # of the equivalence are exercised
    forms = [random_alternating(b, p, rng) for _ in range(count - 20)]
    for c in range(20):
        lam = rng.integers(0, p, size=b)
        lam[-1] = (1 - int(lam[:-1].sum())) % p
        mu = rng.integers(0, p, size=b)
        mu[-1] = (1 - int(mu[:-1].sum())) % p
        forms.append(combine(p, (c, AlternatingForm.family(b, p, lam, mu))))
    vecs = np.array([vec_of_form(f) for f in forms], dtype=np.int64).T
    xi_vals = (xi @ vecs) % p
    eta_vals = (eta @ vecs) % p
    for i, form in enumerate(forms):
        on_line = not eta_vals[:, i].any()
        k = classify_form(form)
        assert (k not in (None, 0)) == (on_line and bool(xi_vals[:, i].any()))
        # on the line the multiple is the g(x)1 coordinate, as delta starts with 1
        assert k == (int(xi_vals[0, i]) if on_line else None)
    assert len(pairs) == 8 * b * b - 2 * b


# -- matrices, ranks, counts ---------------------------------------------------


def surjectivity_oracle(b, p):
    """Each H^2 basis class is a basis cup product up to sign."""
    hit = set()
    for i1 in range(4 * b):
        for i2 in range(4 * b):
            out = cup(basis(i1, b), basis(i2, b), b, p)
            assert out == cup_reference(basis(i1, b), basis(i2, b), b, p)
            nz = [(k, c) for k, c in enumerate(out) if c]
            if len(nz) == 1:
                hit.add(nz[0][0])
    return hit == set(range(4 * b * b + 2))


@pytest.mark.parametrize("b,p", [(2, 3), (2, 5), (3, 3), (2, 2)])
def test_xi_eta_ranks(b, p):
    assert surjectivity_oracle(b, p)
    xm = xi_matrix(b, p)
    em = eta_matrix(b, p)
    assert (xm.rows, xm.cols) == (4 * b * b + 2, 8 * b * b - 2 * b)
    assert (em.rows, em.cols) == (4 * b * b + 1, 8 * b * b - 2 * b)
    assert xm.rank() == 4 * b * b + 2
    assert em.rank() == 4 * b * b + 1
    assert em.rank() == xm.rank() - 1


def test_delta_maps_to_zero_in_quotient():
    b, p = 2, 3
    q = delta_quotient_reference(b, p)
    d = diagonal_class(b, p)
    assert all(x == 0 for x in q.apply(d))
    assert q.rank() == 4 * b * b + 1
    # delta is in the image of xi: it is xi of any family form with sums 1
    assert xi_of_form(AlternatingForm.family(b, p, (2, 2), (2, 2))) == d


@pytest.mark.parametrize("b,p", [(2, 2), (2, 3), (3, 5), (4, 7), (5, 7), (6, 13)])
def test_eta_is_dense_quotient_of_xi(b, p):
    assert eta_matrix(b, p) == delta_quotient_reference(b, p) @ xi_matrix(b, p)
    # the row operation on plain lists: row i of eta is row i + 1 of xi
    # minus delta_{i+1} times row 0
    xi = xi_matrix(b, p).to_lists()
    delta = diagonal_class(b, p)
    reference = [[(x - d * x0) % p for x, x0 in zip(row, xi[0])] for row, d in zip(xi[1:], delta[1:])]
    assert eta_matrix(b, p).to_lists() == reference


def test_classify_reads_the_cup_rule_once_per_genus(monkeypatch):
    """50 classifications at one (b, p) build xi once: one cup-rule lookup
    per wedge pair, 8b^2 - 2b in all."""
    b, p = 3, 5
    calls = []
    original = cohomology._cup_basis

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cohomology, "_cup_basis", counted)
    xi_matrix.cache_clear()
    hits = list(itertools.islice(search_family_params(b, p), 50))
    assert len(hits) == 50
    for lam, mu in hits:
        assert classify_form(AlternatingForm.family(b, p, lam, mu)) not in (None, 0)
    assert len(calls) == 8 * b * b - 2 * b


def test_cached_xi_is_never_changed_by_its_readers():
    b, p = 2, 5
    count_heisenberg_candidates(b, p)
    eta_matrix(b, p)
    classify_form(AlternatingForm.family(b, p, (3, 3), (3, 3)))
    assert xi_matrix(b, p) is xi_matrix(b, p)
    assert xi_matrix(b, p) == xi_matrix.__wrapped__(b, p)


def test_cached_xi_still_refuses_non_integers():
    xi_matrix(2, 5)
    for b, p in [(2.0, 5), (2, 5.0)]:
        with pytest.raises((TypeError, PreconditionError)):
            xi_matrix(b, p)


def test_candidate_counts():
    assert count_heisenberg_candidates(2, 5) == 5**10 * 4
    assert count_heisenberg_candidates(2, 3) == 3**11 - 3**10
    assert count_heisenberg_candidates(3, 3) == 3**28 * 2


def test_candidate_count_raises_off_its_closed_form(monkeypatch):
    # eta taken for xi: the two kernels agree and the count from ranks is 0
    monkeypatch.setattr(cohomology, "eta_matrix", cohomology.xi_matrix)
    with pytest.raises(InconsistencyError, match=r"from ranks \(0\) disagrees with closed form \(118098\) at b=2, p=3"):
        count_heisenberg_candidates(2, 3)


@pytest.mark.parametrize("b", [12, 14])
@pytest.mark.parametrize("p", [2, 3, 13])
def test_xi_eta_full_rank_at_benchmark_sizes(b, p):
    """The ranks behind the benchmark's candidate counts: xi is onto H^2 and
    eta drops exactly the diagonal line."""
    assert xi_matrix(b, p).rank() == 4 * b * b + 2
    assert eta_matrix(b, p).rank() == 4 * b * b + 1


# -- parameter search ----------------------------------------------------------


def oracle_hits(b, p):
    """Plain itertools re-enumeration, independent of the library order tricks."""
    tuples = [t for t in itertools.product(range(1, p), repeat=b) if sum(t) % p == 1]
    for lam in tuples:
        for mu in tuples:
            if all((l * m) % p != 1 for l, m in zip(lam, mu)):
                yield lam, mu


def search_oracle(b, p):
    return list(oracle_hits(b, p))


def test_search_matches_oracle():
    assert list(search_family_params(2, 5)) == search_oracle(2, 5)
    assert list(search_family_params(2, 5, 1)) == [((2, 4), (4, 2))]
    assert list(search_family_params(3, 5, 2)) == search_oracle(3, 5)[:2]


def test_search_empty_mod_3():
    assert list(search_family_params(2, 3)) == []
    assert list(search_family_params(3, 3)) == []


# Cells whose whole listing the oracle also exhausts; larger ones, (4, 11) with
# 542,001 hits and (4, 13), are compared on prefixes, to bound test time and memory.
ORACLE_EXHAUST_LIMIT = 10**5


def _search_case(bp):
    b, p = bp
    counts = st.integers(1, 50)
    if (p - 1) ** (2 * b - 2) <= ORACLE_EXHAUST_LIMIT:
        counts = st.none() | counts
    return st.tuples(st.just(b), st.just(p), counts)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(b, p) for b in (2, 3, 4) for p in (2, 3, 5, 7, 11, 13)]).flatmap(_search_case))
@example((2, 2, None))
@example((3, 2, None))  # 2 | b+1
@example((2, 3, None))  # 3 | b+1
@example((4, 3, 1))
@example((4, 5, None))  # 5 | b+1
@example((4, 13, 50))
def test_search_prefix_matches_oracle(case):
    b, p, k = case
    got = list(search_family_params(b, p, k))
    assert got == list(itertools.islice(oracle_hits(b, p), k))
    if p in (2, 3):
        assert got == []


def test_search_refuses_nonpositive_count():
    for count in (0, -3):
        with pytest.raises(PreconditionError):
            search_family_params(2, 5, count)


def test_search_refuses_huge_spaces():
    # the guard reads sizes: (p-1)^(2b-2) is never formed, so a huge genus is
    # refused at once, and a numpy p cannot wrap the power into a pass
    for b, p in [(8, 97), (15, 3), (10**6, 13), (10**11, 7), (10**11, np.int64(7))]:
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match=f"at b = {b}, p = {p} is more than {SEARCH_BOUND}, too large"):
            search_family_params(b, p)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("b,p", [(14, 3), (10**11, 2)])
def test_search_admits_spaces_under_the_bound(b, p):
    # 2^26 candidates at (14, 3), one at p = 2; the hits come lazily
    assert isinstance(search_family_params(b, p), itertools.islice)


def test_search_hits_classify_as_heisenberg_symplectic():
    for lam, mu in search_family_params(2, 7, 5):
        form = AlternatingForm.family(2, 7, lam, mu)
        assert classify_form(form) not in (None, 0) and form.det() != 0
