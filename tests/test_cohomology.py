"""Tests for cup products, the diagonal class, xi/eta and the classifier.

Rank assertions have a constructive oracle: every H^2 basis class is (up to
sign) the cup product of two explicit H^1 basis classes, which proves
surjectivity of xi without row reduction; eta inherits surjectivity through
the quotient.  Row reduction must then report full rank.
"""

import itertools

import numpy as np
import pytest

from heiskod import cohomology
from heiskod.cohomology import (
    H1Basis,
    H2Basis,
    classify_form,
    complement_betti,
    count_heisenberg_candidates,
    cup_h1_h1,
    diagonal_class,
    eta_matrix,
    lambda2_pairs,
    search_family_params,
    vec_of_form,
    xi_matrix,
    xi_of_form,
)
from heiskod.errors import PreconditionError
from heiskod.fplinalg import AlternatingForm, FpMatrix

_A, _B = 0, 1


def random_alternating(b, p, rng) -> AlternatingForm:
    n = 4 * b
    upper = rng.integers(0, p, size=(n, n))
    m = np.triu(upper, k=1)
    return AlternatingForm(FpMatrix(m - m.T, p))


def cup_reference(u, v, b, p):
    """sum over all (i1, i2) of u_i1 v_i2 cup(e_i1, e_i2) in Python integers."""
    out = [0] * (4 * b * b + 2)
    for i1, i2 in itertools.product(range(4 * b), repeat=2):
        hit = cohomology._cup_basis(i1, i2, b, p)
        if hit is not None:
            out[hit[0]] = (out[hit[0]] + int(u[i1]) * int(v[i2]) * hit[1]) % p
    return tuple(out)


def delta_quotient_reference(b, p):
    """Dense surjection H^2 -> H^2 / <delta>: subtract (first coordinate) *
    delta and drop the first coordinate."""
    delta = np.array(diagonal_class(b, p).coeffs, dtype=np.int64)
    n = delta.size
    q = np.zeros((n - 1, n), dtype=np.int64)
    q[:, 1:] = np.eye(n - 1, dtype=np.int64)
    q[:, 0] = (-delta[1:]) % p
    return FpMatrix(q, p)


# -- cup products ------------------------------------------------------------


def test_cup_basis_examples():
    b, p = 2, 5
    h1 = H1Basis(b)
    h2 = H2Basis(b)
    a1_left = h1.index_of(1, _A, 1)
    b1_left = h1.index_of(1, _B, 1)
    a1_right = h1.index_of(2, _A, 1)
    a2_left = h1.index_of(1, _A, 2)

    out = cup_h1_h1(a1_left, b1_left, b, p)
    assert out.coeffs[h2.GAMMA_LEFT] == 1 and sum(out.coeffs) == 1

    # (1(x)a_1)(b_1(x)1) = -b_1(x)a_1
    out = cup_h1_h1(a1_right, b1_left, b, p)
    expected = [0] * h2.size
    expected[h2.block_index(_B, _A, 1, 1)] = (-1) % p
    assert list(out.coeffs) == expected

    assert cup_h1_h1(a1_left, a2_left, b, p).is_zero()


def test_cup_graded_antisymmetry_and_bilinearity():
    b, p = 2, 7
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.integers(0, p, size=4 * b)
        v = rng.integers(0, p, size=4 * b)
        w = rng.integers(0, p, size=4 * b)
        uv = cup_h1_h1(u, v, b, p)
        vu = cup_h1_h1(v, u, b, p)
        assert uv == vu.scale(-1)
        c = int(rng.integers(0, p))
        left = cup_h1_h1((u + c * w) % p, v, b, p)
        assert left == cup_h1_h1(u, v, b, p) + cup_h1_h1(w, v, b, p).scale(c)


def test_mismatched_shapes_rejected():
    with pytest.raises(PreconditionError):
        cup_h1_h1([0] * 8, [0] * 12, 3, 5)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_cup_and_xi_match_dense_xi_matrix(p):
    rng = np.random.default_rng(p)
    for b in (2, 3):
        xi = xi_matrix(b, p)
        for _ in range(30):
            u = rng.integers(0, p, size=4 * b)
            v = rng.integers(0, p, size=4 * b)
            wedge = [int(u[a] * v[c] - u[c] * v[a]) % p for a, c in lambda2_pairs(b)]
            assert cup_h1_h1(u, v, b, p).coeffs == xi.apply(wedge) == cup_reference(u, v, b, p)
            form = random_alternating(b, p, rng)
            assert xi_of_form(form).coeffs == xi.apply(vec_of_form(form))


def test_cup_exact_at_large_p():
    # (p-1)^3 overflows int64 here; the product must stay exact
    b, p = 2, 3000017
    u = [0] * 8
    v = [0] * 8
    u[4] = v[0] = p - 1
    assert cup_h1_h1(u, v, b, p).coeffs == cup_reference(u, v, b, p)
    assert cup_h1_h1(u, v, b, p).coeffs[cohomology._cup_basis(4, 0, b, p)[0]] == p - 1
    rng = np.random.default_rng(5)
    for p in (3000017, 3037000493):
        for _ in range(20):
            u = [int(x) for x in rng.integers(0, p, size=8)]
            v = [int(x) for x in rng.integers(0, p, size=8)]
            assert cup_h1_h1(u, v, b, p).coeffs == cup_reference(u, v, b, p)
    with pytest.raises(PreconditionError):
        cup_h1_h1(u, v, b, 2**61 - 1)


# -- diagonal class ----------------------------------------------------------


def test_diagonal_class_b2():
    for p in (3, 2):
        h2 = H2Basis(2)
        d = diagonal_class(2, p)
        nonzero = {i: c for i, c in enumerate(d.coeffs) if c}
        expected = {
            h2.GAMMA_LEFT: 1,
            h2.GAMMA_RIGHT: 1,
            h2.block_index(_B, _A, 1, 1): 1,
            h2.block_index(_B, _A, 2, 2): 1,
            h2.block_index(_A, _B, 1, 1): (-1) % p,
            h2.block_index(_A, _B, 2, 2): (-1) % p,
        }
        assert nonzero == expected
        if p == 2:
            assert set(nonzero.values()) == {1}


def test_diagonal_class_counts():
    assert sum(1 for c in diagonal_class(3, 5).coeffs if c) == 8  # 2 + 2b


# -- xi ------------------------------------------------------------------


def test_xi_zero_form():
    form = AlternatingForm(FpMatrix.zeros(8, 8, 5))
    assert xi_of_form(form).is_zero()


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
    doubled = AlternatingForm(form.omega.scale(2))
    assert xi_of_form(doubled) == diagonal_class(b, p).scale(2)
    rng = np.random.default_rng(11)
    for _ in range(30):
        f1 = random_alternating(b, p, rng)
        f2 = random_alternating(b, p, rng)
        c = int(rng.integers(0, p))
        combo = AlternatingForm(f1.omega.scale(c) + f2.omega)
        assert xi_of_form(combo) == xi_of_form(f1).scale(c) + xi_of_form(f2)


# -- classifier --------------------------------------------------------------


def test_classify_examples():
    cls = classify_form(AlternatingForm.family(2, 5, (3, 3), (3, 3)))
    assert cls.is_heisenberg_type and cls.is_symplectic and cls.diagonal_multiple == 1

    cls = classify_form(AlternatingForm.degenerate_family(2, 3))
    assert cls.is_heisenberg_type and not cls.is_symplectic and cls.diagonal_multiple == 1

    cls = classify_form(AlternatingForm(FpMatrix.zeros(8, 8, 5)))
    assert not cls.is_heisenberg_type and cls.diagonal_multiple == 0


def test_classify_large_p():
    p = 1000000007
    form = AlternatingForm.family(2, p, (3, p - 2), (3, p - 2))
    cls = classify_form(form)
    assert cls.is_heisenberg_type and cls.is_symplectic and cls.diagonal_multiple == 1
    assert cls.xi_image == diagonal_class(2, p)
    assert form.det() == 576
    cls = classify_form(AlternatingForm(form.omega.scale(p - 1)))
    assert cls.diagonal_multiple == p - 1


@pytest.mark.parametrize("b,p,count", [(2, 3, 1000), (2, 5, 1000), (3, 3, 1000)])
def test_classifier_agrees_with_matrix_characterisation(b, p, count):
    """Heisenberg type <=> eta(omega) = 0 and xi(omega) != 0, batched."""
    rng = np.random.default_rng(97 * b + p)
    xi = xi_matrix(b, p).array()
    eta = eta_matrix(b, p).array()
    pairs = lambda2_pairs(b)
    # sprinkle in forms that are actual diagonal multiples so both branches
    # of the equivalence are exercised
    forms = [random_alternating(b, p, rng) for _ in range(count - 20)]
    for c in range(20):
        lam = rng.integers(0, p, size=b)
        lam[-1] = (1 - int(lam[:-1].sum())) % p
        mu = rng.integers(0, p, size=b)
        mu[-1] = (1 - int(mu[:-1].sum())) % p
        forms.append(AlternatingForm(AlternatingForm.family(b, p, lam, mu).omega.scale(c % p)))
    vecs = np.array([vec_of_form(f) for f in forms], dtype=np.int64).T
    xi_vals = (xi @ vecs) % p
    eta_vals = (eta @ vecs) % p
    for i, form in enumerate(forms):
        matrix_route = not eta_vals[:, i].any() and bool(xi_vals[:, i].any())
        assert classify_form(form).is_heisenberg_type == matrix_route
    assert len(pairs) == 8 * b * b - 2 * b


# -- matrices, ranks, counts ---------------------------------------------------


def surjectivity_oracle(b, p):
    """Each H^2 basis class is a basis cup product up to sign."""
    h1 = H1Basis(b)
    hit = set()
    for i1 in range(4 * b):
        for i2 in range(4 * b):
            out = cup_h1_h1(i1, i2, b, p)
            nz = [(k, c) for k, c in enumerate(out.coeffs) if c]
            if len(nz) == 1:
                hit.add(nz[0][0])
    return hit == set(range(H2Basis(b).size))


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
    assert all(x == 0 for x in q.apply(d.coeffs))
    assert not cohomology._mod_delta(np.array(d.coeffs), b, p).any()
    assert q.rank() == 4 * b * b + 1
    # delta is in the image of xi: it is xi of any family form with sums 1
    assert xi_of_form(AlternatingForm.family(b, p, (2, 2), (2, 2))) == d


@pytest.mark.parametrize("b,p", [(2, 2), (2, 3), (3, 5), (5, 7), (6, 13)])
def test_eta_is_dense_quotient_of_xi(b, p):
    assert eta_matrix(b, p) == delta_quotient_reference(b, p) @ xi_matrix(b, p)


def test_candidate_counts():
    assert count_heisenberg_candidates(2, 5) == 5**10 * 4
    assert count_heisenberg_candidates(2, 3) == 3**11 - 3**10
    assert count_heisenberg_candidates(3, 3) == 3**28 * 2


def test_complement_betti():
    assert complement_betti(2) == (1, 8, 17, 4, 0)
    assert complement_betti(3) == (1, 12, 37, 6, 0)
    # the quotient by the diagonal line drops exactly one dimension
    assert complement_betti(2)[2] == 4 * 2 * 2 + 2 - 1


# -- parameter search ----------------------------------------------------------


def search_oracle(b, p):
    """Plain itertools re-enumeration, independent of the library order tricks."""
    hits = []
    for lam in itertools.product(range(1, p), repeat=b):
        if sum(lam) % p != 1:
            continue
        for mu in itertools.product(range(1, p), repeat=b):
            if sum(mu) % p != 1:
                continue
            if all((l * m) % p != 1 for l, m in zip(lam, mu)):
                hits.append((lam, mu))
    return hits


def test_search_matches_oracle():
    assert search_family_params(2, 5) == search_oracle(2, 5)
    assert search_family_params(2, 5, 1) == [((2, 4), (4, 2))]
    assert search_family_params(3, 5, 2) == search_oracle(3, 5)[:2]


def test_search_empty_mod_3():
    assert search_family_params(2, 3) == []
    assert search_family_params(3, 3) == []


def test_search_refuses_nonpositive_count():
    for count in (0, -3):
        with pytest.raises(PreconditionError):
            search_family_params(2, 5, count)


def test_search_refuses_huge_spaces():
    from heiskod.errors import EnumerationBoundError

    with pytest.raises(EnumerationBoundError):
        search_family_params(8, 97)


def test_search_hits_classify_as_heisenberg_symplectic():
    for lam, mu in search_family_params(2, 7, 5):
        cls = classify_form(AlternatingForm.family(2, 7, lam, mu))
        assert cls.is_heisenberg_type and cls.is_symplectic
