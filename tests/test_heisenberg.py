"""Tests for the Heisenberg groups of alternating forms.

On the standard symplectic form the product law is proved against literal
(n+2) x (n+2) unitriangular matrix multiplication, exhaustively for
H_3(F_2) and on random pairs for larger parameters; after that the closed
form is trusted everywhere else.  For odd p, the law twisted by omega / 2 is
the reference for the isomorphism (v, t) -> (v, t + v . C . v / 2) onto it.
"""

import collections
import itertools
import random
import time

import numpy as np
import pytest

from heiskod.errors import InconsistencyError, PreconditionError
from heiskod.fplinalg import AlternatingForm, FpMatrix
from heiskod.heisenberg import STRUCTURE_BOUND, HeisElement, HeisGroup, verify_extra_special


def literal_matrix(g: HeisElement, n: int, p: int) -> np.ndarray:
    """The unitriangular matrix of (x + y, z): top row x, right column y, corner z."""
    m = np.eye(n + 2, dtype=np.int64)
    m[0, 1 : n + 1] = g.v[:n]
    m[1 : n + 1, n + 1] = g.v[n:]
    m[0, n + 1] = g.t
    return m % p


def std(n, p) -> HeisGroup:
    """H_{2n+1}(F_p): the group of the standard symplectic form on F_p^{2n}."""
    return HeisGroup(AlternatingForm.standard_symplectic(n, p))


def unit(group: HeisGroup, i: int) -> HeisElement:
    """(e_i, 0), the i-th basis vector with central part 0."""
    return group.element([int(k == i) for k in range(group.dim)], 0)


def j_group(b: int, p: int) -> HeisGroup:
    """Heis(F_p^{2b}, J_b), J_b with blocks [[0, -1], [1, 0]]."""
    rows = [{i + 1: -1} if i % 2 == 0 else {i - 1: 1} for i in range(2 * b)]
    return HeisGroup(AlternatingForm(FpMatrix.sparse(rows, 2 * b, p)))


def upper_twist(form: AlternatingForm, u, w) -> int:
    """sum over i < j of omega_ij u_i w_j, in Python integers."""
    omega = form.to_lists()
    return sum(omega[i][j] * u[i] * w[j] for i in range(form.dim) for j in range(i + 1, form.dim))


def form_value(form: AlternatingForm, u, w) -> int:
    """omega(u, w) = sum over i, j of u_i omega_ij w_j mod p, in Python integers."""
    omega = form.to_lists()
    return sum(u[i] * omega[i][j] * w[j] for i in range(form.dim) for j in range(form.dim)) % form.p


def commutator(group: HeisGroup, g: HeisElement, h: HeisElement) -> HeisElement:
    """[g, h] = g h g^-1 h^-1 from the group's product and inverse."""
    return group.mul(group.mul(g, h), group.mul(group.inv(g), group.inv(h)))


# -- group law ------------------------------------------------------------------


def test_pair_identity_and_example():
    g5 = std(1, 5)
    e1 = g5.element((1, 0), 0)
    e2 = g5.element((0, 1), 0)
    assert g5.mul(g5.identity, e1) == e1
    # the cocycle is the upper triangle of omega: c(e1, e2) = 1, c(e2, e1) = 0
    assert g5.mul(e1, e2) == g5.element((1, 1), 1)
    assert g5.mul(e2, e1) == g5.element((1, 1), 0)
    assert commutator(g5, e1, e2) == g5.element((0, 0), 1)


def test_cocycle_is_upper_triangle_of_omega():
    for form in (
        AlternatingForm.standard_symplectic(2, 2),
        AlternatingForm.family(2, 2, (1, 0), (0, 1)),
        AlternatingForm.family(2, 3, [-1] * 2, [-1] * 2),
        AlternatingForm.family(2, 7, (1, 2), (3, 4)),
    ):
        group = HeisGroup(form)
        c = np.array(group.cocycle.to_lists())
        assert not np.tril(c).any()
        assert ((c - c.T - np.array(form.to_lists())) % form.p == 0).all()
    # standard symplectic form: C = [[0, I], [0, 0]]
    assert std(2, 5).cocycle.to_lists() == [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]


def test_pair_group_axioms_random():
    rng = np.random.default_rng(5)
    group = HeisGroup(AlternatingForm.family(2, 7, (1, 2), (3, 4)))
    els = [group.element(rng.integers(0, 7, size=8), int(rng.integers(0, 7))) for _ in range(30)]
    for _ in range(1000):
        g, h, k = (els[int(i)] for i in rng.integers(0, len(els), size=3))
        assert group.mul(group.mul(g, h), k) == group.mul(g, group.mul(h, k))
        assert group.mul(g, group.inv(g)) == group.identity
        assert group.mul(group.identity, g) == g
        # commutator carries exactly the form value and only sees projections
        assert commutator(group, g, h) == HeisElement((0,) * 8, form_value(group.form, g.v, h.v))


def test_pair_exponent_p():
    rng = np.random.default_rng(8)
    for p in (3, 5, 7):
        group = std(1, p)
        for _ in range(50):
            g = group.element(rng.integers(0, p, size=2), int(rng.integers(0, p)))
            assert group.power(g, p) == group.identity
            assert group.order_of(g) == (1 if g == group.identity else p)
    assert std(1, 5).order_of(std(1, 5).identity) == 1


def test_orders_at_large_p():
    p = 1000003
    group = HeisGroup(AlternatingForm.family(2, p, [-1] * 2, [-1] * 2))
    assert group.order_of(group.central(1)) == p
    assert group.order_of(unit(group, 0)) == p
    assert group.order_of(group.identity) == 1
    h = std(1, p)
    assert h.order_of(unit(h, 0)) == p
    assert h.order_of(h.central(1)) == p


def test_products_exact_at_large_p():
    # b = 6 at p = 1000003: v.C.v summed 24 terms near p^2 and wrapped int64
    p = 1000003
    form = AlternatingForm.family(6, p, range(1, 7), range(7, 13))
    group = HeisGroup(form)
    v = [p - 1] * 24
    square = upper_twist(form, v, v)  # c(v, v)
    g = group.element(v, 0)
    assert group.mul(g, g) == group.element([p - 2] * 24, square)
    assert group.inv(g) == group.element([1] * 24, square)
    assert group.power(g, 3) == group.element([p - 3] * 24, 3 * square)
    assert group.power(g, 2**40 * p + 1) == g  # k v stays in int64 for any k


def test_products_exact_up_to_int64_ceiling():
    # the largest prime with 4 (p - 1)^2 < 2^63, the first at which int64
    # products wrapped around, and 2^61 - 1; products checked against Python
    # integers
    for p in (1518500213, 3037000493, 2**61 - 1):
        form = AlternatingForm.standard_symplectic(2, p)
        group = HeisGroup(form)
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = [int(a) for a in rng.integers(p - 1000, p, 4)]
            w = [int(a) for a in rng.integers(0, p, 4)]
            product = group.mul(group.element(u, 1), group.element(w, 2))
            uw = [a + b for a, b in zip(u, w)]
            assert product == group.element(uw, 3 + upper_twist(form, u, w))
            # the corner of the unitriangular product is z + z' + x . y'
            assert product == group.element(uw, 3 + u[0] * w[2] + u[1] * w[3])


# -- the standard symplectic form gives the matrix group ------------------------


def test_matrix_model_example_and_noncommutativity():
    # frozen from the literal-matrix oracle below: the top-row generator X and
    # right-column generator Y satisfy XY = (1,1,1), YX = (1,1,0)
    h3 = std(1, 2)
    a = h3.element((1, 0), 0)
    b = h3.element((0, 1), 0)
    ab = literal_matrix(a, 1, 2) @ literal_matrix(b, 1, 2) % 2
    assert np.array_equal(ab, literal_matrix(h3.element((1, 1), 1), 1, 2))
    assert h3.mul(a, b) == h3.element((1, 1), 1)
    assert h3.mul(b, a) == h3.element((1, 1), 0)
    assert h3.mul(h3.identity, a) == a


def test_matrix_model_matches_literal_matrices():
    h3 = std(1, 2)
    els = [h3.element((x, y), z) for x in range(2) for y in range(2) for z in range(2)]
    for g in els:
        for h in els:
            prod = literal_matrix(g, 1, 2) @ literal_matrix(h, 1, 2) % 2
            assert np.array_equal(literal_matrix(h3.mul(g, h), 1, 2), prod)
    rng = np.random.default_rng(21)
    h52 = std(2, 5)
    for _ in range(100):
        g = h52.element(rng.integers(0, 5, 4), int(rng.integers(0, 5)))
        h = h52.element(rng.integers(0, 5, 4), int(rng.integers(0, 5)))
        prod = literal_matrix(g, 2, 5) @ literal_matrix(h, 2, 5) % 5
        assert np.array_equal(literal_matrix(h52.mul(g, h), 2, 5), prod)
        assert np.array_equal(
            literal_matrix(h52.inv(g), 2, 5) @ literal_matrix(g, 2, 5) % 5, np.eye(4, dtype=np.int64)
        )


def test_matrix_group_axioms_random():
    rng = np.random.default_rng(6)
    group = std(3, 3)
    els = [group.element(rng.integers(0, 3, 6), int(rng.integers(0, 3))) for _ in range(30)]
    for _ in range(1000):
        g, h, k = (els[int(i)] for i in rng.integers(0, len(els), size=3))
        assert group.mul(group.mul(g, h), k) == group.mul(g, group.mul(h, k))
        assert group.mul(g, group.inv(g)) == group.identity
        assert group.mul(group.identity, g) == g


def test_matrix_commutator_rule():
    rng = np.random.default_rng(31)
    h = std(3, 5)
    for _ in range(50):
        x = rng.integers(0, 5, 3)
        y = rng.integers(0, 5, 3)
        g = h.element((*x, 0, 0, 0), 0)
        k = h.element((0, 0, 0, *y), 0)
        assert commutator(h, g, k) == h.central(int(x @ y))


def test_matrix_elements_are_pairs():
    # the matrix with top row x, right column y and corner z is (x + y, z)
    h = std(2, 5)
    g = h.element((1, 2, 3, 4), 7)
    assert g == HeisElement((1, 2, 3, 4), 2)
    assert literal_matrix(g, 2, 5).tolist() == [[1, 1, 2, 2], [0, 1, 0, 3], [0, 0, 1, 4], [0, 0, 0, 1]]
    assert unit(h, 1) == HeisElement((0, 1, 0, 0), 0)  # X_2
    assert unit(h, 2) == HeisElement((0, 0, 1, 0), 0)  # Y_1
    assert h.central(6) == h.element((0, 0, 0, 0), 1)
    assert repr(unit(h, 0)) == "HeisElement(v=(1, 0, 0, 0), t=0)"


@pytest.mark.parametrize("p", [5, 2, 2**61 - 1])
def test_negative_powers(p):
    # g^k = (k v, k t + C(k, 2) c(v, v)) holds for negative k as written, on
    # a random form whose cocycle fills the upper triangle
    rng = random.Random(p)
    n = 6
    rows = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rng.randrange(p)
        rows[j][i] = -rows[i][j]
    group = HeisGroup(AlternatingForm(FpMatrix(rows, p)))
    for _ in range(200):
        g = group.element([rng.randrange(p) for _ in range(n)], rng.randrange(p))
        k = rng.randrange(1, 4 * p if p < 100 else 2**70)
        assert group.power(g, -k) == group.power(group.inv(g), k) == group.inv(group.power(g, k))
        # and against repeated multiplication by the inverse
        x = group.identity
        for _ in range(k % 7):
            x = group.mul(x, group.inv(g))
        assert group.power(g, -(k % 7)) == x


def test_matrix_orders():
    h3 = std(1, 2)
    g = h3.element((1, 1), 0)
    assert h3.power(g, 2) == h3.central(1)
    assert h3.order_of(g) == 4
    assert h3.order_of(h3.identity) == 1
    assert h3.order_of(h3.element((1, 0), 0)) == 2


# -- isomorphism from the law twisted by omega / 2 (odd p) ----------------------


def half_law(form: AlternatingForm, g: HeisElement, h: HeisElement) -> HeisElement:
    """(v, t)(w, s) = (v + w, t + s + omega(v, w) / 2), the reference law."""
    p = form.p
    v = tuple((a + b) % p for a, b in zip(g.v, h.v))
    return HeisElement(v, (g.t + h.t + form_value(form, g.v, h.v) * pow(2, -1, p)) % p)


def phi(group: HeisGroup, g: HeisElement) -> HeisElement:
    """(v, t) -> (v, t + v . C . v / 2)."""
    p = group.p
    return HeisElement(g.v, (g.t + upper_twist(group.form, g.v, g.v) * pow(2, -1, p)) % p)


def assert_phi_fixes_basis_and_center(group: HeisGroup):
    for i in range(group.dim):
        assert phi(group, unit(group, i)) == unit(group, i)
    for t in range(group.p):
        assert phi(group, group.central(t)) == group.central(t)


def test_iso_examples():
    h = std(1, 5)
    assert phi(h, h.identity) == h.identity
    assert_phi_fixes_basis_and_center(h)
    # c(v, v) = 1 for v = (1, 1), and 1 / 2 = 3 mod 5
    assert phi(h, h.element((1, 1), 0)) == h.element((1, 1), 3)
    e1, e2 = unit(h, 0), unit(h, 1)
    assert half_law(h.form, e1, e2) == h.element((1, 1), 3)
    assert phi(h, half_law(h.form, e1, e2)) == h.mul(e1, e2) == h.element((1, 1), 1)


@pytest.mark.parametrize("p", [3, 5])
def test_iso_exhaustive_bijective_multiplicative(p):
    h = std(1, p)
    els = [h.element((x, y), z) for x in range(p) for y in range(p) for z in range(p)]
    assert len({phi(h, g) for g in els}) == p**3
    for g in els:
        for k in els:
            assert phi(h, half_law(h.form, g, k)) == h.mul(phi(h, g), phi(h, k))
    assert_phi_fixes_basis_and_center(h)


def test_iso_random_multiplicative_larger():
    rng = np.random.default_rng(77)
    for form in (
        AlternatingForm.family(2, 7, (1, 2), (3, 4)),
        AlternatingForm.family(3, 5, [-1] * 3, [-1] * 3),
        j_group(4, 11).form,
    ):
        h = HeisGroup(form)
        p = h.p
        for _ in range(100):
            g = h.element(rng.integers(0, p, h.dim), int(rng.integers(0, p)))
            k = h.element(rng.integers(0, p, h.dim), int(rng.integers(0, p)))
            assert phi(h, half_law(form, g, k)) == h.mul(phi(h, g), phi(h, k))
        assert_phi_fixes_basis_and_center(h)


# -- structure reports ---------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_extra_special_pair_groups(p):
    rep = verify_extra_special(std(1, p))
    assert rep.order == p**3
    assert rep.exponent == p
    assert rep.center_order == p
    assert rep.commutator_order == p
    assert rep.is_extra_special


def test_h3_f2_is_dihedral_not_quaternion():
    rep = verify_extra_special(std(1, 2))
    assert rep.order == 8
    assert rep.exponent == 4
    assert rep.involution_count == 5  # D8 has five, Q8 has one
    assert rep.is_extra_special


def test_degenerate_center():
    group = HeisGroup(AlternatingForm.family(2, 3, [-1] * 2, [-1] * 2))
    rep = verify_extra_special(group)
    assert rep.order == 3**9
    assert rep.center_order == 3**5  # |V_0| * p with dim V_0 = 2b = 4
    assert not rep.is_extra_special


def test_structural_exponent_p2():
    # too large to enumerate, so refused before any element is visited:
    # H_{2n+1}(F_2) at n = 12 (order 2^25) and the zero form on F_2^25
    # (order 2^26)
    flat = HeisGroup(AlternatingForm(FpMatrix.sparse([{}] * 25, 25, 2)))
    for group in (std(12, 2), flat):
        start = time.perf_counter()
        message = f"group order {group.order} exceeds the structure suite's bound {STRUCTURE_BOUND}$"
        with pytest.raises(PreconditionError, match=message):
            verify_extra_special(group)
        assert time.perf_counter() - start < 1.0


def test_structural_path_matches_enumeration():
    # exact enumerated (order, exponent, center, commutator subgroup); every
    # form builds a group at p = 2, degenerate or not
    for form, numbers in (
        (AlternatingForm.family(2, 3, (1, 1), (2, 2)), (3**9, 3, 3, 3)),
        (AlternatingForm.family(2, 2, [-1] * 2, [-1] * 2), (512, 4, 32, 2)),
        (AlternatingForm.family(2, 2, (1, 0), (0, 1)), (512, 4, 2, 2)),
    ):
        rep = verify_extra_special(HeisGroup(form))
        assert (rep.order, rep.exponent, rep.center_order, rep.commutator_order) == numbers
    # the zero-dimensional form gives the group F_p, which the enumeration
    # used to fail on with numpy's broadcasting ValueError
    for p in (2, 3, 5):
        rep = verify_extra_special(HeisGroup(AlternatingForm(FpMatrix.sparse([], 0, p))))
        assert (rep.order, rep.exponent, rep.center_order, rep.commutator_order) == (p, p, p, 1)
        assert not rep.is_extra_special


def test_structure_suite_reads_omega_once_per_vector(monkeypatch):
    # one pass over V, on either side of the old 2000-element cutoff; mul
    # applies the cocycle, another matrix, so only omega's calls count
    calls = collections.Counter()
    apply = FpMatrix.apply

    def counted(matrix, v):
        calls[id(matrix)] += 1
        return apply(matrix, v)

    monkeypatch.setattr(FpMatrix, "apply", counted)
    for group in (std(1, 5), std(1, 13)):  # orders 125 and 2197
        calls.clear()
        assert verify_extra_special(group).is_extra_special
        assert calls[id(group.form)] == group.p**group.dim


def test_exhaustive_cross_check_raises_inconsistency(monkeypatch):
    # a wrong rank fakes a structural center of 3^3 beside the enumerated 3
    group = std(1, 3)
    monkeypatch.setattr(FpMatrix, "rank", lambda self: 0)
    with pytest.raises(InconsistencyError, match="center"):
        verify_extra_special(group)


def test_commutator_values_cross_check_raises_inconsistency(monkeypatch):
    # squared entries vanish where omega's do, so the center still agrees;
    # but {0, 1} mod 3 is not the value set of any bilinear pairing
    group = std(1, 3)
    form = group.form

    class Squared:
        def apply(self, v):
            return tuple(x * x % 3 for x in form.apply(v))

        def rank(self):
            return form.rank()

    monkeypatch.setattr(group, "form", Squared())
    with pytest.raises(InconsistencyError, match="commutator values of a bilinear pairing"):
        verify_extra_special(group)


def test_matrix_model_covers_p2_degenerate_case():
    # b = 3, p = 2: Heis(F_2^6, J_3) is H_7(F_2) with the coordinates
    # (x_1, y_1, x_2, y_2, x_3, y_3) interleaved
    group, matrix = j_group(3, 2), std(3, 2)
    assert group.order == matrix.order == 128

    def reorder(g):
        return HeisElement(g.v[0::2] + g.v[1::2], g.t)

    els = [group.element(v, t) for v in itertools.product(range(2), repeat=6) for t in range(2)]
    for g in els:
        for h in els:
            assert reorder(group.mul(g, h)) == matrix.mul(reorder(g), reorder(h))


def test_element_validation():
    group = std(1, 5)
    with pytest.raises(PreconditionError):
        group.element((1, 2, 3), 0)
    with pytest.raises(PreconditionError):
        group.element((1,), 0)


# -- non-integer coordinates are refused, not truncated ---------------------------


def test_pair_element_refuses_floats():
    # used to return HeisElement(v=(1, 2), t=3)
    with pytest.raises(PreconditionError):
        std(1, 5).element([1.7, 2.2], 3.9)
    with pytest.raises(PreconditionError):
        std(1, 5).element([1, 2], 3.9)


def test_matrix_element_refuses_floats():
    # used to return HeisElement(v=(1, 2), t=0)
    with pytest.raises(PreconditionError):
        std(1, 5).element([1.5, 2.5], 0.5)
    with pytest.raises(PreconditionError):
        std(1, 5).element([1, 2], 0.5)


def test_central_refuses_floats():
    # used to return the unreduced t=1.5
    with pytest.raises(PreconditionError):
        std(1, 5).central(1.5)
    # integers of any size are still reduced mod p
    assert std(1, 5).central(5 * 2**70 + 2) == std(1, 5).element((0, 0), 2)
