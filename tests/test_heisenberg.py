"""Tests for both Heisenberg models.

The matrix model's closed product law is proved against literal
(n+2) x (n+2) unitriangular matrix multiplication, exhaustively for
H_3(F_2) and on random pairs for larger parameters; after that the closed
form is trusted everywhere else.
"""

import numpy as np
import pytest

from heiskod.errors import EnumerationBoundError, PreconditionError, UnsupportedModelError
from heiskod.fplinalg import AlternatingForm, FpMatrix
from heiskod.heisenberg import (
    HeisElement,
    HeisGroup,
    MatrixHeisGroup,
    degenerate_quotient,
    enumeration_guard,
    iso_matrix_to_pair,
    verify_extra_special,
)


def literal_matrix(g: HeisElement, n: int, p: int) -> np.ndarray:
    """The unitriangular matrix of (x + y, z): top row x, right column y, corner z."""
    m = np.eye(n + 2, dtype=np.int64)
    m[0, 1 : n + 1] = g.v[:n]
    m[1 : n + 1, n + 1] = g.v[n:]
    m[0, n + 1] = g.t
    return m % p


def std2(p) -> HeisGroup:
    return HeisGroup(AlternatingForm.standard_symplectic(1, p))


# -- pair model ---------------------------------------------------------------


def test_pair_identity_and_example():
    g5 = std2(5)
    e1 = g5.element((1, 0), 0)
    e2 = g5.element((0, 1), 0)
    assert g5.mul(g5.identity, e1) == e1
    # half of omega(e1, e2) = 1 is 3 mod 5
    assert g5.mul(e1, e2) == g5.element((1, 1), 3)
    assert g5.commutator(e1, e2) == g5.element((0, 0), 1)


def test_pair_model_rejects_p2():
    with pytest.raises(UnsupportedModelError):
        HeisGroup(AlternatingForm.standard_symplectic(1, 2))


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
        assert group.commutator(g, h).t == group.form.value(g.v, h.v)
        assert group.commutator(g, h).v == (0,) * 8


def test_pair_exponent_p():
    rng = np.random.default_rng(8)
    for p in (3, 5, 7):
        group = std2(p)
        for _ in range(50):
            g = group.element(rng.integers(0, p, size=2), int(rng.integers(0, p)))
            assert group.power(g, p) == group.identity
            assert group.order_of(g) == (1 if g == group.identity else p)
    assert std2(5).order_of(std2(5).identity) == 1


def test_orders_at_large_p():
    p = 1000003
    group = HeisGroup(AlternatingForm.degenerate_family(2, p))
    assert group.order_of(group.central(1)) == p
    assert group.order_of(group.basis_element(0)) == p
    assert group.order_of(group.identity) == 1
    h = MatrixHeisGroup(1, p)
    assert h.order_of(h.x_generator(1)) == p
    assert h.order_of(h.central(1)) == p


def test_products_exact_at_large_p():
    # b = 6 at p = 1000003: v.C.v summed 24 terms near p^2 and wrapped int64
    p = 1000003
    group = HeisGroup(AlternatingForm.family(6, p, range(1, 7), range(7, 13)))
    g = group.element([p - 1] * 24, 0)
    assert group.mul(g, g) == group.element([p - 2] * 24, 0)  # c(v, v) = 0
    assert group.inv(g) == group.element([1] * 24, 0)
    assert group.power(g, 3) == group.element([p - 3] * 24, 0)
    assert group.power(g, 2**40 * p + 1) == g  # k v stays in int64 for any k


def test_products_exact_up_to_int64_ceiling():
    # the largest prime with 4 (p - 1)^2 < 2^63, the first at which int64
    # products wrapped around, and 2^61 - 1; products checked against Python
    # integers
    for p in (1518500213, 3037000493, 2**61 - 1):
        group = HeisGroup(AlternatingForm.standard_symplectic(2, p))
        matrix = MatrixHeisGroup(2, p)
        half = pow(2, -1, p)
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = [int(a) for a in rng.integers(p - 1000, p, 4)]
            w = [int(a) for a in rng.integers(0, p, 4)]
            omega = u[0] * w[2] + u[1] * w[3] - u[2] * w[0] - u[3] * w[1]
            expected = group.element([a + b for a, b in zip(u, w)], 3 + half * omega)
            assert group.mul(group.element(u, 1), group.element(w, 2)) == expected
            # matrix model: the corner of the unitriangular product is z + z' + x . y'
            xs, ys = [a + b for a, b in zip(u[:2], w[:2])], [a + b for a, b in zip(u[2:], w[2:])]
            product = matrix.mul(matrix.element(u[:2], u[2:], 1), matrix.element(w[:2], w[2:], 2))
            assert product == matrix.element(xs, ys, 3 + u[0] * w[2] + u[1] * w[3])


# -- matrix model -------------------------------------------------------------


def test_matrix_model_example_and_noncommutativity():
    # frozen from the literal-matrix oracle below: the top-row generator X and
    # right-column generator Y satisfy XY = (1,1,1), YX = (1,1,0)
    h3 = MatrixHeisGroup(1, 2)
    a = h3.element((1,), (0,), 0)
    b = h3.element((0,), (1,), 0)
    ab = literal_matrix(a, 1, 2) @ literal_matrix(b, 1, 2) % 2
    assert np.array_equal(ab, literal_matrix(h3.element((1,), (1,), 1), 1, 2))
    assert h3.mul(a, b) == h3.element((1,), (1,), 1)
    assert h3.mul(b, a) == h3.element((1,), (1,), 0)
    assert h3.mul(h3.identity, a) == a


def test_matrix_model_matches_literal_matrices():
    h3 = MatrixHeisGroup(1, 2)
    els = [h3.element((x,), (y,), z) for x in range(2) for y in range(2) for z in range(2)]
    for g in els:
        for h in els:
            prod = literal_matrix(g, 1, 2) @ literal_matrix(h, 1, 2) % 2
            assert np.array_equal(literal_matrix(h3.mul(g, h), 1, 2), prod)
    rng = np.random.default_rng(21)
    h52 = MatrixHeisGroup(2, 5)
    for _ in range(100):
        g = h52.element(rng.integers(0, 5, 2), rng.integers(0, 5, 2), int(rng.integers(0, 5)))
        h = h52.element(rng.integers(0, 5, 2), rng.integers(0, 5, 2), int(rng.integers(0, 5)))
        prod = literal_matrix(g, 2, 5) @ literal_matrix(h, 2, 5) % 5
        assert np.array_equal(literal_matrix(h52.mul(g, h), 2, 5), prod)
        assert np.array_equal(
            literal_matrix(h52.inv(g), 2, 5) @ literal_matrix(g, 2, 5) % 5, np.eye(4, dtype=np.int64)
        )


def test_matrix_group_axioms_random():
    rng = np.random.default_rng(6)
    group = MatrixHeisGroup(3, 3)
    els = [
        group.element(rng.integers(0, 3, 3), rng.integers(0, 3, 3), int(rng.integers(0, 3)))
        for _ in range(30)
    ]
    for _ in range(1000):
        g, h, k = (els[int(i)] for i in rng.integers(0, len(els), size=3))
        assert group.mul(group.mul(g, h), k) == group.mul(g, group.mul(h, k))
        assert group.mul(g, group.inv(g)) == group.identity
        assert group.mul(group.identity, g) == g


def test_matrix_commutator_rule():
    rng = np.random.default_rng(31)
    h = MatrixHeisGroup(3, 5)
    for _ in range(50):
        x = rng.integers(0, 5, 3)
        y = rng.integers(0, 5, 3)
        g = h.element(x, (0, 0, 0), 0)
        k = h.element((0, 0, 0), y, 0)
        assert h.commutator(g, k) == h.element((0, 0, 0), (0, 0, 0), int(x @ y) % 5)


def test_matrix_elements_are_pairs():
    h = MatrixHeisGroup(2, 5)
    assert h.element((1, 2), (3, 4), 7) == HeisElement((1, 2, 3, 4), 2)
    assert h.x_generator(2) == HeisElement((0, 1, 0, 0), 0)
    assert h.y_generator(1) == HeisElement((0, 0, 1, 0), 0)
    assert h.central(6) == h.element((0, 0), (0, 0), 1)
    assert repr(h.x_generator(1)) == "HeisElement(v=(1, 0, 0, 0), t=0)"


def test_matrix_orders():
    h3 = MatrixHeisGroup(1, 2)
    g = h3.element((1,), (1,), 0)
    assert h3.power(g, 2) == h3.element((0,), (0,), 1)
    assert h3.order_of(g) == 4
    assert h3.order_of(h3.identity) == 1
    assert h3.order_of(h3.element((1,), (0,), 0)) == 2


# -- isomorphism --------------------------------------------------------------


def test_iso_examples():
    h = MatrixHeisGroup(1, 5)
    assert iso_matrix_to_pair(h.identity, h) == HeisElement((0, 0), 0)
    assert iso_matrix_to_pair(h.element((1,), (1,), 0), h) == HeisElement((1, 1), 2)
    with pytest.raises(UnsupportedModelError):
        iso_matrix_to_pair(MatrixHeisGroup(1, 2).identity, MatrixHeisGroup(1, 2))


@pytest.mark.parametrize("p", [3, 5])
def test_iso_exhaustive_bijective_multiplicative(p):
    h = MatrixHeisGroup(1, p)
    pair = h.pair_model()
    els = [h.element((x,), (y,), z) for x in range(p) for y in range(p) for z in range(p)]
    images = {iso_matrix_to_pair(g, h) for g in els}
    assert len(images) == p**3
    for g in els:
        for k in els:
            assert iso_matrix_to_pair(h.mul(g, k), h) == pair.mul(
                iso_matrix_to_pair(g, h), iso_matrix_to_pair(k, h)
            )


def test_iso_random_multiplicative_larger():
    rng = np.random.default_rng(77)
    h = MatrixHeisGroup(2, 7)
    pair = h.pair_model()
    for _ in range(100):
        g = h.element(rng.integers(0, 7, 2), rng.integers(0, 7, 2), int(rng.integers(0, 7)))
        k = h.element(rng.integers(0, 7, 2), rng.integers(0, 7, 2), int(rng.integers(0, 7)))
        assert iso_matrix_to_pair(h.mul(g, k), h) == pair.mul(
            iso_matrix_to_pair(g, h), iso_matrix_to_pair(k, h)
        )


# -- structure reports ---------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_extra_special_pair_groups(p):
    rep = verify_extra_special(std2(p))
    assert rep.method == "enumeration"
    assert rep.order == p**3
    assert rep.exponent == p
    assert rep.center_order == p
    assert rep.commutator_order == p
    assert rep.is_extra_special


def test_h3_f2_is_dihedral_not_quaternion():
    rep = verify_extra_special(MatrixHeisGroup(1, 2))
    assert rep.order == 8
    assert rep.exponent == 4
    assert rep.involution_count == 5  # D8 has five, Q8 has one
    assert rep.is_extra_special


def test_degenerate_center():
    group = HeisGroup(AlternatingForm.degenerate_family(2, 3))
    rep = verify_extra_special(group)
    assert rep.order == 3**9
    assert rep.center_order == 3**5  # |V_0| * p with dim V_0 = 2b = 4
    assert not rep.is_extra_special


def test_structural_exponent_p2():
    from heiskod.heisenberg import _CocycleGroup

    # too large to enumerate: H_{2n+1}(F_2) at n = 12 has order 2^25
    rep = verify_extra_special(MatrixHeisGroup(12, 2))
    assert rep.method == "structural" and rep.exponent == 4
    # symmetric cocycle with zero diagonal: abelian, every square trivial
    flat = _CocycleGroup(FpMatrix.sparse([{}] * 25, 25, 2))
    rep = verify_extra_special(flat)
    assert rep.method == "structural" and rep.exponent == 2
    assert not rep.is_extra_special


def test_structural_path_matches_enumeration():
    group = HeisGroup(AlternatingForm.family(2, 3, (1, 1), (2, 2)))
    by_enum = verify_extra_special(group, enumeration_bound=3**9)
    structural = verify_extra_special(group, enumeration_bound=10)
    assert structural.method == "structural"
    assert (by_enum.order, by_enum.exponent, by_enum.center_order, by_enum.commutator_order) == (
        structural.order,
        structural.exponent,
        structural.center_order,
        structural.commutator_order,
    )


# -- degenerate quotient --------------------------------------------------------


def test_quotient_of_all_j_form():
    group = HeisGroup(AlternatingForm.degenerate_family(2, 3))
    q = degenerate_quotient(group)
    assert q.group.order == 3**5 == 243
    assert q.kernel_dim == 4
    assert q.group.form.omega == AlternatingForm.j_form(2, 3).omega
    # projection is a homomorphism
    rng = np.random.default_rng(13)
    for _ in range(200):
        g = group.element(rng.integers(0, 3, 8), int(rng.integers(0, 3)))
        h = group.element(rng.integers(0, 3, 8), int(rng.integers(0, 3)))
        assert q.project(group.mul(g, h)) == q.group.mul(q.project(g), q.project(h))
    # kernel has exactly p^{dim V_0} elements
    vs, ts = group.all_elements_raw()
    kernel = sum(
        1
        for i in range(group.order)
        if q.project(group.element(vs[i], int(ts[i]))) == q.group.identity
    )
    assert kernel == 3**4
    # surjectivity: image count equals quotient order
    images = {
        q.project(group.element(vs[i], int(ts[i]))) for i in range(group.order)
    }
    assert len(images) == 243


def test_quotient_of_symplectic_form_is_identity():
    group = HeisGroup(AlternatingForm.family(2, 5, (3, 3), (3, 3)))
    q = degenerate_quotient(group)
    assert q.group is group
    g = group.element((1, 2, 3, 4, 0, 1, 2, 3), 4)
    assert q.project(g) == g


def test_matrix_model_covers_p2_degenerate_case():
    # b = 3, p = 2: order 2^(2b+1) = 128
    assert MatrixHeisGroup(3, 2).order == 128


def test_packing_roundtrip_and_bounds(monkeypatch):
    group = std2(5)
    vs, ts = group.all_elements_raw()
    assert len(vs) == len(ts) == group.order
    for code, (v, t) in enumerate(zip(vs.tolist(), ts.tolist())):
        assert group.pack(v, t) == code
    # a float used to be truncated to a code (1.5 read as 1)
    with pytest.raises(PreconditionError):
        group.pack([1.5, 2], 0)
    with pytest.raises(EnumerationBoundError):
        HeisGroup(AlternatingForm.family(3, 7, (1, 1, 6), (2, 2, 4))).all_elements_raw(bound=100)
    # whatever the bound, no int64 enumeration from order 2^62 on
    with enumeration_guard(2**62 - 1, 10**200):
        pass
    with pytest.raises(EnumerationBoundError):
        with enumeration_guard(2**62, 10**200):
            pass
    with pytest.raises(EnumerationBoundError):
        std2(2**61 - 1).all_elements_raw(bound=10**200)
    # an allocation that fails is refused, not raised as a crash
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "empty", no_memory)
    with pytest.raises(EnumerationBoundError, match="memory"):
        group.all_elements_raw()


def test_element_validation():
    group = std2(5)
    with pytest.raises(PreconditionError):
        group.element((1, 2, 3), 0)
    with pytest.raises(PreconditionError):
        MatrixHeisGroup(0, 5)


# -- non-integer coordinates are refused, not truncated ---------------------------


def test_pair_element_refuses_floats():
    # used to return HeisElement(v=(1, 2), t=3)
    with pytest.raises(PreconditionError):
        std2(5).element([1.7, 2.2], 3.9)
    with pytest.raises(PreconditionError):
        std2(5).element([1, 2], 3.9)


def test_matrix_element_refuses_floats():
    # used to return HeisElement(v=(1, 2), t=0)
    with pytest.raises(PreconditionError):
        MatrixHeisGroup(1, 5).element([1.5], [2.5], 0.5)
    with pytest.raises(PreconditionError):
        MatrixHeisGroup(1, 5).element([1], [2], 0.5)


def test_central_and_basis_element_refuse_floats():
    # used to return the unreduced t=1.5 and t=2.5
    with pytest.raises(PreconditionError):
        std2(5).central(1.5)
    with pytest.raises(PreconditionError):
        MatrixHeisGroup(1, 5).basis_element(0, 2.5)
    # integers of any size are still reduced mod p
    assert std2(5).central(5 * 2**70 + 2) == std2(5).element((0, 0), 2)
