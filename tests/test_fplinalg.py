"""Tests for the F_p linear algebra layer.

Two independent oracles never touch the sparse elimination under test: minor
expansion over column subsets (bitmask-memoised) for the determinant, and a
dense Gauss-Jordan elimination on lists of Python integers for the reduced
row echelon form, rank and kernel.
"""

import functools
import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiskod.errors import PreconditionError
from heiskod.fplinalg import AlternatingForm, FpMatrix, residues
from heiskod.heisenberg import HeisGroup
from heiskod.primes import is_prime


def det_oracle(rows: list[list[int]], p: int) -> int:
    """Minor expansion along the first remaining row, memoised on the column mask."""
    n = len(rows)

    @functools.lru_cache(maxsize=None)
    def minor(row: int, mask: int) -> int:
        if row == n:
            return 1
        total = 0
        sign = 1
        for j in range(n):
            if not mask & (1 << j):
                continue
            if rows[row][j]:
                total += sign * rows[row][j] * minor(row + 1, mask & ~(1 << j))
            sign = -sign
        return total % p

    return minor(0, (1 << n) - 1)


def form_value(form: AlternatingForm, u, w) -> int:
    """omega(u, w) = sum over i, j of u_i omega_ij w_j mod p, in Python integers."""
    omega = form.to_lists()
    return sum(u[i] * omega[i][j] * w[j] for i in range(form.dim) for j in range(form.dim)) % form.p


def rref_oracle(rows: list[list[int]], cols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Dense Gauss-Jordan elimination, column by column, on Python integers."""
    a = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for k in range(len(a)):
            if k != r and a[k][c]:
                f = a[k][c]
                a[k] = [(x - f * y) % p for x, y in zip(a[k], a[r])]
        pivots.append(c)
    return a, pivots


def kernel_oracle(rows: list[list[int]], cols: int, p: int) -> list[tuple[int, ...]]:
    """One null vector per free column of the oracle's echelon form."""
    a, pivots = rref_oracle(rows, cols, p)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -a[i][f] % p
        basis.append(tuple(v))
    return basis


def zeros(rows: int, cols: int, p: int) -> FpMatrix:
    return FpMatrix([[0] * cols for _ in range(rows)], p)


def identity(n: int, p: int) -> FpMatrix:
    return FpMatrix([[int(i == j) for j in range(n)] for i in range(n)], p)


# -- moduli ------------------------------------------------------------------


def test_matrix_refuses_composite_modulus():
    with pytest.raises(PreconditionError):
        FpMatrix([[1]], 6)
    assert FpMatrix([[12]], 5).to_lists() == [[2]]  # entries are reduced


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_trial_division_below_1e5():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial_division(n)]


def test_is_prime_large():
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3) and is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) * (10**9 + 7))
    # the least strong pseudoprime to the twelve prime bases 2..37 (a product
    # of two primes); only the thirteenth base, 41, exposes it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    # past the exact range the test refuses instead of guessing
    psi13 = 3317044064679887385961981
    with pytest.raises(PreconditionError):
        is_prime(psi13)
    with pytest.raises(PreconditionError):
        is_prime(2**127 - 1)
    assert not is_prime(2**200)  # a small factor still decides exactly


def test_is_prime_answers_once_per_modulus_and_still_refuses_a_bool():
    is_prime.cache_clear()
    assert is_prime(7) and is_prime(7) and not is_prime(1) and not is_prime(np.int64(1))
    assert (is_prime.cache_info().hits, is_prime.cache_info().misses) == (1, 3)
    # True == np.int64(1) and hashes alike, so an untyped cache would answer it with False
    with pytest.raises(PreconditionError, match="modulus must be an integer, got True"):
        is_prime(True)


# -- rank / det / kernel -----------------------------------------------------


def test_rank_examples():
    assert zeros(3, 3, 5).rank() == 0
    assert identity(4, 3).rank() == 4
    assert AlternatingForm.family(2, 3, [-1] * 2, [-1] * 2).rank() == 4  # rank 2b


def test_det_examples():
    assert identity(2, 7).det() == 1
    assert type(identity(2, 7).det()) is int
    form = AlternatingForm.family(2, 5, (3, 3), (3, 3))
    assert form.det() == 1  # (1 - 9)^4 = 81 = 1 mod 5
    assert det_oracle(form.to_lists(), 5) == 1
    # a vanishing factor kills the determinant
    degenerate = AlternatingForm.family(2, 5, (1, 3), (1, 2))  # lambda_1 mu_1 = 1
    assert degenerate.det() == 0


def test_det_exact_up_to_int64_ceiling():
    def m(q):
        return [[q - 1, q - 2, 3], [5, q - 3, 7], [q - 5, 11, q - 7]]

    # the largest prime with (p - 1)^2 < 2^63, and 2^61 - 1, where an int64
    # elimination wrapped around (det 49718, exact 176)
    for p in (3037000493, 2**61 - 1):
        assert FpMatrix(m(p), p).det() == det_oracle(m(p), p) == 176
        assert FpMatrix(m(p), p).rank() == 3
        reduced, pivots = FpMatrix(m(p), p).rref()
        assert (reduced.to_lists(), list(pivots)) == rref_oracle(m(p), 3, p)


def test_form_value_exact_at_large_p():
    p = 1000003
    form = AlternatingForm.family(3, p, (1, 2, 3), (4, 5, 6))
    u = [p - 1] * 12
    w = [p - 1 - i for i in range(12)]
    # omega(u, w) through the sparse product Omega w, as the structure suite
    # computes it, against the dense sum
    assert sum(map(operator.mul, u, form.apply(w))) % p == form_value(form, u, w)
    assert form_value(form, u, u) == 0
    # 4 (p - 1)^2 > 2^63 at p = 3037000493, once refused
    p = 3037000493
    form = AlternatingForm.standard_symplectic(2, p)
    u, w = [p - 1, p - 2, p - 3, p - 4], [p - 5, p - 6, p - 7, p - 8]
    assert form_value(form, u, w) == (u[0] * w[2] + u[1] * w[3] - u[2] * w[0] - u[3] * w[1]) % p
    # the family at 2^61 - 1: det = (1 - 3 * 5)^2 (1 - (q - 2)(q - 4))^2 = 9604
    q = 2**61 - 1
    form = AlternatingForm.family(2, q, (3, q - 2), (5, q - 4))
    assert form.det() == det_oracle(form.to_lists(), q) == 9604
    assert form.rank() == form.dim


def test_det_sign_is_the_permutation_parity():
    # random matrices almost always eliminate with the identity pivot order,
    # so the sign is pinned on permutation matrices, scaled and not
    for perm in [*itertools.permutations(range(4)), (1, 2, 3, 4, 0)]:
        for scale in (1, 2):
            rows = [[scale * (j == perm[i]) for j in range(len(perm))] for i in range(len(perm))]
            assert FpMatrix(rows, 7).det() == det_oracle(rows, 7)


def test_det_requires_square():
    with pytest.raises(PreconditionError):
        zeros(2, 3, 5).det()


@pytest.mark.parametrize("b", [2, 3])
@pytest.mark.parametrize("p", [5, 7])
def test_det_matches_family_formula(b, p):
    rng = np.random.default_rng(1000 * b + p)
    for trial in range(100):
        lam = rng.integers(0, p, size=b).tolist()
        mu = rng.integers(0, p, size=b).tolist()
        form = AlternatingForm.family(b, p, lam, mu)
        expected = 1
        for l, m in zip(lam, mu):
            expected = expected * (1 - l * m) ** 2 % p
        assert form.det() == expected
        if trial < 10:  # independent route, on a subsample for speed
            assert det_oracle(form.to_lists(), p) == expected


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60)
def test_rank_nullity(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = FpMatrix(rng.integers(0, p, size=(rows, cols)), p)
    ker = m.kernel_basis()
    assert m.rank() + len(ker) == cols
    for v in ker:
        assert all(x == 0 for x in m.apply(v))


def test_kernel_examples():
    assert identity(3, 5).kernel_basis() == []
    zero_kernel = zeros(2, 2, 7).kernel_basis()
    assert sorted(zero_kernel) == [(0, 1), (1, 0)]

    form = AlternatingForm.family(2, 3, [-1] * 2, [-1] * 2)
    basis = form.kernel_basis()
    assert len(basis) == 4
    # same span as the differences r_1j - r_2j, t_1j - t_2j
    named = [
        tuple((1 if i == k else 0) - (1 if i == k + 4 else 0) for i in range(8)) for k in range(4)
    ]
    named = [tuple(x % 3 for x in v) for v in named]
    assert FpMatrix(basis, 3).rank() == 4
    assert FpMatrix(basis + named, 3).rank() == 4


def test_span_dim_examples():
    """The dimension of a span is the rank of the vectors as rows."""
    e1, e2 = (1, 0, 0), (0, 1, 0)
    both = (1, 1, 0)
    assert FpMatrix([e1, e2, both], 5).rank() == 2
    assert FpMatrix.sparse([], 3, 5).rank() == 0
    # projections of the first kernel-generator images at (b=2, p=5) are the
    # last four standard basis vectors of F_5^8
    vecs = [tuple(1 if i == k else 0 for i in range(8)) for k in (4, 5, 6, 7)]
    assert FpMatrix(vecs, 5).rank() == 4


def test_matrix_immutability():
    m = identity(2, 3)
    entries = m.to_lists()
    entries[0][0] = 2
    assert m.to_lists() == [[1, 0], [0, 1]]
    with pytest.raises(AttributeError):
        m.p = 5


def test_matmul_and_shape_errors():
    a = FpMatrix([[1, 2], [3, 4]], 5)
    b = FpMatrix([[1], [1]], 5)
    assert (a @ b).to_lists() == [[3], [2]]
    with pytest.raises(PreconditionError):
        b @ a @ b
    with pytest.raises(PreconditionError):
        a @ FpMatrix([[1, 0], [0, 1]], 7)
    with pytest.raises(PreconditionError, match="vector length disagrees with column count"):
        a.apply([1, 2, 3])


def test_strict_upper():
    m = FpMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 7)
    assert m.strict_upper().to_lists() == [[0, 2, 3], [0, 0, 6], [0, 0, 0]]
    assert m.to_lists()[0] == [1, 2, 3]  # the source is unchanged
    wide = FpMatrix([[1, 2, 3]], 5).strict_upper()
    assert (wide.rows, wide.cols, wide.to_lists()) == (1, 3, [[0, 2, 3]])


def sparse_of(dense: list[list[int]], cols: int, p: int) -> FpMatrix:
    return FpMatrix.sparse([dict(enumerate(row)) for row in dense], cols, p)


def random_sparse(rng: random.Random, rows: int, cols: int, p: int) -> list[list[int]]:
    """Dense lists of a random sparse matrix: about a third of its rows are
    zero, and each entry of the others is nonzero at odds one in two."""
    zero = [rng.random() < 1 / 3 for _ in range(rows)]
    return [[0 if z or rng.random() < 0.5 else rng.randrange(1, p) for _ in range(cols)] for z in zero]


@pytest.mark.parametrize("p", [2, 5, 2**61 - 1])
def test_transpose_matches_the_dense_transpose(p):
    # shapes from 0 to 6 a side, so matrices with no rows and rows with no
    # entries both occur
    rng = random.Random(p)
    for _ in range(200):
        n, k, m = (rng.randrange(7) for _ in range(3))
        a, b = random_sparse(rng, n, k, p), random_sparse(rng, k, m, p)
        ma, mb = sparse_of(a, k, p), sparse_of(b, m, p)
        dense_t = [[row[j] for row in a] for j in range(k)]
        t = ma.transpose()
        assert t.to_lists() == dense_t and t == sparse_of(dense_t, n, p)  # no zero entry is stored
        assert t.transpose() == ma
        assert (ma @ mb).transpose() == mb.transpose() @ t
        assert t.rank() == ma.rank() == len(rref_oracle(a, k, p)[1])


def test_transpose_of_a_form_is_its_negative():
    form = AlternatingForm.family(2, 7, (1, 2), (3, 4))
    assert type(form.transpose()) is FpMatrix
    assert form.transpose().to_lists() == [[-x % 7 for x in row] for row in form.to_lists()]


def test_matmul_exact_beyond_int64():
    """A random 8x8 product at p = 2^31 - 1 wraps around in int64; the
    Python-int product is exact."""
    p = 2**31 - 1

    def exact(a, b):  # Python-integer product, no overflow
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]

    rng = np.random.default_rng(0)
    a = FpMatrix(rng.integers(0, p, (8, 8)), p)
    b = FpMatrix(rng.integers(0, p, (8, 8)), p)
    dense_a, dense_b = (np.array(m.to_lists(), dtype=np.int64) for m in (a, b))
    assert ((dense_a @ dense_b) % p).tolist() != exact(a.to_lists(), b.to_lists())
    assert (a @ b).to_lists() == exact(a.to_lists(), b.to_lists())
    assert list(a.apply([p - 1] * 8)) == [row[0] for row in exact(a.to_lists(), [[p - 1]] * 8)]
    # with two columns every sum stays below 2^63 even in int64
    c = FpMatrix(rng.integers(p - 3, p, (2, 2)), p)
    assert (c @ c).to_lists() == exact(c.to_lists(), c.to_lists())
    assert list(c.apply([p - 1, p - 2])) == [row[0] for row in exact(c.to_lists(), [[p - 1], [p - 2]])]


# -- alternating forms -------------------------------------------------------


def test_alternating_validation():
    with pytest.raises(PreconditionError):
        AlternatingForm(FpMatrix([[0, 1], [1, 0]], 5))  # symmetric, not skew
    with pytest.raises(PreconditionError):
        AlternatingForm(FpMatrix([[1, 1], [1, 1]], 2))  # nonzero diagonal mod 2
    # skew with zero diagonal passes even mod 2
    AlternatingForm(FpMatrix([[0, 1], [1, 0]], 2))


def test_every_form_constructor_checks_the_matrix():
    # the inherited sparse constructor refuses what AlternatingForm(matrix) refuses
    for make, message in (
        (lambda: AlternatingForm(FpMatrix([[0, 1], [1, 0]], 5)), "not skew-symmetric"),
        (lambda: AlternatingForm.sparse([{1: 1}, {}], 2, 5), "not skew-symmetric"),
        (lambda: AlternatingForm.sparse([{0: 1}], 1, 2), "vanish on the diagonal"),
        (lambda: AlternatingForm(FpMatrix([[0, 1, 0], [-1, 0, 0]], 5)), "must be square"),
        (lambda: AlternatingForm.sparse([{1: 1}], 2, 5), "must be square"),
    ):
        with pytest.raises(PreconditionError, match=message):
            make()


def test_a_form_is_its_matrix():
    form = AlternatingForm.standard_symplectic(1, 5)
    assert isinstance(form, FpMatrix) and not hasattr(form, "omega")
    assert form == FpMatrix([[0, 1], [4, 0]], 5) and form.dim == form.rows == 2
    assert repr(form) == "AlternatingForm(2x2 mod 5)"
    # operations on a form are plain matrices: a product need not be skew
    m = FpMatrix([[1, 2], [3, 4]], 5)
    for value in (form @ m, m @ form, form.rref()[0], form.strict_upper()):
        assert type(value) is FpMatrix
    with pytest.raises(AttributeError):
        form.p = 7
    with pytest.raises(TypeError):
        hash(form)


def block_diagonal(blocks) -> list[list[int]]:
    """The dense block-diagonal matrix of the 2x2 ``blocks``."""
    blocks = list(blocks)
    out = [[0] * (2 * len(blocks)) for _ in range(2 * len(blocks))]
    for j, block in enumerate(blocks):
        for r, row in enumerate(block):
            out[2 * j + r][2 * j : 2 * j + 2] = row
    return out


def test_family_layout():
    form = AlternatingForm.family(2, 7, (1, 2), (3, 4))
    # defining values: omega(r_1j, t_1j) = lambda_j, omega(r_2j, t_2j) = mu_j,
    # omega(r_1j, t_2j) = omega(r_2j, t_1j) = -1
    e = lambda i: [1 if k == i else 0 for k in range(8)]
    assert form_value(form, e(0), e(1)) == 1
    assert form_value(form, e(2), e(3)) == 2
    assert form_value(form, e(4), e(5)) == 3
    assert form_value(form, e(6), e(7)) == 4
    assert form_value(form, e(0), e(5)) == 6  # -1 mod 7
    assert form_value(form, e(4), e(1)) == 6
    assert form_value(form, e(0), e(7)) == 0
    # the whole form is the module docstring's dense [[L_b, J_b], [J_b, M_b]]
    rng = random.Random(43)
    for p in (2, 3, 5, 13, 2**61 - 1):
        for b in range(2, 6):
            lam = [rng.choice((0, p, -1, rng.randrange(-p, 2 * p))) for _ in range(b)]
            mu = [rng.choice((0, p, -1, rng.randrange(-p, 2 * p))) for _ in range(b)]
            l_b, m_b = block_diagonal([[0, x], [-x, 0]] for x in lam), block_diagonal([[0, x], [-x, 0]] for x in mu)
            j_b = block_diagonal([[0, -1], [1, 0]] for _ in range(b))
            dense = [l + j for l, j in zip(l_b, j_b)] + [j + m for j, m in zip(j_b, m_b)]
            assert AlternatingForm.family(b, p, lam, mu).to_lists() == [[x % p for x in row] for row in dense]


def test_degenerate_family_is_all_j_blocks():
    form = AlternatingForm.family(2, 3, [-1] * 2, [-1] * 2)
    j2 = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]  # J_2 mod 3
    m = form.to_lists()
    assert [row[:4] for row in m[:4]] == j2
    assert [row[4:] for row in m[:4]] == j2
    assert [row[:4] for row in m[4:]] == j2
    assert [row[4:] for row in m[4:]] == j2



def test_matrix_owns_its_entries():
    rows = [[1, 2], [3, 4]]
    arr = np.array(rows, dtype=np.int64)
    from_list, from_array = FpMatrix(rows, 5), FpMatrix(arr, 5)
    rows[0][0] = 9
    arr[0, 0] = 9
    assert from_list.to_lists() == from_array.to_lists() == [[1, 2], [3, 4]]
    # results are new values: reading them out and editing the copy leaves
    # the operands and the results as they were
    reduced, _ = from_array.rref()
    product = from_array @ from_list
    for m in (reduced, product):
        m.to_lists()[0][0] = 4
    assert reduced.to_lists() == [[1, 0], [0, 1]]
    assert product.to_lists() == [[2, 0], [0, 2]]
    assert from_array.to_lists() == [[1, 2], [3, 4]]


def test_entries_beyond_int64_exact():
    # used to raise OverflowError, then was refused; now reduced exactly
    rows = [[0, 1], [-1, 10**30]]
    m = FpMatrix(rows, 3)
    assert m.to_lists() == [[x % 3 for x in row] for row in rows] == [[0, 1], [2, 1]]
    assert m.det() == det_oracle(rows, 3) == 1
    assert list(m.apply([10**30, -(10**40)])) == [-(10**40) % 3, (-(10**30) - 10**70) % 3]
    with pytest.raises(PreconditionError):
        FpMatrix([[0, 1], [1]], 3)


def test_non_integer_entries_refused():
    # a float used to be truncated to an int64 (2.5 read as 2)
    with pytest.raises(PreconditionError):
        FpMatrix([[0, 2.5], [-2.5, 0]], 3)
    with pytest.raises(PreconditionError):
        FpMatrix([[0, 1], [1, 0]], 3).apply([1.7, 0])
    with pytest.raises(PreconditionError):
        AlternatingForm.family(2, 5, (1.5, 3), (3, 3))
    with pytest.raises(PreconditionError):
        FpMatrix([[0, "1"], [1, 0]], 3)
    # numpy integers are integers
    assert FpMatrix(np.array([[7, 1]]), 5).to_lists() == [[2, 1]]


def test_boolean_entries_refused():
    # operator.index(True) is the int 1, so a bool is refused before the
    # index is taken: JSON true is not an integer entry
    with pytest.raises(PreconditionError, match="entry must be an integer, got True"):
        residues([True], 5)
    with pytest.raises(PreconditionError, match="matrix entry must be an integer, got True"):
        FpMatrix([[0, True], [True, 0]], 2)
    with pytest.raises(PreconditionError, match="vector entry must be an integer, got True"):
        HeisGroup(AlternatingForm.standard_symplectic(1, 3)).element((True, 0), 0)
    # numpy integers are still integers
    assert residues(np.array([7, -1], dtype=np.int64), 5) == [2, 4]


def test_sparse_constructor():
    m = FpMatrix.sparse([{1: 7}, {}, {0: -1, 2: 5}], 3, 5)
    assert (m.rows, m.cols) == (3, 3)
    assert m.to_lists() == [[0, 2, 0], [0, 0, 0], [4, 0, 0]]
    assert m == FpMatrix(m.to_lists(), 5)
    empty = FpMatrix.sparse([], 4, 7)
    assert (empty.rows, empty.cols, empty.rank()) == (0, 4, 0)
    assert len(empty.kernel_basis()) == 4
    for bad in ({3: 1}, {-1: 1}):
        with pytest.raises(PreconditionError, match="out of range 0..2"):
            FpMatrix.sparse([bad], 3, 5)
    for bad in ({True: 1}, {"0": 1}, {1.0: 1}):
        with pytest.raises(PreconditionError, match="column index must be an integer, got"):
            FpMatrix.sparse([bad], 3, 5)
    with pytest.raises(PreconditionError, match="matrix entry must be an integer, got 0.5"):
        FpMatrix.sparse([{0: 0.5}], 3, 5)
    with pytest.raises(PreconditionError, match="column count -1 is negative"):
        FpMatrix.sparse([], -1, 5)
    # a numpy integer is a column index, read as the int it equals
    assert FpMatrix.sparse([{np.int64(0): 1}], 1, 5) == FpMatrix([[1]], 5)
    with pytest.raises(PreconditionError):
        FpMatrix([], 5)  # a dense matrix with no rows has no column count


@st.composite
def matrices(draw):
    """(rows as dense lists, column count, p): zero-row, wide and tall shapes,
    mostly sparse entries at the smallest primes, at the largest prime with
    (p - 1)^2 < 2^63 and beyond it, at 2^61 - 1."""
    p = draw(st.sampled_from([2, 3, 3037000493, 2**61 - 1]))
    rows = draw(st.integers(min_value=0, max_value=7))
    cols = draw(st.integers(min_value=0, max_value=7))
    entry = st.one_of(st.just(0), st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    dense = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return dense, cols, p


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_dense_oracle(case):
    dense, cols, p = case
    m = FpMatrix.sparse([dict(enumerate(row)) for row in dense], cols, p)
    assert m.to_lists() == dense
    expected, pivots = rref_oracle(dense, cols, p)
    reduced, got_pivots = m.rref()
    assert reduced.to_lists() == expected and list(got_pivots) == pivots
    assert m.rank() == len(pivots)
    assert m.kernel_basis() == kernel_oracle(dense, cols, p)
    if len(dense) == cols:
        assert m.det() == det_oracle(dense, p)
    if dense:
        assert FpMatrix(dense, p) == m
