"""Cohomology of a product of two genus-b surfaces over F_p, in coordinates.

Basis conventions, fixed once so that every matrix and JSON emission is
bit-stable across runs:

* H^1 has the 4b classes, in this order::

      a_1(x)1, b_1(x)1, ..., a_b(x)1, b_b(x)1,
      1(x)a_1, 1(x)b_1, ..., 1(x)a_b, 1(x)b_b

  where a_j, b_j is a symplectic basis of the surface (a_j b_j = g, the
  fundamental class) and (x) is the external tensor product.  Index i of this
  list is dual to the i-th vector of the homology basis
  r_11, t_11, ..., r_1b, t_1b, r_21, t_21, ..., r_2b, t_2b used by the
  Heisenberg constructions, so a 4b x 4b alternating matrix can be read
  against either.

* H^2 has the 4b^2 + 2 classes  g(x)1, 1(x)g, then the four b x b blocks
  a_i(x)a_j, a_i(x)b_j, b_i(x)a_j, b_i(x)b_j, each row-major in (i, j).

* Wedge-square pairs (a, c) with a < c are ordered lexicographically.

The product of two degree-1 classes follows the Kunneth sign rule
(x(x)y)(z(x)w) = (-1)^{deg y deg z} xz (x) yw together with the symplectic
relations a_i b_j = -b_j a_i = d_ij g and a_i a_j = b_i b_j = 0.

xi is the cup product into H^2 of the product surface, one table built from
the cup rule: each wedge pair (a, c) gives one H^2 row and sign, or none.
eta is xi followed by a row operation, the quotient by the diagonal class d.
An alternating form is of Heisenberg type when xi(omega) is a nonzero
multiple of d, equivalently eta(omega) = 0 and xi(omega) != 0; such forms
are what the braid-group liftings need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import EnumerationBoundError, InconsistencyError, PreconditionError
from .fplinalg import AlternatingForm, FpMatrix, _check_int64_dot, _check_prime

# letters for the two degree-1 generators of the surface
_A, _B = 0, 1


class H1Basis:
    """Index bookkeeping for the ordered H^1 basis at genus b."""

    def __init__(self, b: int):
        if b < 2:
            raise PreconditionError(f"genus b must be >= 2, got {b}")
        self.b = b
        self.size = 4 * b

    def index_of(self, side: int, letter: int, j: int) -> int:
        """side 1 means x(x)1, side 2 means 1(x)x; j is 1-based."""
        if side not in (1, 2) or letter not in (_A, _B) or not 1 <= j <= self.b:
            raise PreconditionError(f"no H^1 class (side={side}, letter={letter}, j={j})")
        return (side - 1) * 2 * self.b + 2 * (j - 1) + letter

    def class_at(self, i: int) -> tuple[int, int, int]:
        if not 0 <= i < self.size:
            raise PreconditionError(f"H^1 index {i} out of range")
        side, rem = divmod(i, 2 * self.b)
        j, letter = divmod(rem, 2)
        return side + 1, letter, j + 1


class H2Basis:
    """Index bookkeeping for the ordered H^2 basis at genus b."""

    GAMMA_LEFT = 0   # g(x)1
    GAMMA_RIGHT = 1  # 1(x)g

    def __init__(self, b: int):
        if b < 2:
            raise PreconditionError(f"genus b must be >= 2, got {b}")
        self.b = b
        self.size = 4 * b * b + 2

    def block_index(self, letter1: int, letter2: int, i: int, j: int) -> int:
        """Index of (letter1)_i (x) (letter2)_j; both indices 1-based."""
        if not (1 <= i <= self.b and 1 <= j <= self.b):
            raise PreconditionError(f"H^2 block position ({i}, {j}) out of range")
        block = 2 * letter1 + letter2  # AA, AB, BA, BB
        return 2 + block * self.b * self.b + (i - 1) * self.b + (j - 1)


@dataclass(frozen=True)
class H2Class:
    """A degree-2 class as a reduced coefficient tuple of length 4b^2 + 2."""

    b: int
    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != 4 * self.b * self.b + 2:
            raise PreconditionError("H^2 coefficient vector has the wrong length")

    def _compatible(self, other: "H2Class") -> None:
        if (self.b, self.p) != (other.b, other.p):
            raise PreconditionError("H^2 classes from different (b, p)")

    def __add__(self, other: "H2Class") -> "H2Class":
        self._compatible(other)
        return H2Class(self.b, self.p, tuple((x + y) % self.p for x, y in zip(self.coeffs, other.coeffs)))

    def scale(self, c: int) -> "H2Class":
        return H2Class(self.b, self.p, tuple((c * x) % self.p for x in self.coeffs))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)


def _cup_basis(i1: int, i2: int, b: int, p: int) -> Optional[tuple[int, int]]:
    """Cup product of two H^1 basis classes: (H^2 index, sign) or None."""
    h1 = H1Basis(b)
    h2 = H2Basis(b)
    s1, l1, j1 = h1.class_at(i1)
    s2, l2, j2 = h1.class_at(i2)
    if s1 == s2:
        # same-side product lands on a fundamental class, with the
        # symplectic-basis signs
        if j1 != j2 or l1 == l2:
            return None
        target = h2.GAMMA_LEFT if s1 == 1 else h2.GAMMA_RIGHT
        sign = 1 if (l1, l2) == (_A, _B) else -1
        return target, sign % p
    if s1 == 1:  # (x(x)1)(1(x)w) = x(x)w
        return h2.block_index(l1, l2, j1, j2), 1
    # (1(x)y)(z(x)1) = -z(x)y
    return h2.block_index(l2, l1, j2, j1), (-1) % p


def lambda2_pairs(b: int) -> list[tuple[int, int]]:
    """Ordered basis (a, c), a < c, of the wedge square of the dual of H_1."""
    return [(a, c) for a in range(4 * b) for c in range(a + 1, 4 * b)]


def _cup_table(b: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The cup rule on the wedge-square basis, read afresh from _cup_basis:
    (H^2 row, sign) per pair of lambda2_pairs(b), (0, 0) where it vanishes."""
    hits = [_cup_basis(a, c, b, p) or (0, 0) for a, c in lambda2_pairs(b)]
    return np.array(hits, dtype=np.int64).reshape(-1, 2).T


def _xi_of_wedge(w: np.ndarray, b: int, p: int) -> H2Class:
    """xi of reduced wedge-square coordinates: the table as a scatter-add.
    Each term sign * w is below (p - 1)^2, which callers keep below 2^63."""
    rows, signs = _cup_table(b, p)
    out = np.zeros(4 * b * b + 2, dtype=np.int64)
    np.add.at(out, rows, signs * w % p)
    return H2Class(b, p, tuple((out % p).tolist()))


VectorLike = Union[int, Sequence[int]]


def _as_h1_vector(u: VectorLike, b: int, p: int) -> np.ndarray:
    if isinstance(u, (int, np.integer)):
        v = np.zeros(4 * b, dtype=np.int64)
        v[int(u)] = 1
        return v
    v = np.asarray(u, dtype=np.int64) % p
    if v.shape != (4 * b,):
        raise PreconditionError(f"H^1 vector must have length {4 * b}")
    return v


def cup_h1_h1(u: VectorLike, v: VectorLike, b: int, p: int) -> H2Class:
    """Bilinear cup product of two degree-1 classes (indices or vectors): the
    rule is alternating, so u v is xi of the wedge u ^ v = u v^T - v u^T."""
    _check_prime(p)
    _check_int64_dot(1, p)
    uu = _as_h1_vector(u, b, p)
    vv = _as_h1_vector(v, b, p)
    wedge = (np.outer(uu, vv) - np.outer(vv, uu)) % p
    return _xi_of_wedge(wedge[np.triu_indices(4 * b, k=1)], b, p)


def _form_genus(form: AlternatingForm) -> int:
    if form.dim % 4 != 0 or form.dim < 8:
        raise PreconditionError(f"form dimension {form.dim} is not 4b for some b >= 2")
    return form.dim // 4


def vec_of_form(form: AlternatingForm) -> tuple[int, ...]:
    """Coordinates of a form on the wedge-square basis (upper triangle)."""
    b = _form_genus(form)
    return tuple(form.omega.array()[np.triu_indices(4 * b, k=1)].tolist())


def xi_of_form(form: AlternatingForm) -> H2Class:
    """Image of an alternating form under the cup-product map xi.

    The form's matrix is read against the H^1 ordering, so
    xi(omega) = sum over a < c of Omega[a][c] * cup(e_a, e_c).
    """
    return _xi_of_wedge(np.array(vec_of_form(form), dtype=np.int64), form.dim // 4, form.p)


def diagonal_class(b: int, p: int) -> H2Class:
    """Class of the diagonal: g(x)1 + 1(x)g + sum_j (b_j(x)a_j - a_j(x)b_j)."""
    _check_prime(p)
    h2 = H2Basis(b)
    out = np.zeros(h2.size, dtype=np.int64)
    out[h2.GAMMA_LEFT] = 1
    out[h2.GAMMA_RIGHT] = 1
    for j in range(1, b + 1):
        out[h2.block_index(_B, _A, j, j)] = 1
        out[h2.block_index(_A, _B, j, j)] = (-1) % p
    return H2Class(b, p, tuple(int(x) for x in out))


def _mod_delta(x: np.ndarray, b: int, p: int) -> np.ndarray:
    """H^2 / <delta> coordinates x[1:] - x[0] delta[1:] of a class or of each
    column of a matrix; the kernel is the diagonal line as delta starts with 1."""
    delta = np.array(diagonal_class(b, p).coeffs[1:], dtype=np.int64)
    return (x[1:] - np.multiply.outer(delta, x[0])) % p


@dataclass(frozen=True)
class FormClassification:
    """Outcome of testing an alternating form against the diagonal line."""

    is_alternating: bool
    is_symplectic: bool
    xi_image: H2Class
    diagonal_multiple: Optional[int]
    is_heisenberg_type: bool


def classify_form(form: AlternatingForm) -> FormClassification:
    """Decide whether xi(form) lies on the line spanned by the diagonal class.

    Degenerate forms are accepted; symplecticity is reported separately.
    """
    img = xi_of_form(form)
    # delta has coefficient 1 on g(x)1, so the only candidate multiple is the
    # first coordinate of the image
    on_line = not _mod_delta(np.array(img.coeffs, dtype=np.int64), img.b, img.p).any()
    multiple = img.coeffs[0] if on_line else None
    return FormClassification(
        is_alternating=True,
        is_symplectic=form.is_symplectic(),
        xi_image=img,
        diagonal_multiple=multiple,
        is_heisenberg_type=multiple is not None and multiple != 0,
    )


# ---------------------------------------------------------------------------
# the pairing matrices and the candidate count
# ---------------------------------------------------------------------------


def xi_matrix(b: int, p: int) -> FpMatrix:
    """Matrix of xi from the wedge square (dim 8b^2 - 2b) to H^2 (dim 4b^2 + 2)."""
    _check_prime(p)
    rows, signs = _cup_table(b, p)
    m = np.zeros((4 * b * b + 2, rows.size), dtype=np.int64)
    m[rows, np.arange(rows.size)] = signs
    return FpMatrix(m, p)


def eta_matrix(b: int, p: int) -> FpMatrix:
    """Matrix of eta: xi followed by the quotient by the diagonal class."""
    return FpMatrix(_mod_delta(xi_matrix(b, p).array(), b, p), p)


def count_heisenberg_candidates(b: int, p: int) -> int:
    """Number of alternating forms with eta(omega) = 0 but xi(omega) != 0.

    Computed as p^(dim ker eta) - p^(dim ker xi) from the ranks, and checked
    against the closed form p^(4b^2 - 2b - 2) (p - 1).
    """
    domain = 8 * b * b - 2 * b
    xi = xi_matrix(b, p)
    ker_xi = domain - xi.rank()
    eta = FpMatrix(_mod_delta(xi.array(), b, p), p)
    del xi  # the second row reduction peaks memory; do not hold xi through it
    ker_eta = domain - eta.rank()
    count = p**ker_eta - p**ker_xi
    closed = p ** (4 * b * b - 2 * b - 2) * (p - 1)
    if count != closed:
        raise InconsistencyError(
            f"candidate count from ranks ({count}) disagrees with closed form ({closed}) at b={b}, p={p}"
        )
    return count


def complement_betti(b: int) -> tuple[int, int, int, int, int]:
    """Betti numbers of the product minus its diagonal: (1, 4b, 4b^2+1, 2b, 0)."""
    if b < 2:
        raise PreconditionError(f"genus b must be >= 2, got {b}")
    return (1, 4 * b, 4 * b * b + 1, 2 * b, 0)


# ---------------------------------------------------------------------------
# search for family parameters
# ---------------------------------------------------------------------------


def _tuples_summing_to_one(b: int, p: int) -> Iterator[tuple[int, ...]]:
    """Lexicographic tuples in (F_p^*)^b with coordinate sum 1 mod p."""
    for head in itertools.product(range(1, p), repeat=b - 1):
        last = (1 - sum(head)) % p
        if last != 0:
            yield head + (last,)


def search_family_params(b: int, p: int, count: Optional[int] = None) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Enumerate (lambda, mu) in (F_p^*)^{2b} with both sums 1 and lambda_j mu_j != 1.

    Lexicographic order over the combined tuple; returns the first ``count``
    hits, or every hit (proving emptiness by exhaustion) when ``count`` is
    None.  For p = 3 the search is provably empty: lambda_j mu_j != 1 forces
    mu_j = -lambda_j, so the two sum conditions give 1 = -1.
    """
    if b < 2:
        raise PreconditionError(f"genus b must be >= 2, got {b}")
    _check_prime(p)
    if count is not None and count < 1:
        raise PreconditionError(f"count must be >= 1, got {count}")
    if (p - 1) ** (2 * (b - 1)) > 2 * 10**8:
        raise EnumerationBoundError(
            f"search space (p-1)^(2b-2) = {(p - 1) ** (2 * (b - 1))} is too large to exhaust"
        )
    hits: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    mus = list(_tuples_summing_to_one(b, p))
    for lam in _tuples_summing_to_one(b, p):
        for mu in mus:
            if all((lj * mj) % p != 1 for lj, mj in zip(lam, mu)):
                hits.append((lam, mu))
                if count is not None and len(hits) >= count:
                    return hits
    return hits
