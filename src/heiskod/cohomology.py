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

* Wedge-square pairs (a, c), a < c, come in ``itertools.combinations`` order.

The product of two degree-1 classes follows the Kunneth sign rule
(x(x)y)(z(x)w) = (-1)^{deg y deg z} xz (x) yw together with the symplectic
relations a_i b_j = -b_j a_i = d_ij g and a_i a_j = b_i b_j = 0.

xi is the cup product into H^2 of the product surface, one sparse matrix
built once per (b, p) in a process: each wedge pair (a, c) gives one H^2 row
and sign, or none.  eta is the quotient map by the diagonal class d applied
to xi.  An alternating form is of Heisenberg type when xi(omega) is a
nonzero multiple of d, equivalently eta(omega) = 0 and xi(omega) != 0; such
forms are what the braid-group liftings need.  A genus whose wedge square
has more than ``WEDGE_BOUND`` pairs is refused before anything is built.
"""

from __future__ import annotations

import functools
import itertools
from operator import eq
from typing import Iterator, Optional

from .errors import InconsistencyError, PreconditionError
from .fplinalg import AlternatingForm, FpMatrix
from .primes import check_genus, check_prime, integer, shown

# letters for the two degree-1 generators of the surface
_A, _B = 0, 1


def _h1_class(i: int, b: int) -> tuple[int, int, int]:
    """(side, letter, j) of H^1 index i, unchecked; side and j are 1-based."""
    side, rem = divmod(i, 2 * b)
    j, letter = divmod(rem, 2)
    return side + 1, letter, j + 1


def _h2_block(letter1: int, letter2: int, i: int, j: int, b: int) -> int:
    """H^2 index of (letter1)_i (x) (letter2)_j, unchecked; i, j 1-based."""
    block = 2 * letter1 + letter2  # AA, AB, BA, BB
    return 2 + block * b * b + (i - 1) * b + (j - 1)


def _cup_basis(i1: int, i2: int, b: int, p: int) -> Optional[tuple[int, int]]:
    """Cup product of two H^1 basis classes: (H^2 index, sign) or None.
    Plain index arithmetic, since the rows of xi call it once per wedge pair."""
    s1, l1, j1 = _h1_class(i1, b)
    s2, l2, j2 = _h1_class(i2, b)
    if s1 == s2:
        # same-side product lands on a fundamental class, with the
        # symplectic-basis signs
        if j1 != j2 or l1 == l2:
            return None
        sign = 1 if (l1, l2) == (_A, _B) else -1
        return s1 - 1, sign % p  # g(x)1 or 1(x)g
    if s1 == 1:  # (x(x)1)(1(x)w) = x(x)w
        return _h2_block(l1, l2, j1, j2, b), 1
    # (1(x)y)(z(x)1) = -z(x)y
    return _h2_block(l2, l1, j2, j1, b), (-1) % p


WEDGE_BOUND = 2 * 10**5  # the most wedge pairs 8b^2 - 2b this layer reads: b <= 158


def _checked(b: int, p: int) -> int:
    """The genus b at the prime p, refused, before anything is built, when
    its wedge square has more than ``WEDGE_BOUND`` pairs."""
    check_prime(p)
    b = check_genus(b)
    if (n := 8 * b * b - 2 * b) > WEDGE_BOUND:
        raise PreconditionError(f"the wedge square at genus {shown(b)} has {shown(n)} pairs, more than {WEDGE_BOUND}")
    return b


def vec_of_form(form: AlternatingForm) -> tuple[int, ...]:
    """Coordinates of a form on the wedge-square basis (upper triangle)."""
    if form.dim % 4 != 0 or form.dim < 8:
        raise PreconditionError(f"form dimension {form.dim} is not 4b for some b >= 2")
    _checked(form.dim // 4, form.p)
    return tuple(x for a, row in enumerate(form.to_lists()) for x in row[a + 1 :])


def xi_of_form(form: AlternatingForm) -> tuple[int, ...]:
    """Image of an alternating form under the cup-product map xi.

    The form's matrix is read against the H^1 ordering, so
    xi(omega) = sum over a < c of Omega[a][c] * cup(e_a, e_c), the matrix of
    xi applied to the form's wedge-square coordinates.
    """
    w = vec_of_form(form)
    return xi_matrix(form.dim // 4, form.p).apply(w)


def diagonal_class(b: int, p: int) -> tuple[int, ...]:
    """Class of the diagonal: g(x)1 + 1(x)g + sum_j (b_j(x)a_j - a_j(x)b_j)."""
    b = _checked(b, p)
    out = [1, 1] + [0] * (4 * b * b)
    for j in range(1, b + 1):
        out[_h2_block(_B, _A, j, j, b)] = 1
        out[_h2_block(_A, _B, j, j, b)] = p - 1
    return tuple(out)


def classify_form(form: AlternatingForm) -> Optional[int]:
    """The k with xi(form) = k delta, or None when xi(form) is off the line of
    the diagonal class delta: the form is of Heisenberg type iff k is not in
    (None, 0).  Degenerate forms are accepted; their determinant is 0."""
    img = xi_of_form(form)
    # delta has coefficient 1 on g(x)1, so the only candidate multiple is the
    # first coordinate of the image
    k = img[0]
    return k if img == tuple(k * d % form.p for d in diagonal_class(form.dim // 4, form.p)) else None


# ---------------------------------------------------------------------------
# the pairing matrices and the candidate count
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None, typed=True)
def xi_matrix(b: int, p: int) -> FpMatrix:
    """Matrix of xi from the wedge square (dim 8b^2 - 2b) to H^2 (dim 4b^2 + 2),
    the one reading of the cup rule: wedge pair k lands in one H^2 row with
    its sign.  Cached per (b, p) and shared, as an FpMatrix never changes;
    ``typed`` keeps 2.0 from hitting the entry of 2."""
    b = _checked(b, p)
    rows: list[dict[int, int]] = [{} for _ in range(4 * b * b + 2)]
    for k, hit in enumerate(_cup_basis(a, c, b, p) for a, c in itertools.combinations(range(4 * b), 2)):
        if hit is not None:
            rows[hit[0]][k] = hit[1]
    return FpMatrix.sparse(rows, 8 * b * b - 2 * b, p)


def eta_matrix(b: int, p: int) -> FpMatrix:
    """Matrix of eta, xi's quotient by the diagonal class: Q xi, where row i
    of Q is e_{i+1} - delta_{i+1} e_0 (delta_0 = 1), for i = 0..4b^2."""
    xi = xi_matrix(b, p)
    quotient = [{i + 1: 1, 0: -d} for i, d in enumerate(diagonal_class(b, p)[1:])]
    return FpMatrix.sparse(quotient, xi.rows, p) @ xi


def count_heisenberg_candidates(b: int, p: int) -> int:
    """Number of alternating forms with eta(omega) = 0 but xi(omega) != 0.

    Computed as p^(dim ker eta) - p^(dim ker xi) from the ranks, and checked
    against the closed form p^(4b^2 - 2b - 2) (p - 1).
    """
    xi = xi_matrix(b, p)  # (b, p) refused here first
    ker_xi = xi.cols - xi.rank()
    ker_eta = xi.cols - eta_matrix(b, p).rank()
    count = p**ker_eta - p**ker_xi
    closed = p ** (4 * b * b - 2 * b - 2) * (p - 1)
    if count != closed:
        raise InconsistencyError(
            f"candidate count from ranks ({count}) disagrees with closed form ({closed}) at b={b}, p={p}"
        )
    return count


# ---------------------------------------------------------------------------
# search for family parameters
# ---------------------------------------------------------------------------


def _tuples_summing_to_one(b: int, p: int) -> Iterator[tuple[int, ...]]:
    """Lexicographic tuples in (F_p^*)^b with coordinate sum 1 mod p."""
    for head in itertools.product(range(1, p), repeat=b - 1):
        last = (1 - sum(head)) % p
        if last != 0:
            yield head + (last,)


def _family_params(b: int, p: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every valid (lambda, mu), lexicographically; lambda_j mu_j = 1 iff lambda_j = mu_j^-1.
    None at p = 2, where every lambda_j mu_j is 1, so no tuple of b ones is built."""
    if p == 2:
        return
    inverse = [0] + [pow(x, -1, p) for x in range(1, p)]
    mus = [(mu, tuple(inverse[m] for m in mu)) for mu in _tuples_summing_to_one(b, p)]
    for lam in _tuples_summing_to_one(b, p):
        for mu, inv_mu in mus:
            if not any(map(eq, lam, inv_mu)):
                yield lam, mu


SEARCH_BOUND = 2 * 10**8  # the most candidates (p-1)^(2b-2) a search exhausts


def search_family_params(
    b: int, p: int, count: Optional[int] = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Enumerate (lambda, mu) in (F_p^*)^{2b} with both sums 1 and lambda_j mu_j != 1.

    Lexicographic order over the combined tuple.  Every argument is checked
    here, before anything is enumerated; the hits then come lazily, the first
    ``count`` of them, or every hit (proving emptiness by exhaustion) when
    ``count`` is None.  For p = 2 and p = 3 the search is provably empty: at
    p = 3, lambda_j mu_j != 1 forces mu_j = -lambda_j, so the two sum
    conditions give 1 = -1.
    """
    b, p = check_genus(b), integer(p, "modulus")  # Python ints, so the power below cannot wrap
    check_prime(p)
    if count is not None and (count := integer(count, "count")) < 1:
        raise PreconditionError(f"count must be >= 1, got {shown(count)}")
    # for p >= 3, (p-1)^k exceeds the bound once k reaches its bit length, and
    # p = 2 gives 1 either way, so the capped power gives the same verdict
    if (p - 1) ** min(2 * (b - 1), SEARCH_BOUND.bit_length()) > SEARCH_BOUND:
        raise PreconditionError(
            f"search space (p-1)^(2b-2) at b = {shown(b)}, p = {p} is more than {SEARCH_BOUND}, too large to exhaust"
        )
    # no search has more hits than the bound, and islice takes no count past sys.maxsize
    return itertools.islice(_family_params(b, p), None if count is None else min(count, SEARCH_BOUND))
