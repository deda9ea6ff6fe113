"""Finite Heisenberg groups in two models, with one element type.

Every element is a :class:`HeisElement` (v, t): a vector v in V = F_p^dim and
a central part t in F_p, multiplied by the central extension law twisted by a
bilinear cocycle c(v1, v2) = v1 . C . v2:

    (v1, t1)(v2, t2) = (v1 + v2, t1 + t2 + v1 . C . v2).

Pair model (odd p only): C = (1/2) Omega for an alternating (possibly
degenerate) form omega on V, so the twist is (1/2) omega(v1, v2).

Matrix model (any p, including 2): H_{2n+1}(F_p), the upper unitriangular
(n+2) x (n+2) matrices with top row x, right column y and corner z.  The
matrix is the element (x + y, z) (v the concatenation of x and y) and
C = [[0, I], [0, 0]], so the twist is x1 . y2 and the law is bit-for-bit the
matrix product (the test suite proves this once against literal matrix
multiplication).  The (x, y, z) view appears only in the matrix model's
constructors and in :func:`iso_matrix_to_pair`.

The commutator pairing is C - C^T in either model, which keeps structure
checks, subgroup-order logic and the exhaustive coset enumeration uniform
across the two.  C and C - C^T are :class:`FpMatrix` values, and every
product, inverse and power is computed in Python integers, so group
arithmetic is exact for any prime.  numpy is imported only inside the
exhaustive checks (the enumeration branch of :func:`verify_extra_special`,
:meth:`_CocycleGroup.all_elements_raw` and the coset-enumeration oracle in
:mod:`verify`), which build int64 arrays from ``cocycle.to_lists()``; only
they depend on the modulus, through :func:`enumeration_guard`.

For p = 2 the pair model would need 1/2 (and the naive substitute law with a
full omega twist is abelian, hence useless here), so construction is refused
and callers are pointed at the matrix model.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import EnumerationBoundError, PreconditionError, UnsupportedModelError
from .fplinalg import AlternatingForm, FpMatrix, residues


@contextmanager
def enumeration_guard(order: int, bound: int):
    """Admit an exhaustive enumeration of a group of ``order`` = p^(dim + 1)
    elements in int64 arrays, or raise :class:`EnumerationBoundError`.

    Refused beyond ``bound`` and, whatever the bound, from order 2^62 on:
    below it every array value fits int64, since a packed code is below the
    order, a radix p^j at most order / p, a code plus a digit step r p^j
    (before its carry is taken off) below 2 order, and a central part
    t + t' + v.C.v' of residues at most 2 (p - 1) + dim (p - 1)^2 < order.
    A ``MemoryError`` raised inside the block, while the arrays are built, is
    refused too.
    """
    if order > bound:
        raise EnumerationBoundError(f"group order {order} exceeds the enumeration bound {bound}")
    if order >= 2**62:
        raise EnumerationBoundError(f"group order {order} is too large to enumerate in int64 arrays (needs < 2^62)")
    try:
        yield
    except MemoryError:
        raise EnumerationBoundError(f"not enough memory to enumerate a group of order {order}") from None


@dataclass(frozen=True)
class HeisElement:
    """Group element (v, t), components reduced mod p."""

    v: tuple[int, ...]
    t: int


class _CocycleGroup:
    """Central extension of F_p^dim by F_p with product twisted by v1.C.v2,
    for a square cocycle matrix C."""

    def __init__(self, cocycle: FpMatrix):
        self.p = p = cocycle.p
        self.dim = dim = cocycle.cols
        self.cocycle = cocycle
        c = cocycle.to_lists()
        self.comm_form = FpMatrix.sparse(
            [{j: c[i][j] - c[j][i] for j in range(dim)} for i in range(dim)], dim, p
        )
        self.order = p ** (dim + 1)

    def _twist(self, v1: Sequence[int], v2: Sequence[int]) -> int:
        """c(v1, v2) = v1 . (C v2)."""
        return sum(map(operator.mul, v1, self.cocycle.apply(v2))) % self.p

    def _residue(self, t) -> int:
        return residues([t], self.p, "central part")[0]

    # elements

    @property
    def identity(self) -> HeisElement:
        return HeisElement((0,) * self.dim, 0)

    def central(self, t: int = 1) -> HeisElement:
        return HeisElement((0,) * self.dim, self._residue(t))

    def basis_element(self, i: int, t: int = 0) -> HeisElement:
        return HeisElement(tuple(int(k == i) for k in range(self.dim)), self._residue(t))

    def _element(self, v: Sequence[int], t: int) -> HeisElement:
        vv = tuple(residues(v, self.p, "vector entries"))
        if len(vv) != self.dim:
            raise PreconditionError(f"vector length {len(vv)} does not match dim {self.dim}")
        return HeisElement(vv, self._residue(t))

    def mul(self, g: HeisElement, h: HeisElement) -> HeisElement:
        p = self.p
        v = tuple((a + b) % p for a, b in zip(g.v, h.v))
        return HeisElement(v, (g.t + h.t + self._twist(g.v, h.v)) % p)

    def inv(self, g: HeisElement) -> HeisElement:
        # (v,t)(-v,s) = (0, t + s + c(v,-v)) so s = -t + c(v,v)
        p = self.p
        return HeisElement(tuple(-x % p for x in g.v), (-g.t + self._twist(g.v, g.v)) % p)

    def power(self, g: HeisElement, k: int) -> HeisElement:
        if k < 0:
            g, k = self.inv(g), -k
        # g^k = (k v, k t + C(k,2) c(v,v)); c(v,v) = 0 in the pair model
        p = self.p
        t = k * g.t + k * (k - 1) // 2 * self._twist(g.v, g.v)
        return HeisElement(tuple(k * x % p for x in g.v), t % p)

    def order_of(self, g: HeisElement) -> int:
        """Order of ``g``: 1, p, or p^2 (the last only for p = 2).

        For v != 0 the vector part k v first vanishes at k = p, so g^p =
        (0, p t + C(p,2) c(v,v)) is central, and a nontrivial central element
        has order p.
        """
        if g == self.identity:
            return 1
        return self.p if self.power(g, self.p).t == 0 else self.p**2

    def commutator(self, g, h):
        gi, hi = self.inv(g), self.inv(h)
        return self.mul(self.mul(g, h), self.mul(gi, hi))

    # packing (mixed radix, digits v then t)

    def pack(self, v: Sequence[int], t: int) -> int:
        code = self._residue(t)
        for x in reversed(residues(v, self.p, "vector entries")):
            code = code * self.p + x
        return code

    def all_elements_raw(self, bound: int = 10**7):
        """(vectors, scalars) int64 arrays enumerating the whole group in
        packed order: row i is the element that ``pack`` maps to i."""
        import numpy as np

        with enumeration_guard(self.order, bound):
            codes = np.arange(self.order, dtype=np.int64)
            digits = np.empty((self.order, self.dim + 1), dtype=np.int64)
            for i in range(self.dim + 1):
                codes, digits[:, i] = np.divmod(codes, self.p)
        return digits[:, : self.dim], digits[:, self.dim]


class HeisGroup(_CocycleGroup):
    """Pair-model Heisenberg group of an alternating form (odd p).

    Degenerate forms are allowed: the center is then ker(omega) x F_p rather
    than the central F_p alone.
    """

    def __init__(self, form: AlternatingForm):
        if form.p == 2:
            raise UnsupportedModelError(
                "the pair model needs 1/2, which does not exist mod 2; use MatrixHeisGroup"
            )
        p, inv2 = form.p, pow(2, -1, form.p)
        half = [{j: inv2 * x % p for j, x in enumerate(row) if x} for row in form.omega.to_lists()]
        super().__init__(FpMatrix.sparse(half, form.dim, p))
        self.form = form

    def __repr__(self):
        return f"HeisGroup(dim={self.dim}, p={self.p}, order={self.order})"

    def element(self, v: Sequence[int], t: int) -> HeisElement:
        return self._element(v, t)


class MatrixHeisGroup(_CocycleGroup):
    """The matrix Heisenberg group H_{2n+1}(F_p), any prime p."""

    def __init__(self, n: int, p: int):
        if n < 1:
            raise PreconditionError(f"need n >= 1, got {n}")
        super().__init__(FpMatrix.sparse([{n + i: 1} for i in range(n)] + [{}] * n, 2 * n, p))
        self.n = n

    def __repr__(self):
        return f"MatrixHeisGroup(n={self.n}, p={self.p}, order={self.order})"

    def element(self, x: Sequence[int], y: Sequence[int], z: int) -> HeisElement:
        """The matrix with top row x, right column y and corner z: (x + y, z)."""
        if len(x) != self.n or len(y) != self.n:
            raise PreconditionError(f"x and y must have length n = {self.n}")
        return self._element((*x, *y), z)

    def x_generator(self, j: int) -> HeisElement:
        """X_j: single 1 in the top row (1-based j)."""
        return self.basis_element(j - 1)

    def y_generator(self, j: int) -> HeisElement:
        """Y_j: single 1 in the right column (1-based j)."""
        return self.basis_element(self.n + j - 1)

    def pair_model(self) -> HeisGroup:
        """The isomorphic pair-model group on the standard symplectic form."""
        if self.p == 2:
            raise UnsupportedModelError("no pair model exists mod 2")
        return HeisGroup(AlternatingForm.standard_symplectic(self.n, self.p))


def iso_matrix_to_pair(m: HeisElement, group: MatrixHeisGroup) -> HeisElement:
    """The isomorphism H_{2n+1}(F_p) -> Heis(F_p^{2n}, std): (v, t) -> (v, t - x.y/2),
    where v = x + y."""
    if group.p == 2:
        raise UnsupportedModelError("the isomorphism involves 1/2 and fails mod 2")
    p, n = group.p, group.n
    dot = sum(a * b for a, b in zip(m.v[:n], m.v[n:])) % p
    return HeisElement(m.v, (m.t - pow(2, -1, p) * dot) % p)


# ---------------------------------------------------------------------------
# structure verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupStructureReport:
    order: int
    exponent: int
    center_order: int
    commutator_order: int
    involution_count: int  # elements of order exactly 2
    is_extra_special: bool
    method: str  # "enumeration" or "structural"


def _exhaustive_orders(p: int, c, vs, ts):
    """Orders of all listed elements, by simultaneous repeated multiplication
    with the int64 cocycle ``c``."""
    import numpy as np

    n = vs.shape[0]
    orders = np.zeros(n, dtype=np.int64)
    cur_v = vs.copy()
    cur_t = ts.copy()
    # c(cur, g) rowwise: (cur_v * (C @ g_v)) summed; vectorised via matmul
    w = (vs @ c.T) % p  # row i holds C @ vs[i] transposed appropriately
    for k in range(1, 4 * p + 1):
        ident = (~cur_v.any(axis=1)) & (cur_t == 0)
        newly = ident & (orders == 0)
        orders[newly] = k
        if orders.all():
            break
        tw = (cur_v * w).sum(axis=1) % p
        cur_v = (cur_v + vs) % p
        cur_t = (cur_t + ts + tw) % p
    return orders


def verify_extra_special(group: _CocycleGroup, enumeration_bound: int = 2 * 10**5) -> GroupStructureReport:
    """Check order, exponent, center and commutator subgroup.

    Groups of order up to ``enumeration_bound`` are enumerated outright; the
    element orders, the center and (for very small groups) the full set of
    pairwise commutators are computed exhaustively.  Larger groups get the
    structural versions of the same numbers: exponent from generator orders,
    center from the kernel of the commutator pairing, commutator subgroup from
    the pairing values on basis vectors (commutators are central and bilinear
    in this nilpotency class, so nothing is lost).

    A degenerate pair-model form is legal input; the report then shows the
    enlarged center ker(omega) x F_p and ``is_extra_special`` False.
    """
    p = group.p
    comm_rank = group.comm_form.rank()
    center_order_structural = p ** (group.dim - comm_rank + 1)
    commutator_order = p if comm_rank else 1

    if group.order <= enumeration_bound:
        import numpy as np

        vs, ts = group.all_elements_raw(bound=enumeration_bound)
        c = np.array(group.cocycle.to_lists(), dtype=np.int64)
        comm = (c - c.T) % p
        orders = _exhaustive_orders(p, c, vs, ts)
        exponent = int(np.lcm.reduce(orders))
        involutions = int((orders == 2).sum())
        # mask over every (v, t), so the t choices are already counted
        central_mask = ~((vs @ comm.T) % p).any(axis=1)
        center_order = int(central_mask.sum())
        if center_order != center_order_structural:
            raise AssertionError("exhaustive center disagrees with kernel computation")
        if group.order <= 2000:
            # full pairwise commutator table; every commutator is the central
            # element with exponent comm(u, v), so the value set determines
            # the commutator subgroup
            values = set(np.unique((vs @ comm @ vs.T) % p).tolist())
            if values not in ({0}, set(range(p))):
                raise AssertionError("commutator values of a bilinear pairing must be {0} or all of F_p")
            commutator_order = 1 if values == {0} else p
        method = "enumeration"
    else:
        if p != 2:
            # g^p = (p v, p t + binom(p, 2) c(v, v)) vanishes for odd p
            exponent = p
        else:
            # order 4 exists iff the square map v -> c(v, v) is not identically
            # zero mod 2, i.e. some diagonal entry of C or some entry of
            # C + C^T = C - C^T is odd
            diagonal = any(row[i] for i, row in enumerate(group.cocycle.to_lists()))
            squares_nontrivial = diagonal or comm_rank > 0
            exponent = 4 if squares_nontrivial else 2
        involutions = -1  # not enumerated
        center_order = center_order_structural
        method = "structural"

    extra_special = (
        center_order == p
        and commutator_order == p
        and (exponent == p or (p == 2 and exponent == 4))
    )
    return GroupStructureReport(
        order=group.order,
        exponent=exponent,
        center_order=center_order,
        commutator_order=commutator_order,
        involution_count=involutions,
        is_extra_special=extra_special,
        method=method,
    )


# ---------------------------------------------------------------------------
# degenerate quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientData:
    group: HeisGroup                      # Heis(W, induced form)
    kernel_dim: int                       # dim of ker(omega) = V_0
    complement: tuple[int, ...]           # coordinate indices representing W
    project: Callable[[HeisElement], HeisElement]


def degenerate_quotient(group: HeisGroup) -> QuotientData:
    """Quotient Heis(V, omega) -> Heis(V/V_0, induced omega) for V_0 = ker omega.

    The projection (v, t) -> (v + V_0, t) is a surjective homomorphism with
    kernel V_0 x {0}; the induced form on the quotient is symplectic.  When
    omega is already symplectic the quotient is the identity map.
    """
    form = group.form
    kernel_rows = form.omega.kernel_basis()
    if not kernel_rows:
        return QuotientData(group, 0, tuple(range(group.dim)), lambda g: g)
    p = group.p
    kr, pivots = FpMatrix(kernel_rows, p).rref()
    reducers = list(zip(pivots, kr.to_lists()))
    complement = tuple(c for c in range(group.dim) if c not in set(pivots))
    omega = form.omega.to_lists()
    omega_w = [[omega[i][j] for j in complement] for i in complement]
    quotient = HeisGroup(AlternatingForm(FpMatrix(omega_w, p)))

    def project(g: HeisElement) -> HeisElement:
        v = list(g.v)
        for c, row in reducers:
            f = v[c]
            v = [(a - f * b) % p for a, b in zip(v, row)]
        return quotient.element([v[c] for c in complement], g.t)

    return QuotientData(quotient, len(kernel_rows), complement, project)
