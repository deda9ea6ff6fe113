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
across the two.  Products stay exact in int64 because the group refuses a
modulus with dim (p - 1)^2 >= 2^63 and reduces between the two products of
v1 . C . v2.

For p = 2 the pair model would need 1/2 (and the naive substitute law with a
full omega twist is abelian, hence useless here), so construction is refused
and callers are pointed at the matrix model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EnumerationBoundError, PreconditionError, UnsupportedModelError
from .fplinalg import AlternatingForm, FpMatrix, _check_int64_dot, _check_prime


@dataclass(frozen=True)
class HeisElement:
    """Group element (v, t), components reduced mod p."""

    v: tuple[int, ...]
    t: int


class _CocycleGroup:
    """Central extension of F_p^dim by F_p with product twisted by v1.C.v2."""

    def __init__(self, p: int, dim: int, cocycle: np.ndarray):
        _check_prime(p)
        _check_int64_dot(dim, p)
        self.p = p
        self.dim = dim
        self._c = np.asarray(cocycle, dtype=np.int64) % p
        self.comm_form = (self._c - self._c.T) % p
        self.order = p ** (dim + 1)

    # raw representation: (numpy int64 vector of length dim, int)

    def _twist(self, v1, v2) -> int:
        # c(v1, v2), reduced after each product so no sum leaves int64
        return int((v1 @ self._c) % self.p @ v2) % self.p

    def _mul_raw(self, v1, t1, v2, t2):
        p = self.p
        return (v1 + v2) % p, (t1 + t2 + self._twist(v1, v2)) % p

    def _inv_raw(self, v, t):
        # (v,t)(-v,s) = (0, t + s + c(v,-v)) so s = -t + c(v,v)
        return (-v) % self.p, (-t + self._twist(v, v)) % self.p

    def _pow_raw(self, v, t, k: int):
        p = self.p
        if k < 0:
            v, t = self._inv_raw(v, t)
            k = -k
        # g^k = (k v, k t + C(k,2) c(v,v)); c(v,v) = 0 in the pair model;
        # k is reduced before it meets the int64 vector
        return ((k % p) * v) % p, (k * t + (k * (k - 1) // 2) * self._twist(v, v)) % p

    def _raw(self, g: HeisElement):
        return np.array(g.v, dtype=np.int64), g.t

    def _wrap(self, v, t) -> HeisElement:
        return HeisElement(tuple(v.tolist()), int(t))

    # elements

    @property
    def identity(self) -> HeisElement:
        return HeisElement((0,) * self.dim, 0)

    def central(self, t: int = 1) -> HeisElement:
        return HeisElement((0,) * self.dim, t % self.p)

    def basis_element(self, i: int, t: int = 0) -> HeisElement:
        return HeisElement(tuple(int(k == i) for k in range(self.dim)), t % self.p)

    def projection(self, g: HeisElement) -> tuple[int, ...]:
        return g.v

    def mul(self, g, h):
        return self._wrap(*self._mul_raw(*self._raw(g), *self._raw(h)))

    def inv(self, g):
        return self._wrap(*self._inv_raw(*self._raw(g)))

    def power(self, g, k: int):
        return self._wrap(*self._pow_raw(*self._raw(g), k))

    def order_of(self, g) -> int:
        """Order of ``g``: 1, p, or p^2 (the last only for p = 2).

        For v != 0 the vector part k v first vanishes at k = p, so g^p =
        (0, p t + C(p,2) c(v,v)) is central, and a nontrivial central element
        has order p.
        """
        v, t = self._raw(g)
        if not v.any() and t == 0:
            return 1
        _, pt = self._pow_raw(v, t, self.p)
        return self.p if pt == 0 else self.p**2

    def commutator(self, g, h):
        gi, hi = self.inv(g), self.inv(h)
        return self.mul(self.mul(g, h), self.mul(gi, hi))

    # packing (mixed radix, digits v then t)

    def pack(self, v: Sequence[int], t: int) -> int:
        code = int(t) % self.p
        for x in reversed(tuple(v)):
            code = code * self.p + int(x) % self.p
        return code

    def unpack(self, code: int) -> tuple[tuple[int, ...], int]:
        digits = []
        for _ in range(self.dim):
            code, d = divmod(code, self.p)
            digits.append(d)
        return tuple(digits), code

    def all_elements_raw(self, bound: int = 10**7) -> tuple[np.ndarray, np.ndarray]:
        """(vectors, scalars) arrays enumerating the whole group, packed order."""
        if self.order > bound:
            raise EnumerationBoundError(f"group order {self.order} exceeds enumeration bound {bound}")
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
        inv2 = pow(2, -1, form.p)
        super().__init__(form.p, form.dim, inv2 * np.array(form.omega.to_lists(), dtype=np.int64))
        self.form = form

    def __repr__(self):
        return f"HeisGroup(dim={self.dim}, p={self.p}, order={self.order})"

    def element(self, v: Sequence[int], t: int) -> HeisElement:
        vv = tuple(int(x) % self.p for x in v)
        if len(vv) != self.dim:
            raise PreconditionError(f"vector length {len(vv)} does not match dim {self.dim}")
        return HeisElement(vv, int(t) % self.p)


class MatrixHeisGroup(_CocycleGroup):
    """The matrix Heisenberg group H_{2n+1}(F_p), any prime p."""

    def __init__(self, n: int, p: int):
        if n < 1:
            raise PreconditionError(f"need n >= 1, got {n}")
        c = np.zeros((2 * n, 2 * n), dtype=np.int64)
        c[:n, n:] = np.eye(n, dtype=np.int64)
        super().__init__(p, 2 * n, c)
        self.n = n

    def __repr__(self):
        return f"MatrixHeisGroup(n={self.n}, p={self.p}, order={self.order})"

    def element(self, x: Sequence[int], y: Sequence[int], z: int) -> HeisElement:
        """The matrix with top row x, right column y and corner z: (x + y, z)."""
        if len(x) != self.n or len(y) != self.n:
            raise PreconditionError(f"x and y must have length n = {self.n}")
        return HeisElement(tuple(int(a) % self.p for a in (*x, *y)), int(z) % self.p)

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


def _exhaustive_orders(group: _CocycleGroup, vs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Orders of all listed elements, by simultaneous repeated multiplication."""
    p = group.p
    n = vs.shape[0]
    orders = np.zeros(n, dtype=np.int64)
    cur_v = vs.copy()
    cur_t = ts.copy()
    # c(cur, g) rowwise: (cur_v * (C @ g_v)) summed; vectorised via matmul
    w = (vs @ group._c.T) % p  # row i holds C @ vs[i] transposed appropriately
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
    comm = group.comm_form
    kernel_dim = group.dim - FpMatrix(comm.tolist(), p).rank()
    center_order_structural = p ** (kernel_dim + 1)
    commutator_order = p if comm.any() else 1

    if group.order <= enumeration_bound:
        vs, ts = group.all_elements_raw(bound=enumeration_bound)
        orders = _exhaustive_orders(group, vs, ts)
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
            # zero mod 2, i.e. some diagonal or symmetrised entry of C is odd
            c = group._c
            squares_nontrivial = bool((np.diagonal(c) % 2).any() or ((c + c.T) % 2).any())
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
    kr, pivots = FpMatrix(kernel_rows, group.p).rref()
    kra = np.array(kr.to_lists(), dtype=np.int64)
    complement = tuple(c for c in range(group.dim) if c not in set(pivots))
    omega = form.omega.to_lists()
    omega_w = [[omega[i][j] for j in complement] for i in complement]
    quotient = HeisGroup(AlternatingForm(FpMatrix(omega_w, group.p)))

    piv = tuple(pivots)

    def project(g: HeisElement) -> HeisElement:
        v = np.array(g.v, dtype=np.int64)
        for i, c in enumerate(piv):
            v = (v - v[c] * kra[i]) % group.p
        return quotient.element(v[list(complement)], g.t)

    return QuotientData(quotient, len(kernel_rows), complement, project)
