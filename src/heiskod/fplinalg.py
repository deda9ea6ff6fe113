"""Exact dense linear algebra over a prime field F_p.

Everything downstream (cup products, Heisenberg groups, rank counts) runs on
the two value types defined here: :class:`FpMatrix`, an immutable dense matrix
of residues, and :class:`AlternatingForm`, a skew matrix with optional
(lambda, mu) provenance when it comes from the block family

    Omega_b = [[L_b, J_b], [J_b, M_b]],

where L_b, M_b are block-diagonal with 2x2 blocks [[0, l_j], [-l_j, 0]]
(resp. mu_j) and J_b has blocks [[0, -1], [1, 0]].  Its determinant is
prod_j (1 - lambda_j * mu_j)^2, so the form is symplectic exactly when no
lambda_j * mu_j equals 1.

Row reduction and the determinant are vectorised numpy eliminations with a
deterministic pivot rule (first nonzero entry in column order); all
operations return new values.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .invariants import is_prime


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise PreconditionError(f"modulus {p} is not prime")


def _check_int64_dot(n: int, p: int) -> None:
    """Refuse a modulus at which a sum of n products of residues could
    overflow int64: every kernel here stays exact while n (p - 1)^2 < 2^63."""
    if n * (p - 1) ** 2 >= 2**63:
        raise PreconditionError(
            f"modulus {p} is too large for exact int64 arithmetic (needs {n} (p - 1)^2 < 2^63)"
        )


class FpMatrix:
    """Immutable dense matrix over F_p.

    The entry array is reduced on construction and frozen; rank, determinant,
    kernel and products all return fresh values, so instances are safe to
    share between workers.  The modulus must keep (p - 1)^2 below 2^63, which
    makes the elimination updates exact; products also need cols (p - 1)^2
    below 2^63.
    """

    __slots__ = ("p", "rows", "cols", "_a")

    def __init__(self, entries, p: int):
        _check_prime(p)
        _check_int64_dot(1, p)
        try:
            a = np.array(entries, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            raise PreconditionError("matrix entries must be int64 integers") from None
        if a.ndim != 2:
            raise PreconditionError("matrix entries must be two-dimensional")
        a %= p  # in place: the fresh copy above is the only one
        self._adopt(a, p)

    @classmethod
    def _reduced(cls, a: np.ndarray, p: int) -> "FpMatrix":
        """Take over a reduced 2-D int64 array that nothing else holds,
        without checking or copying it."""
        m = object.__new__(cls)
        m._adopt(a, p)
        return m

    def _adopt(self, a: np.ndarray, p: int) -> None:
        a.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", a.shape[0])
        object.__setattr__(self, "cols", a.shape[1])
        object.__setattr__(self, "_a", a)

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "FpMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p: int) -> "FpMatrix":
        return cls(np.eye(n, dtype=np.int64), p)

    # -- accessors ---------------------------------------------------------

    def array(self) -> np.ndarray:
        """Read-only view of the entries."""
        return self._a

    def to_lists(self) -> list[list[int]]:
        return self._a.tolist()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self._a.shape == other._a.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self):
        return hash((self.p, self._a.shape, self._a.tobytes()))

    def __repr__(self):
        return f"FpMatrix({self.rows}x{self.cols} mod {self.p})"

    # -- arithmetic --------------------------------------------------------

    def _same_field(self, other: "FpMatrix") -> None:
        if self.p != other.p:
            raise PreconditionError(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._same_field(other)
        return FpMatrix(self._a + other._a, self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._same_field(other)
        return FpMatrix(self._a - other._a, self.p)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._same_field(other)
        if self.cols != other.rows:
            raise PreconditionError("inner dimensions disagree")
        _check_int64_dot(self.cols, self.p)
        prod = self._a @ other._a
        prod %= self.p
        return FpMatrix._reduced(prod, self.p)

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix(self._a * (c % self.p), self.p)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product, returned as a reduced tuple."""
        vec = np.asarray(v, dtype=np.int64) % self.p
        if vec.shape != (self.cols,):
            raise PreconditionError("vector length disagrees with column count")
        _check_int64_dot(self.cols, self.p)
        return tuple(int(x) for x in (self._a @ vec) % self.p)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["FpMatrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        p = self.p
        a = self._a.copy()
        m, n = a.shape
        r = 0
        pivots = []
        for c in range(n):
            if r == m:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
            rows = np.nonzero(a[:, c])[0]
            rows = rows[rows != r]
            if rows.size:
                a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
            pivots.append(c)
            r += 1
        return FpMatrix._reduced(a, p), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> int:
        if self.rows != self.cols:
            raise PreconditionError(f"determinant of non-square {self.rows}x{self.cols} matrix")
        p = self.p
        a = self._a.copy()
        det = 1
        for c in range(self.rows):
            nz = np.nonzero(a[c:, c])[0]
            if nz.size == 0:
                return 0
            i = c + int(nz[0])
            if i != c:
                a[[c, i]] = a[[i, c]]
                det = (-det) % p
            piv = int(a[c, c])
            det = (det * piv) % p
            inv = pow(piv, -1, p)
            rows = c + 1 + np.nonzero(a[c + 1 :, c])[0]
            if rows.size:
                factors = (a[rows, c] * inv) % p
                a[rows] = (a[rows] - np.outer(factors, a[c])) % p
        return det

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of the right null-space; empty iff full column rank.

        One vector per free column, in ascending free-column order: the free
        coordinate is set to 1 and pivot coordinates to the negated reduced
        entries, so the output is canonical given the pivot rule.
        """
        r, pivots = self.rref()
        piv = set(pivots)
        free = [c for c in range(self.cols) if c not in piv]
        ra = r.array()
        basis = []
        for f in free:
            v = np.zeros(self.cols, dtype=np.int64)
            v[f] = 1
            for i, c in enumerate(pivots):
                v[c] = (-ra[i, f]) % self.p
            basis.append(tuple(int(x) for x in v))
        return basis


def span_dim(vectors: Iterable[Sequence[int]], p: int) -> int:
    """Dimension of the span of the given vectors in F_p^n."""
    vecs = [np.asarray(v, dtype=np.int64) for v in vectors]
    if not vecs:
        return 0
    dims = {v.shape for v in vecs}
    if len(dims) != 1:
        raise PreconditionError("vectors of mixed dimension")
    return FpMatrix(np.stack(vecs), p).rank()


# ---------------------------------------------------------------------------
# alternating forms
# ---------------------------------------------------------------------------


def _j_block(b: int, p: int) -> np.ndarray:
    """2b x 2b block-diagonal matrix with blocks [[0, -1], [1, 0]]."""
    m = np.zeros((2 * b, 2 * b), dtype=np.int64)
    for j in range(b):
        m[2 * j, 2 * j + 1] = (-1) % p
        m[2 * j + 1, 2 * j] = 1
    return m


def _pair_block(values: Sequence[int], p: int) -> np.ndarray:
    """Block-diagonal matrix with blocks [[0, c_j], [-c_j, 0]]."""
    b = len(values)
    m = np.zeros((2 * b, 2 * b), dtype=np.int64)
    for j, c in enumerate(values):
        m[2 * j, 2 * j + 1] = c % p
        m[2 * j + 1, 2 * j] = (-c) % p
    return m


class AlternatingForm:
    """A skew-symmetric form on F_p^dim, with optional family provenance.

    ``family_params`` is ``(lambdas, mus)`` when the form is the block matrix
    Omega_b described in the module docstring, else ``None``.
    """

    __slots__ = ("p", "dim", "omega", "family_params")

    def __init__(self, omega: FpMatrix, family_params: Optional[tuple] = None):
        p = omega.p
        if omega.rows != omega.cols:
            raise PreconditionError("alternating form must be square")
        a = omega.array()
        if not np.array_equal(a.T % p, (-a) % p):
            raise PreconditionError("matrix is not skew-symmetric mod p")
        if np.any(np.diagonal(a) % p != 0):
            # for odd p this is implied by skewness; for p = 2 it is the
            # extra alternating condition
            raise PreconditionError("alternating form must vanish on the diagonal")
        _check_int64_dot(omega.rows, p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", omega.rows)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "family_params", family_params)

    def __setattr__(self, name, value):
        raise AttributeError("AlternatingForm is immutable")

    def __repr__(self):
        tag = " family" if self.family_params else ""
        return f"AlternatingForm(dim={self.dim}, p={self.p}{tag})"

    def __eq__(self, other) -> bool:
        return isinstance(other, AlternatingForm) and self.omega == other.omega

    def __hash__(self):
        return hash(self.omega)

    @classmethod
    def family(cls, b: int, p: int, lambdas: Sequence[int], mus: Sequence[int]) -> "AlternatingForm":
        """The 4b x 4b block form Omega_b determined by (lambda, mu)."""
        if b < 2:
            raise PreconditionError(f"genus b must be >= 2, got {b}")
        _check_prime(p)
        if len(lambdas) != b or len(mus) != b:
            raise PreconditionError(f"need {b} lambdas and {b} mus")
        lam = tuple(int(x) % p for x in lambdas)
        mu = tuple(int(x) % p for x in mus)
        jb = _j_block(b, p)
        top = np.concatenate([_pair_block(lam, p), jb], axis=1)
        bot = np.concatenate([jb, _pair_block(mu, p)], axis=1)
        return cls(FpMatrix(np.concatenate([top, bot], axis=0), p), (lam, mu))

    @classmethod
    def degenerate_family(cls, b: int, p: int) -> "AlternatingForm":
        """The rank-2b form with all four blocks equal to J_b.

        Same as the family form with every lambda_j = mu_j = -1.
        """
        return cls.family(b, p, [-1] * b, [-1] * b)

    @classmethod
    def standard_symplectic(cls, n: int, p: int) -> "AlternatingForm":
        """omega((x, y), (x', y')) = x.y' - x'.y on F_p^{2n}."""
        _check_prime(p)
        m = np.zeros((2 * n, 2 * n), dtype=np.int64)
        m[:n, n:] = np.eye(n, dtype=np.int64)
        m[n:, :n] = (-np.eye(n, dtype=np.int64)) % p
        return cls(FpMatrix(m, p))

    @classmethod
    def j_form(cls, b: int, p: int) -> "AlternatingForm":
        """The 2b x 2b form J_b itself (blocks [[0, -1], [1, 0]])."""
        _check_prime(p)
        return cls(FpMatrix(_j_block(b, p), p))

    def value(self, u: Sequence[int], v: Sequence[int]) -> int:
        """omega(u, v) as a reduced residue."""
        p = self.p
        uu = np.asarray(u, dtype=np.int64) % p
        vv = np.asarray(v, dtype=np.int64) % p
        return int((uu @ self.omega.array()) % p @ vv) % p

    def det(self) -> int:
        return self.omega.det()

    def is_symplectic(self) -> bool:
        return self.det() != 0

    def kernel_dim(self) -> int:
        return self.dim - self.omega.rank()
