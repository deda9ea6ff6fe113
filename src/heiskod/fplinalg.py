"""Exact sparse linear algebra over a prime field F_p.

Everything downstream (cup products, Heisenberg groups, rank counts) runs on
the two value types defined here: :class:`FpMatrix`, an immutable matrix of
residues, and :class:`AlternatingForm`, the matrix of an alternating form,
checked skew with a zero diagonal, such as the block family

    Omega_b = [[L_b, J_b], [J_b, M_b]],

where L_b, M_b are block-diagonal with 2x2 blocks [[0, l_j], [-l_j, 0]]
(resp. mu_j) and J_b has blocks [[0, -1], [1, 0]].  Its determinant is
prod_j (1 - lambda_j * mu_j)^2, so the form is symplectic exactly when no
lambda_j * mu_j equals 1.  Omega_b(-1, ..., -1) = [[J_b, J_b], [J_b, J_b]] is
the degenerate family's form: its radical is {(x, -x)}, and it restricts to
J_b on the first 2b coordinates.

A matrix is a tuple of sparse rows, ``{column: nonzero residue}`` maps of
Python integers, so every result is exact.  Row reduction, rank, determinant
and kernel all come from one sparse Gauss-Jordan elimination; all operations
return new values.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError
from .primes import check_genus, check_prime, integer, shown


def residues(entries: Iterable, p: int, what: str = "entry") -> list[int]:
    """Integer entries reduced mod p, as Python ints, each read through
    :func:`~heiskod.primes.integer`: no float is truncated and JSON ``true``
    is not read as 1; an entry's size is not limited."""
    return [integer(x, what) % p for x in entries]


Row = dict  # {column: nonzero residue}


def _sub_multiple(row: Row, f: int, other: Row, p: int) -> None:
    """row -= f * other, in place, dropping entries that become zero."""
    for k, v in other.items():
        x = (row.get(k, 0) - f * v) % p
        if x:
            row[k] = x
        else:
            del row[k]


class FpMatrix:
    """Immutable sparse matrix over F_p.

    Rows are ``{column: residue}`` maps holding only nonzero residues; they
    are private, and ``to_lists()`` is the one way to read the entries.
    Rank, determinant, kernel and products all return fresh values and
    never change an instance.  Entries are Python ints, so every operation
    is exact for any prime p.
    """

    __slots__ = ("p", "rows", "cols", "_r")

    def __init__(self, entries, p: int):
        """Dense entries: a sequence of equally long rows of integers."""
        check_prime(p)
        try:
            dense = [list(row) for row in entries]
        except TypeError:
            raise PreconditionError("matrix entries must be two-dimensional") from None
        if not dense:
            raise PreconditionError("a dense matrix needs at least one row; use FpMatrix.sparse")
        cols = len(dense[0])
        if any(len(row) != cols for row in dense):
            raise PreconditionError("matrix rows must all have the same length")
        rows = [residues(row, p, "matrix entry") for row in dense]
        self._adopt([{j: x for j, x in enumerate(row) if x} for row in rows], cols, p)

    @classmethod
    def sparse(cls, rows: Iterable[Mapping[int, int]], cols: int, p: int) -> "FpMatrix":
        """A matrix from ``{column: value}`` rows; absent entries are zero.
        The only constructor that can make a matrix with no rows."""
        check_prime(p)
        cols = integer(cols, "column count")
        if cols < 0:
            raise PreconditionError(f"column count {shown(cols)} is negative")
        rows = [{integer(j, "column index"): x for j, x in r.items()} for r in rows]
        for r in rows:
            for j in r:
                if not 0 <= j < cols:
                    raise PreconditionError(f"column {shown(j)} out of range 0..{shown(cols - 1)}")
        reduced = [{j: x for j, x in zip(r, residues(r.values(), p, "matrix entry")) if x} for r in rows]
        return cls._reduced(reduced, cols, p)

    @classmethod
    def _reduced(cls, rows: list[Row], cols: int, p: int) -> "FpMatrix":
        """Take over reduced sparse rows that nothing else holds, without
        copying them; only a subclass's ``_adopt`` checks them."""
        m = object.__new__(cls)
        m._adopt(rows, cols, p)
        return m

    def _adopt(self, rows: list[Row], cols: int, p: int) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_r", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    # -- accessors ---------------------------------------------------------

    def to_lists(self) -> list[list[int]]:
        """Fresh dense lists of the reduced entries."""
        out = []
        for r in self._r:
            row = [0] * self.cols
            for j, x in r.items():
                row[j] = x
            out.append(row)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and (self.p, self.rows, self.cols) == (other.p, other.rows, other.cols)
            and self._r == other._r
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols} mod {self.p})"

    # -- products ----------------------------------------------------------

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p:
            raise PreconditionError(f"mixed moduli {self.p} and {other.p}")
        if self.cols != other.rows:
            raise PreconditionError("inner dimensions disagree")
        p, right = self.p, other._r
        out = []
        for r in self._r:
            acc: Row = {}
            for k, a in r.items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: x % p for j, x in acc.items() if x % p})
        return FpMatrix._reduced(out, other.cols, p)

    def transpose(self) -> "FpMatrix":
        rows: list[Row] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._r):
            for j, x in r.items():
                rows[j][i] = x
        return FpMatrix._reduced(rows, self.rows, self.p)

    def strict_upper(self) -> "FpMatrix":
        """The entries above the diagonal; the others become zero."""
        upper = [{j: x for j, x in r.items() if j > i} for i, r in enumerate(self._r)]
        return FpMatrix._reduced(upper, self.cols, self.p)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product, returned as a reduced tuple."""
        vec = residues(v, self.p, "vector entry")
        if len(vec) != self.cols:
            raise PreconditionError("vector length disagrees with column count")
        out = []
        for r in self._r:
            acc = 0
            for j, x in r.items():
                acc += x * vec[j]
            out.append(acc % self.p)
        return tuple(out)

    # -- elimination -------------------------------------------------------

    def _eliminate(self) -> tuple[dict[int, Row], list[int], int]:
        """Forward sparse elimination, rows in order.

        Each row is reduced by the stored pivot rows in ascending pivot order
        (a stored row's leftmost entry is its pivot, so a subtraction only
        fills columns to the right of the one it clears), then scaled to a
        leading 1 and stored under that column.  Returns the stored rows by
        pivot column, each input row's pivot column (-1 for a row that
        reduced to zero) and the product of the scalings.
        """
        p = self.p
        stored: dict[int, Row] = {}
        pivot_of = []
        scale = 1
        for src in self._r:
            row = dict(src)
            while hits := [c for c in row if c in stored]:
                c = min(hits)
                _sub_multiple(row, row[c], stored[c], p)
            if not row:
                pivot_of.append(-1)
                continue
            c = min(row)
            lead = row[c]
            scale = scale * lead % p
            if lead != 1:
                inv = pow(lead, -1, p)
                row = {k: x * inv % p for k, x in row.items()}
            stored[c] = row
            pivot_of.append(c)
        return stored, pivot_of, scale

    def rref(self) -> tuple["FpMatrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        p = self.p
        stored, _, _ = self._eliminate()
        pivots = sorted(stored)
        # back-substitution from the right: each row clears its entries in
        # later pivot columns with rows that are already fully reduced
        for c in reversed(pivots):
            row = stored[c]
            for k in [k for k in row if k != c and k in stored]:
                _sub_multiple(row, row[k], stored[k], p)
        rows = [stored[c] for c in pivots] + [{} for _ in range(self.rows - len(pivots))]
        return FpMatrix._reduced(rows, self.cols, p), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> int:
        if self.rows != self.cols:
            raise PreconditionError(f"determinant of non-square {self.rows}x{self.cols} matrix")
        _, pivot_of, scale = self._eliminate()
        if -1 in pivot_of:
            return 0
        # the reduced rows, sorted by pivot, are unit upper triangular; the
        # sort is the permutation row i -> pivot_of[i], of sign -1 to the
        # number of its inversions
        inversions = sum(a > c for i, a in enumerate(pivot_of) for c in pivot_of[i + 1 :])
        return scale * (-1) ** inversions % self.p

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of the right null-space; empty iff full column rank.

        One vector per free column, in ascending free-column order: the free
        coordinate is set to 1 and pivot coordinates to the negated reduced
        entries, so the output is canonical given the pivot rule.
        """
        r, pivots = self.rref()
        piv = set(pivots)
        basis = {f: [0] * self.cols for f in range(self.cols) if f not in piv}
        for f, v in basis.items():
            v[f] = 1
        for c, row in zip(pivots, r._r):
            for f, x in row.items():
                if f != c:
                    basis[f][c] = -x % self.p
        return [tuple(v) for v in basis.values()]


# ---------------------------------------------------------------------------
# alternating forms
# ---------------------------------------------------------------------------


DIMENSION_BOUND = 10**5  # the most coordinates a form built from a bare size may have


class AlternatingForm(FpMatrix):
    """An alternating form on F_p^dim: a square, skew-symmetric matrix with a
    zero diagonal.  Every constructor checks that; a product, ``rref``,
    ``transpose`` or ``strict_upper`` of a form is a plain :class:`FpMatrix`."""

    __slots__ = ()

    def __init__(self, matrix: FpMatrix):
        # rows are never changed once adopted, so the form shares them
        self._adopt(list(matrix._r), matrix.cols, matrix.p)

    def _adopt(self, rows: list[Row], cols: int, p: int) -> None:
        if len(rows) != cols:
            raise PreconditionError("alternating form must be square")
        if any(rows[j].get(i, 0) != -x % p for i, row in enumerate(rows) for j, x in row.items()):
            raise PreconditionError("matrix is not skew-symmetric mod p")
        if any(i in row for i, row in enumerate(rows)):
            # for odd p this is implied by skewness; for p = 2 it is the
            # extra alternating condition
            raise PreconditionError("alternating form must vanish on the diagonal")
        super()._adopt(rows, cols, p)

    @property
    def dim(self) -> int:
        return self.rows

    @classmethod
    def family(cls, b: int, p: int, lambdas: Sequence[int], mus: Sequence[int]) -> "AlternatingForm":
        """The 4b x 4b block form Omega_b determined by (lambda, mu)."""
        b = check_genus(b)
        check_prime(p)
        if len(lambdas) != b or len(mus) != b:
            raise PreconditionError(f"need {shown(b)} lambdas and {shown(b)} mus, got {len(lambdas)} and {len(mus)}")
        lam = residues(lambdas, p, "lambda")
        mu = residues(mus, p, "mu")
        rows: list[Row] = [{} for _ in range(4 * b)]
        for j, (lj, mj) in enumerate(zip(lam, mu)):  # handle j: rho_1j, tau_1j, rho_2j, tau_2j
            r1, t1, r2, t2 = 2 * j, 2 * j + 1, 2 * (b + j), 2 * (b + j) + 1
            for i, k, x in ((r1, t1, lj), (r2, t2, mj), (r1, t2, -1), (t1, r2, 1)):
                rows[i][k], rows[k][i] = x, -x
        return cls.sparse(rows, 4 * b, p)  # reduced, zeros dropped

    @classmethod
    def standard_symplectic(cls, n: int, p: int) -> "AlternatingForm":
        """omega((x, y), (x', y')) = x.y' - x'.y on F_p^{2n}, refused, before
        any row is built, past ``DIMENSION_BOUND`` coordinates."""
        n = integer(n, "n")
        if 2 * n > DIMENSION_BOUND:
            raise PreconditionError(f"F_p^2n at n = {shown(n)} has more than {DIMENSION_BOUND} coordinates")
        rows = [{n + i: 1} for i in range(n)] + [{i: -1} for i in range(n)]
        return cls.sparse(rows, 2 * n, p)
