"""Finite Heisenberg groups Heis(F_p^dim, omega), one model for every prime.

Every element is a :class:`HeisElement` (v, t): a vector v in V = F_p^dim and
a central part t in F_p.  For an alternating (possibly degenerate) form omega
on V with matrix Omega, the cocycle C is the strictly upper-triangular part
of Omega, and

    (v1, t1)(v2, t2) = (v1 + v2, t1 + t2 + v1 . C . v2).

Since C - C^T = Omega, the commutator of (v1, t1) and (v2, t2) is the central
element (0, omega(v1, v2)).  No 1/2 is needed, so p = 2 is not a special
case.  On the standard symplectic form C = [[0, I], [0, 0]], so the group is
H_{2n+1}(F_p), the upper unitriangular (n+2) x (n+2) matrices with top row x,
right column y and corner z, as (x + y, z) bit for bit (the test suite proves
this against literal matrix multiplication).  For odd p,
(v, t) -> (v, t + v . C . v / 2) is an isomorphism onto this group from the
one twisted by omega / 2, and it fixes basis and central elements.

C and the commutator pairing Omega are :class:`FpMatrix` values, and every
product, inverse and power is computed in Python integers, so group
arithmetic is exact for any prime.  The structure suite
:func:`verify_extra_special` enumerates over :meth:`HeisGroup.mul` in Python
integers too, so this module imports no numpy; a group of more than
``STRUCTURE_BOUND`` elements is refused, not approximated.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import NamedTuple, Sequence

from .errors import InconsistencyError, PreconditionError
from .fplinalg import AlternatingForm, residues
from .primes import integer, shown


class HeisElement(NamedTuple):
    """Group element (v, t), components reduced mod p."""

    v: tuple[int, ...]
    t: int


class HeisGroup:
    """The Heisenberg group of an alternating form, any prime p.

    Degenerate forms are allowed: the center is then ker(omega) x F_p rather
    than the central F_p alone.
    """

    def __init__(self, form: AlternatingForm):
        self.form = form
        self.p = form.p
        self.dim = form.dim
        self.cocycle = form.strict_upper()
        self.order = form.p ** (form.dim + 1)

    def __repr__(self):
        return f"HeisGroup(dim={self.dim}, p={self.p}, order={shown(self.order)})"

    def _twist(self, v1: Sequence[int], v2: Sequence[int]) -> int:
        """c(v1, v2) = v1 . (C v2)."""
        return sum(map(operator.mul, v1, self.cocycle.apply(v2))) % self.p

    def _residue(self, t) -> int:
        return integer(t, "central part") % self.p

    # elements

    @property
    def identity(self) -> HeisElement:
        return HeisElement((0,) * self.dim, 0)

    def central(self, t: int) -> HeisElement:
        return HeisElement((0,) * self.dim, self._residue(t))

    def element(self, v: Sequence[int], t: int) -> HeisElement:
        vv = tuple(residues(v, self.p, "vector entry"))
        if len(vv) != self.dim:
            raise PreconditionError(f"vector length {len(vv)} does not match dim {self.dim}")
        return HeisElement(vv, self._residue(t))

    def mul(self, g: HeisElement, h: HeisElement) -> HeisElement:
        p = self.p
        v = tuple((a + b) % p for a, b in zip(g.v, h.v))
        return HeisElement(v, (g.t + h.t + self._twist(g.v, h.v)) % p)

    def inv(self, g: HeisElement) -> HeisElement:
        return self.power(g, -1)  # (-v, -t + c(v, v))

    def power(self, g: HeisElement, k: int) -> HeisElement:
        # g^k = (k v, k t + C(k,2) c(v,v)), exact for every integer k
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


# ---------------------------------------------------------------------------
# structure verification
# ---------------------------------------------------------------------------


STRUCTURE_BOUND = 2 * 10**5  # the largest group the structure suite enumerates


class GroupStructureReport(NamedTuple):
    order: int
    exponent: int
    center_order: int
    commutator_order: int
    involution_count: int  # elements of order exactly 2
    is_extra_special: bool


def verify_extra_special(group: HeisGroup) -> GroupStructureReport:
    """Check order, exponent, center and commutator subgroup by enumeration.

    One pass over V = F_p^dim: each element's order by repeated
    multiplication, and w = omega(., v) once per vector v.  The center is p
    times the number of zero w (checked against the rank of omega), and the
    commutator subgroup's order is the size of {0} and the entries of every
    w, which are all the commutators' central parts.  A group of more than
    ``STRUCTURE_BOUND`` elements is refused with
    :class:`PreconditionError` before anything is enumerated.

    A degenerate form is legal input; the report then shows the
    enlarged center ker(omega) x F_p and ``is_extra_special`` False.
    """
    if group.order > STRUCTURE_BOUND:
        raise PreconditionError(
            f"group order {shown(group.order)} exceeds the structure suite's bound {STRUCTURE_BOUND}"
        )
    p, omega = group.p, group.form
    identity, mul = group.identity, group.mul
    exponent, involutions, kernel, values = 1, 0, 0, {0}
    for v in itertools.product(range(p), repeat=group.dim):
        # (v, t) is central iff omega(., v) vanishes, whatever t; the
        # entries omega(e_i, v) are, by bilinearity, every commutator value
        w = omega.apply(v)
        kernel += not any(w)
        values.update(w)
        # each element's order by repeated multiplication, independent of
        # the closed forms in power and order_of
        for t in range(p):
            g = x = HeisElement(v, t)
            k = 1
            while x != identity:
                x = mul(x, g)
                k += 1
            exponent = math.lcm(exponent, k)
            involutions += k == 2
    center_order = p * kernel
    # omega != 0 exactly when the center is smaller than the group, so this
    # check covers the commutator subgroup as well
    if center_order != p ** (group.dim - omega.rank() + 1):
        raise InconsistencyError("exhaustive center disagrees with kernel computation")
    if values not in ({0}, set(range(p))):
        raise InconsistencyError("commutator values of a bilinear pairing must be {0} or all of F_p")
    commutator_order = len(values)

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
    )
