"""Evaluate generator assignments into finite Heisenberg groups and verify
every defining relator of the braid presentation.

Verification is concrete: a relator passes iff the left-to-right product of
its letter images is the identity element of the target group.  No symbolic
rewriting happens anywhere, so a pass is a complete proof that the assignment
extends to a group homomorphism, and each failure names the printed relation
that broke.

All relators go through one evaluator in Python integers.  Each assignment
tabulates the sparse image (v, t) and C v of every signed letter once, when
it is built; the evaluator multiplies each relator from the left, one letter
at a time, reading letter y of its pattern as table row s[y] of its
substitution s, so no word is built: (acc_v, acc_t) -> (acc_v + v,
acc_t + t + acc_v . C v), with acc_v a sparse dict.  That is the group law
applied to concrete elements, so the result is exact; only the relators whose
product is not the identity are kept.  When some are, one more pass of the
same pattern and substitution walk reads their sources, and still builds no
word.  ``verify_assignment`` builds the presentation itself, at the
assignment's genus; ``evaluate_word`` runs one plain word through the same
loop as its own pattern, substituting only its own letters.

An assignment stores its images as a tuple indexed by letter: ``images[i]``
is the image of the generator with letter i + 1, in the order ``braid``
fixes, and ``table[x]`` is the evaluator's row of the signed letter x.

Every lifting is ``lift`` of an alternating form omega on F_p^{4b}: the
target is the Heisenberg group of omega on its pivot coordinates, which span
a complement of rad omega; letter i + 1 goes to e_i projected along rad
omega, and A12 to the central k = -omega(rho_11, tau_21).  The relation
[rho_11, tau_21] = A12^-1 forces that k, and on a form of Heisenberg type it
is the classifier's multiple of the diagonal class, so nothing is searched.
``standard_assignment(family, b, p, lambdas, mus)`` builds either family's
lifting and is the one place its inputs are refused.  The non-degenerate
family (p >= 5) is lift of Omega_b(lambda, mu), of radical 0;
``tau2_to_r2_variant`` takes that assignment and sends each tau_2j to the
image of rho_2j instead, a negative control that fails [rho_1j, tau_2j] =
A12^-1 with value z.  The degenerate family (p | b+1) is lift of
Omega_b(-1, ..., -1), whose pivots are the strand-1 coordinates: both
strands share the images (r_j, t_j) in Heis(F_p^{2b}, J_b), at p = 2 the
group H_{2b+1}(F_2) with its coordinates interleaved.

Subgroup indices come from a fast structural method; ``verify_assignment``
with ``oracle=True`` cross-checks them against an exhaustive oracle that
marks the generated subgroup element by element in Python-int bitmaps, on
groups of up to ``ENUMERATION_BOUND`` elements, and the two must agree
wherever both run.  On the command line, ``verify`` runs it on request.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .braid import Word, build_presentation, check_letters, involution_substitute, rho, tau
from .errors import PreconditionError
from .fplinalg import AlternatingForm, FpMatrix
from .heisenberg import HeisElement, HeisGroup
from .primes import check_family, check_genus, shown


class GeneratorAssignment:
    """Images of the 4b + 1 presentation generators in a fixed target group:
    ``images[i]`` is the image of the letter i + 1, an element of the target
    whose entries are ints reduced mod p, the target's prime and the only one.
    The genus b is read off the images, b = (len(images) - 1) / 4."""

    __slots__ = ("b", "family", "target", "images", "table")

    def __init__(self, family: str, target: HeisGroup, images: tuple):
        if not isinstance(images, tuple) or len(images) % 4 != 1 or len(images) < 9:
            raise PreconditionError("need a tuple of 4b + 1 generator images for some genus b >= 2")
        b = len(images) // 4
        for g in images:
            ok = isinstance(g, HeisElement) and type(g.v) is tuple and len(g.v) == target.dim
            if not ok or not all(type(a) is int and 0 <= a < target.p for a in (*g.v, g.t)):
                raise PreconditionError(f"image {shown(g)} is not an element of {shown(target)} reduced mod {target.p}")
        self.b, self.family, self.target, self.images = b, family, target, images
        vs = [{k: a for k, a in enumerate(g.v) if a} for g in images]
        # C v of every image from one sparse product: the rows of V C^T
        products = (FpMatrix.sparse(vs, target.dim, target.p) @ target.cocycle.transpose()).to_lists()
        table = self.table = [None] * (8 * b + 3)  # indexed by signed letter
        for x, (g, row, cv) in enumerate(zip(images, vs, products), start=1):
            v, cvs = list(row.items()), [(k, a) for k, a in enumerate(cv) if a]
            table[x] = (v, g.t, cvs)
            # x^-1 is (-v, -t + v . C v), and C(-v) = -C v; -v is not reduced, so
            # acc ends exactly zero in every word whose exponent sums vanish, and
            # the evaluator's identity check is one any() for those
            table[-x] = ([(k, -a) for k, a in v], sum(a * cv[k] for k, a in v) - g.t, [(k, -a) for k, a in cvs])


def _nonidentity_products(assignment: GeneratorAssignment, walk: Iterable) -> tuple:
    """{index: value} of each (pattern, substitution, source) of ``walk`` whose
    product of letter images is not the identity, and the number walked.

    The assignment's table holds, per signed letter, the nonzero (k, a)
    entries of its image v, its central part t and the nonzero entries of
    C v.  Each running product is multiplied on the right by the next letter:

        acc_t += t + acc_v . (C v),   acc_v += v,

    in Python integers, reduced mod p at the end of the relator.
    """
    group, table = assignment.target, assignment.table
    p = group.p
    found, i = {}, -1
    for i, (pattern, sub, _) in enumerate(walk):
        acc = {}  # acc_v by coordinate, absent ones zero
        get = acc.get
        t = 0
        for y in pattern:
            v, s, cv = table[sub[y]]
            t += s
            for k, a in cv:
                t += get(k, 0) * a
            for k, a in v:
                acc[k] = get(k, 0) + a
        t %= p
        if t or any(acc.values()) and any(a % p for a in acc.values()):
            value = [0] * group.dim
            for k, a in acc.items():
                value[k] = a % p
            found[i] = HeisElement(tuple(value), t)
    return found, i + 1


def evaluate_word(assignment: GeneratorAssignment, word: Word):
    """Left-to-right product of letter images; empty word gives the identity.
    One word through the same evaluator that ``verify_assignment`` runs."""
    check_letters(word, assignment.b)
    walk = [(word, {x: x for x in word}, None)]  # the word is its own pattern
    found, _ = _nonidentity_products(assignment, walk)
    return found.get(0, assignment.target.identity)


class VerificationReport(NamedTuple):
    b: int
    p: int
    family: str
    target_order: int
    total_relators: int  # the relators the evaluator walked
    failures: tuple  # (relator index, source label, evaluated element)
    a12_order: int
    m1: int
    m2: int
    is_surjective: bool
    oracle: tuple  # (index label, enumerated subgroup order, agrees), empty without the oracle

    @property
    def passed(self) -> int:
        return self.total_relators - len(self.failures)

    @property
    def ok(self) -> bool:
        """Every relator dies, A12 has order p, the image is the whole target
        and the oracle, where it ran, agrees: the lift is proved."""
        oracle_agrees = all(agrees for _, _, agrees in self.oracle)
        return not self.failures and self.a12_order == self.p and self.is_surjective and oracle_agrees

    def to_json_dict(self) -> dict:
        out = {
            "b": self.b,
            "p": self.p,
            "family": self.family,
            "relators": self.total_relators,
            "passed": self.passed,
            "a12_order": self.a12_order,
            "m1": self.m1,
            "m2": self.m2,
            "surjective": self.is_surjective,
        }
        if self.failures:
            out["failures"] = [{"index": i, "source": src, "value": repr(elt)} for i, src, elt in self.failures]
        if self.oracle:
            out["bfs_oracle"] = [
                {"index": label, "subgroup_order": size, "agrees": agrees} for label, size, agrees in self.oracle
            ]
        return out

    def text(self) -> str:
        lines = [
            f"family {self.family}, b = {self.b}, p = {self.p}, target order {self.target_order}",
            f"relators passed: {self.passed}/{self.total_relators}",
            f"A12 image order: {self.a12_order}",
            f"kernel-set image indices: m1 = {self.m1}, m2 = {self.m2}",
            f"surjective: {self.is_surjective}",
        ]
        for label, size, agrees in self.oracle:
            verdict = "agrees with" if agrees else "CONTRADICTS"
            lines.append(f"BFS oracle [{label}]: subgroup order {size}, {verdict} fast index")
        for idx, src, value in self.failures:
            lines.append(f"  FAILED relator {idx} [{src}] evaluates to {value!r}")
        return "\n".join(lines)


def verify_assignment(assignment: GeneratorAssignment, *, oracle: bool = False) -> VerificationReport:
    """The whole report on every relator of the presentation at the
    assignment's genus: failures recorded, never raised, and the indices m1,
    m2, each cross-checked by the exhaustive oracle when ``oracle`` is true.
    Each distinct set of images is measured once by the structural method
    and once by the oracle."""
    target = assignment.target
    pres = build_presentation(assignment.b)
    found, walked = _nonidentity_products(assignment, pres.relators.walk())
    # only a failing run reads sources, off the walk the evaluator ran: no word is built
    walk = pres.relators.walk(sources=True) if found else ()
    failures = [(i, source, found[i]) for i, (_, _, source) in enumerate(walk) if i in found]
    # strand 2 and A12 are the letters 2b + 1..4b + 1, strand 1 the first 2b
    kernel_images = [assignment.images[2 * pres.b :], assignment.images[: 2 * pres.b] + assignment.images[-1:]]
    keys = [frozenset(images) for images in kernel_images]
    distinct = dict(zip(keys, kernel_images))
    fast = {key: subgroup_order_fast(target, images) for key, images in distinct.items()}
    m1, m2 = (target.order // fast[key] for key in keys)
    checks = ()
    if oracle:
        sizes = {key: bfs_subgroup_order(target, images) for key, images in distinct.items()}
        checks = tuple((label, sizes[key], sizes[key] == fast[key]) for label, key in zip(("m1", "m2"), keys))
    return VerificationReport(
        b=assignment.b,
        p=target.p,
        family=assignment.family,
        target_order=target.order,
        total_relators=walked,
        failures=tuple(failures),
        a12_order=target.order_of(assignment.images[-1]),  # A12 is the last letter
        m1=m1,
        m2=m2,
        is_surjective=subgroup_order_fast(target, assignment.images) == target.order,
        oracle=checks,
    )


# ---------------------------------------------------------------------------
# standard assignments
# ---------------------------------------------------------------------------


IMAGE_ENTRY_BOUND = 10**7  # the most entries a standard lifting's images may hold


def _validated_params(p: int, lambdas: tuple, mus: tuple) -> None:
    """Refuse (lambda, mu) outside the family, given b integers a side."""
    lam, mu = [int(x) % p for x in lambdas], [int(x) % p for x in mus]
    if 0 in lam + mu:
        raise PreconditionError("all lambda_j and mu_j must be nonzero mod p")
    if sum(lam) % p != 1:
        raise PreconditionError(f"sum of lambdas is {sum(lam) % p}, must be 1 mod {p}")
    if sum(mu) % p != 1:
        raise PreconditionError(f"sum of mus is {sum(mu) % p}, must be 1 mod {p}")
    for j, (lj, mj) in enumerate(zip(lam, mu), start=1):
        if (lj * mj) % p == 1:
            raise PreconditionError(f"lambda_{j} * mu_{j} = 1 mod {p}; the form would be degenerate")


def lift(form: AlternatingForm, family: str) -> GeneratorAssignment:
    """The lifting read off ``form``, as the module docstring says: the image
    of letter i + 1 is column i of the form's reduced rows.  Only a dimension
    other than 4b, b >= 2, is refused here; ``verify_assignment`` proves or
    refutes every relator."""
    p, dim = form.p, form.dim
    if dim % 4 or dim < 8:  # A12's central part is read off the coordinates of rho_11 and tau_21
        raise PreconditionError(f"form dimension {dim} is not 4b for some b >= 2")
    reduced, pivots = form.rref()
    onto = FpMatrix.sparse([{c: 1} for c in pivots], dim, p)
    group = HeisGroup(AlternatingForm(onto @ form @ onto.transpose()))
    (r,), (t,) = rho(dim // 4, 1, 1), tau(dim // 4, 2, 1)
    k = -form.apply([int(c == t - 1) for c in range(dim)])[r - 1]
    columns = list(zip(*reduced.to_lists()[: len(pivots)])) or [()] * dim  # rank 0: dim empty columns
    return GeneratorAssignment(family, group, tuple(HeisElement(v, 0) for v in columns) + (group.central(k),))


def standard_assignment(
    family: str, b: int, p: int, lambdas: Optional[Sequence[int]] = None, mus: Optional[Sequence[int]] = None
) -> GeneratorAssignment:
    """The lifting of ``family`` at (b, p): lift of Omega_b(lambda, mu), or of
    Omega_b(-1, ..., -1) in the degenerate family.  Refused, in this order: a
    genus below 2; before any form is built, 4b + 1 dense images of 2b
    coordinates (degenerate) or 4b holding more than ``IMAGE_ENTRY_BOUND``
    entries; (b, p) outside the family; lambda and mu given to the degenerate
    family or missing from the other; their counts and types; the family's
    rules on them.

    The degenerate family needs p | b+1: both surface relations evaluate to
    z^{+-b}, which equals z^{-+1} precisely then.  The non-degenerate one
    needs p >= 5: at p = 3, lambda_j mu_j != 1 forces mu_j = -lambda_j, which
    contradicts both sums being 1.
    """
    b = check_genus(b)
    entries = (4 * b + 1) * b * (2 if family == "degenerate" else 4)
    if entries > IMAGE_ENTRY_BOUND:
        raise PreconditionError(
            f"the lifting's images would hold {shown(entries)} entries, more than {IMAGE_ENTRY_BOUND}"
        )
    b, p = check_family(family, b, p)
    if family == "degenerate":
        if lambdas is not None or mus is not None:
            raise PreconditionError("the degenerate family takes no lambdas or mus")
        return lift(AlternatingForm.family(b, p, (-1,) * b, (-1,) * b), family)
    if lambdas is None or mus is None:
        raise PreconditionError("the non-degenerate family needs lambdas and mus")
    lambdas, mus = tuple(lambdas), tuple(mus)
    form = AlternatingForm.family(b, p, lambdas, mus)  # b integers a side, or refused
    _validated_params(p, lambdas, mus)
    return lift(form, family)


def tau2_to_r2_variant(assignment: GeneratorAssignment) -> GeneratorAssignment:
    """Negative control: ``assignment``, a standard non-degenerate one, with
    every tau_2j sent to r_2j (the image of rho_2j).

    Then [rho_1j, tau_2j] evaluates to [r_1j, r_2j] = 1 while the relation
    demands A12^-1 = z^-1, so the relator fails with value z.
    """
    b, images = assignment.b, list(assignment.images)
    for j in range(1, b + 1):
        (r,), (t,) = rho(b, 2, j), tau(b, 2, j)
        images[t - 1] = images[r - 1]
    return GeneratorAssignment("nondegenerate-tau2-as-r2", assignment.target, tuple(images))


def precompose_involution(assignment: GeneratorAssignment) -> GeneratorAssignment:
    """Precompose with the handle-reflection substitution.

    The substitution extends to an automorphism of the braid group, so if the
    original assignment kills every relator the precomposed one must too.
    """
    images, inv = assignment.images, assignment.target.inv
    # involution_substitute checks the letters, so each image is read straight off the tuple
    letters = involution_substitute(range(1, len(images) + 1), assignment.b)
    images = tuple(images[x - 1] if x > 0 else inv(images[-x - 1]) for x in letters)
    return GeneratorAssignment(assignment.family + "+involution", assignment.target, images)


# ---------------------------------------------------------------------------
# subgroup orders
# ---------------------------------------------------------------------------


def subgroup_order_fast(group: HeisGroup, elements: Sequence) -> int:
    """Order of the subgroup generated by ``elements``, without enumeration.

    Write each generator as (u_i, s_i).  The projection to the vector part is
    a homomorphism onto the span of the u_i (dimension d), with kernel the
    intersection with the central F_p, so the order is p^d or p^{d+1}
    according to whether that intersection is nontrivial.  It is nontrivial
    iff one of the following holds:

    * some pair fails to commute (the commutator is a nonzero central value);
    * p = 2 and some generator squares to a nontrivial central element, the
      cocycle value c(v, v); for odd p, g^p = (p v, p t + C(p, 2) c(v, v)) is
      the identity, so no power is taken;
    * otherwise the generated subgroup is abelian with every generator of
      order dividing p, and the ordered-product map from exponent vectors is
      a homomorphism; the center is hit iff the product over some null
      combination of the projections is a nonzero central element, which is
      linear on the null space, so checking a basis of it suffices.
    """
    p, dim = group.p, group.dim
    m = len(elements)
    proj = FpMatrix.sparse([{k: a for k, a in enumerate(g.v) if a} for g in elements], dim, p)
    proj_t = proj.transpose()
    d = proj.rank()

    # the sparse pairing is compared with the zero matrix, never made dense
    pairing = proj @ (group.form @ proj_t)
    center_hit = pairing != FpMatrix.sparse([{}] * m, m, p)
    if p == 2 and not center_hit:
        center_hit = any(group.power(g, 2) != group.identity for g in elements)
    if not center_hit:
        for null in proj_t.kernel_basis():
            acc = group.identity
            for coeff, g in zip(null, elements):
                if coeff:
                    acc = group.mul(acc, group.power(g, coeff))
            if acc != group.identity:
                center_hit = True
                break
    return p ** (d + (1 if center_hit else 0))


def _tiled(pattern: int, period: int, size: int) -> int:
    """``pattern``, a mask below 2^period, repeated every ``period`` bits up
    to ``size`` bits."""
    while period < size:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << size) - 1)


ENUMERATION_BOUND = 10**7  # the largest group the oracle enumerates: below 2^62, so each shift fits a machine word


def bfs_subgroup_order(group: HeisGroup, elements: Sequence) -> int:
    """Exhaustive oracle: the generated subgroup, marked element by element.

    Independent of ``subgroup_order_fast`` by construction (group products
    and membership only, no linear algebra); kept for cross-validation and
    refused (not approximated) with :class:`PreconditionError` when the
    group has more than ``ENUMERATION_BOUND`` elements, read at call time,
    or when a ``MemoryError`` stops the bitmaps being built.  Returns the
    number of elements enumerated; the name stays that of the command
    line's oracle flag.

    Only the coordinates S that some generator touches are enumerated (digit
    j is the j-th): products are 0 off S, and v . C w reads C on S x S only.
    Y is p slabs of Python ints, one per central part t: bit c = sum_j v_j p^j
    of slab t marks (v, t).  Right-multiplying Y by g = (w, s) is the group
    law on every element at once, (v, t) -> (v + w, t + s + v . u), u = C w:

    * for each digit j with u_j != 0, an element whose digit j is d moves
      from slab t to slab t + u_j d: for each bit i of d, the codes whose
      digit j has bit i set move up by u_j 2^i slabs, one mask per bit, so a
      digit costs ceil(log2 p) masked moves per slab, however many digit
      values are present;
    * for each digit j with w_j = r != 0, digit j rotates by r: the codes
      whose digit is below p - r move up by r p^j, the others down by
      (p - r) p^j, with one mask and two shifts;
    * the slabs rotate by s.

    Starting from Y = {1}, Y is closed under each generator g by doubling,
    Y <- Y u Y g^k for k = 1, 2, 4, ... until nothing new appears (then
    Y g is in Y), and the generators are cycled until none adds an element.
    Then Y contains 1 and is closed under right multiplication by every
    generator, so it is exactly the generated subgroup (the group is finite,
    so no inverses are needed), and its order is the number of marked bits.
    Memory is a few copies of the slabs, one bit per element of F_p^S x F_p,
    and p^|S| / 8 bytes of masks per digit: 3.5 MiB traced at b = 4, p = 5.
    """
    if group.order > ENUMERATION_BOUND:
        raise PreconditionError(f"group order {shown(group.order)} exceeds the enumeration bound {ENUMERATION_BOUND}")
    p = group.p
    gens = [group.element(g.v, g.t) for g in elements]
    touched = [c for c in range(group.dim) if any(w[c] for w, _ in gens)]
    radix = [p**j for j in range(len(touched) + 1)]
    size = radix[-1]

    @cache
    def below(j, c):
        """The codes whose digit j is below c."""
        return _tiled((1 << c * radix[j]) - 1, radix[j + 1], size)

    @cache
    def bit_set(j, i):
        """The codes whose digit j has bit i set."""
        run = radix[j] << i  # 2^i digit values
        return _tiled(_tiled(((1 << run) - 1) << run, 2 * run, radix[j + 1]), radix[j + 1], size)

    def times(slabs, g):
        """The set ``slabs`` right-multiplied by g."""
        w, s = g
        u = group.cocycle.apply(w)
        for j, c in enumerate(touched):
            if uj := u[c]:
                for i in range((p - 1).bit_length()):
                    moved = [x & bit_set(j, i) for x in slabs]
                    k = -(uj << i) % p  # slab t receives from slab t - uj 2^i
                    slabs = [x ^ y | z for x, y, z in zip(slabs, moved, moved[k:] + moved[:k])]
        for j, c in enumerate(touched):
            if r := w[c]:
                low, up, down = below(j, p - r), r * radix[j], (p - r) * radix[j]
                rotated = []
                for x in slabs:
                    stay = x & low
                    rotated.append(stay << up | (x ^ stay) >> down)
                slabs = rotated
        return slabs[-s:] + slabs[:-s]

    try:
        slabs = [1] + [0] * (p - 1)  # {1}
        i = idle = 0  # idle: generators in a row that added no element
        while idle < len(gens):
            g = gens[i]
            i, idle = (i + 1) % len(gens), idle + 1
            while (grown := [a | b for a, b in zip(slabs, times(slabs, g))]) != slabs:
                slabs, idle = grown, 1  # Y g is in Y once this loop ends
                g = group.power(g, 2)  # g^2k
    except MemoryError:
        raise PreconditionError(f"not enough memory to enumerate a group of order {group.order}") from None
    return sum(x.bit_count() for x in slabs)
