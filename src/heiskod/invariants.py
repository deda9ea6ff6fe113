"""Exact numerical invariants of the constructed double Kodaira fibrations.

Everything is computed with big integers and reduced big rationals; there is
no floating point anywhere, because the whole point is exact equality with
closed forms.

Given a finite quotient group G of the two-string braid group with branching
order n = order of the image of A12 and fibre-subgroup image indices m1, m2,
the two base genera, the two fibre genera and the Chern numbers are, with
f = 1 - 1/n carried as an exact rational:

    b_i - 1   = m_i (b - 1)
    2g_i - 2  = (|G| / m_i) (2b - 2 + f)
    c_1^2     = |G| (2b - 2) (4b - 4 + 4f - f^2)
    c_2       = |G| (2b - 2) (2b - 2 + f)
    slope     = c_1^2 / c_2 = 2 + (2f - f^2) / (2b - 2 + f)
    signature = (c_1^2 - 2 c_2) / 3 = |G| (2b - 2) (2f - f^2) / 3
    degree of the map to the product of bases = |G| / (m1 m2)

``family_invariants`` specialises this to the two families, admitted by the
rules of :mod:`primes`: with dim = 4b (non-degenerate, prime p >= 5) or 2b
(degenerate, p | b+1), |G| = p^{dim+1}, n = p, m1 = m2 = p^{2b} or 1, and
the signature is (2b - 2) p^{dim-1} (p^2 - 1) / 3.  ``census`` tabulates one
family and checks its claims, read from ``CLAIM_TABLE``: per family the slope
maximum and its cells, the minimum signature and the named claim checks.

A tuple whose g1, g2, c1^2, c2 or signature is not an integer is refused as
inadmissible, not rounded: an admissible tuple gives positive integers only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import InconsistencyError, PreconditionError
from .primes import admits, bounded, check_family, check_genus, integer, is_prime, shown


class _FibrationFields(NamedTuple):
    b: int
    group_order: int
    n: int
    m1: int
    m2: int
    b1: int
    b2: int
    g1: int
    g2: int
    c1_sq: int
    c2: int
    slope: Fraction
    signature: int
    cover_degree: int


class FibrationInvariants(_FibrationFields):
    """Exact invariant record of one double Kodaira fibration.  Its repr
    follows Python's own limit on the digits of an int, as any int does."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (2 < self.slope < 3):
            raise InconsistencyError(f"slope {self.slope} outside the open interval (2, 3)")
        if self.signature % 4 != 0:
            raise InconsistencyError(f"signature {self.signature} not divisible by 4")
        if self.n % 2 == 1 and self.signature % 16 != 0:
            raise InconsistencyError(f"odd branching order but signature {self.signature} not divisible by 16")
        for label, val in (
            ("b1 - 1", self.b1 - 1),
            ("b2 - 1", self.b2 - 1),
            ("2g1 - 2", 2 * self.g1 - 2),
            ("2g2 - 2", 2 * self.g2 - 2),
            ("c1^2", self.c1_sq),
            ("c2", self.c2),
        ):
            if val <= 0:
                raise InconsistencyError(f"{label} = {val} is not positive")
        return self


def general_invariants(b: int, group_order: int, n: int, m1: int, m2: int) -> FibrationInvariants:
    """Invariants for an admissible (|G|, n, m1, m2) at base genus b: integers
    with n > 1, |G|, m1, m2 >= 1, m1 m2 dividing |G| (the cover degree) and
    g1, g2, c1^2, c2 and signature integral."""
    b = check_genus(b)
    group_order, n, m1, m2 = (integer(x, what) for x, what in zip((group_order, n, m1, m2), ("|G|", "n", "m1", "m2")))
    if n <= 1:
        raise PreconditionError(f"branching order must exceed 1, got {shown(n)}")
    if min(group_order, m1, m2) < 1 or group_order % (m1 * m2):
        got = f"|G| = {shown(group_order)}, m1 = {shown(m1)}, m2 = {shown(m2)}"
        raise PreconditionError(f"need |G|, m1, m2 >= 1 and m1 m2 | |G|, got {got}")
    f = 1 - Fraction(1, n)
    b1 = m1 * (b - 1) + 1
    b2 = m2 * (b - 1) + 1
    exact = {
        "g1": (Fraction(group_order, m1) * (2 * b - 2 + f) + 2) / 2,
        "g2": (Fraction(group_order, m2) * (2 * b - 2 + f) + 2) / 2,
        "c1^2": group_order * (2 * b - 2) * (4 * b - 4 + 4 * f - f * f),
        "c2": group_order * (2 * b - 2) * (2 * b - 2 + f),
    }
    exact["signature"] = (exact["c1^2"] - 2 * exact["c2"]) / 3
    if fractional := [what for what, x in exact.items() if x.denominator != 1]:
        what = f"(|G|, n, m1, m2) = ({', '.join(map(shown, (group_order, n, m1, m2)))})"
        raise PreconditionError(f"{what} is not admissible at b = {shown(b)} (non-integral {', '.join(fractional)})")
    g1, g2, c1_sq, c2, signature = map(int, exact.values())
    slope = Fraction(c1_sq, c2)
    if slope != 2 + (2 * f - f * f) / (2 * b - 2 + f):
        raise InconsistencyError("slope closed form disagrees with c1^2/c2")
    return FibrationInvariants(
        b=b,
        group_order=group_order,
        n=n,
        m1=m1,
        m2=m2,
        b1=b1,
        b2=b2,
        g1=g1,
        g2=g2,
        c1_sq=c1_sq,
        c2=c2,
        slope=slope,
        signature=signature,
        cover_degree=group_order // (m1 * m2),
    )


GROUP_BITS_BOUND = 2**17  # the most bits |G| may have where family_invariants computes it
CENSUS_BITS_BOUND = 2**26  # the most bits the |G| of a census's rows may have in all


def _group_bits(family: str, b: int, p: int) -> int:
    """(dim + 1) times the bit length of p, an upper bound on log2 |G|,
    refused past ``GROUP_BITS_BOUND`` before any power of p is formed."""
    dim = 4 * b if family == "nondegenerate" else 2 * b
    if (bits := (dim + 1) * p.bit_length()) > GROUP_BITS_BOUND:
        raise PreconditionError(
            f"|G| = {p}^{shown(dim + 1)} has up to {shown(bits)} bits, more than {GROUP_BITS_BOUND}"
        )
    return bits


def family_invariants(family: str, b: int, p: int) -> FibrationInvariants:
    """Invariants of the family's fibration at (b, p): the target group has
    order p^{dim+1} with dim = 4b (non-degenerate) or 2b (degenerate), A12
    has order p, and both fibre subgroups have index m = p^{2b} or 1.
    Refused by ``_group_bits`` when |G| may exceed ``GROUP_BITS_BOUND`` bits."""
    b, p = check_family(family, b, p)
    dim = _group_bits(family, b, p) // p.bit_length() - 1  # the bits are (dim + 1) bit lengths of p
    m = p ** (2 * b) if family == "nondegenerate" else 1
    inv = general_invariants(b, p ** (dim + 1), p, m, m)
    if inv.signature != (2 * b - 2) * p ** (dim - 1) * (p * p - 1) // 3:
        raise InconsistencyError("signature disagrees with its closed form")
    return inv


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


class CensusRow(NamedTuple):
    family: str
    b: int
    p: int
    invariants: FibrationInvariants


class ClaimResult(NamedTuple):
    name: str
    holds: bool
    detail: str

    def line(self) -> str:
        return f"claim [{'ok' if self.holds else 'FAILED'}] {self.name}: {self.detail}"


class _Family(NamedTuple):
    slope_max: Fraction
    peak: list  # the cells where the slope maximum is attained
    minimum: tuple[int, int, int]  # (b, p, signature) of the least signature
    slope_identity: str  # the printed name of the slope identity claim
    extra: tuple  # (name, check) of the family's own claims


# Each check takes the rows, sorted by (b, p), and the family entry, and
# returns (holds, detail), or None when the ranges do not reach the claim.


def _violations(bad: list, ok: str) -> tuple[bool, str]:
    return not bad, ok if not bad else f"violations at {bad}"


def _window(rows: list[CensusRow], fam: _Family):
    return _violations([(r.b, r.p) for r in rows if not 2 < r.invariants.slope <= fam.slope_max], "all rows in window")


def _peak(rows: list[CensusRow], fam: _Family):
    attained = {(r.b, r.p) for r in rows if r.invariants.slope == fam.slope_max}
    expected = {(r.b, r.p) for r in rows} & set(fam.peak)
    return attained == expected, f"attained at {sorted(attained)}"


def _divisible(rows: list[CensusRow], fam: _Family):
    return _violations([(r.b, r.p) for r in rows if r.invariants.signature % 16], "all rows divisible")


def _minimum(rows: list[CensusRow], fam: _Family):
    if not any((r.b, r.p) == fam.minimum[:2] for r in rows):
        return None
    low = min(rows, key=lambda r: r.invariants.signature)
    sigma = low.invariants.signature
    return (low.b, low.p, sigma) == fam.minimum, f"minimum {sigma} at ({low.b}, {low.p})"


def _slope_identity(rows: list[CensusRow], fam: _Family):
    # one formula for both families: with b = kp - 1, 2kp^3 - 3p^2 - p = (2b - 1)p^2 - p
    bad = [(r.b, r.p) for r in rows if r.invariants.slope != 2 + Fraction(r.p**2 - 1, (2 * r.b - 1) * r.p**2 - r.p)]
    return _violations(bad, "identity holds row by row")


def _fibre_genus(rows: list[CensusRow], fam: _Family):
    # 2g - 2 = p^{2b+1}(2b - 2 + 1 - 1/p) = (2bp - p - 1) p^{2b}
    bad = [(r.b, r.p) for r in rows if 2 * r.invariants.g1 - 2 != (2 * r.b * r.p - r.p - 1) * r.p ** (2 * r.b)]
    return _violations(bad, "matches")


def _slope_decay(rows: list[CensusRow], fam: _Family):
    slopes = [r.invariants.slope for r in rows if r.b == 2 and r.p >= 7]
    if len(slopes) < 2:
        return None
    return all(a > z for a, z in zip(slopes, slopes[1:])), f"slopes {[str(x) for x in slopes]}"


def _signature_growth(rows: list[CensusRow], fam: _Family):
    pairs = zip(rows, rows[1:])
    bad = [(a.b, a.p, z.p) for a, z in pairs if a.b == z.b and a.invariants.signature >= z.invariants.signature]
    return not bad, "monotone for every b with two admissible primes" if not bad else f"violations {bad}"


CLAIM_TABLE = {
    "nondegenerate": _Family(
        2 + Fraction(12, 35),
        [(2, 5), (2, 7)],
        (2, 5, 2**4 * 5**7),
        "slope = 2 + (p^2-1)/((2b-1)p^2 - p)",
        (("slope at b=2 strictly decreasing across consecutive primes >= 7", _slope_decay),),
    ),
    "degenerate": _Family(
        Fraction(7, 3),
        [(2, 3)],
        (3, 2, 128),
        "slope = 2 + (p^2-1)/(2kp^3 - 3p^2 - p) with b = kp - 1",
        (
            ("fibre genus satisfies 2g - 2 = p^{2b+1}(2b - 2 + 1 - 1/p)", _fibre_genus),
            ("for fixed b the signature is strictly increasing in p", _signature_growth),
        ),
    ),
}


def census(family: str, b_range: Iterable[int], p_range: Iterable[int]) -> tuple[list[CensusRow], list[ClaimResult]]:
    """Rows of one family, sorted by (b, p), and its claims.

    Every b in the range must be a genus (b >= 2); (b, p) is a row when the
    family admits p at b.  Refused when a range has more than 10^6 values, or
    there are more than 10^6 cells (b, p), before any is tested; when the
    rows' (dim + 1) times the bit length of p, summed, exceed
    ``CENSUS_BITS_BOUND``, before any row is computed; or when none is a row,
    since every claim would then hold vacuously.
    """
    bs = sorted(set(map(check_genus, bounded(b_range, "genus b"))))
    ps = sorted(set(bounded(p_range, "modulus")))
    if len(bs) * len(ps) > 10**6:
        raise PreconditionError(f"{len(bs)} x {len(ps)} cells (b, p) are more than 10^6")
    ps = [p for p in ps if is_prime(p)]  # each modulus tested once; admits reads its primes back from the cache
    cells = [(b, p) for b in bs for p in ps if admits(family, b, p)]
    if (bits := sum(_group_bits(family, b, p) for b, p in cells)) > CENSUS_BITS_BOUND:
        what = f"the {len(cells)} rows' |G| have up to {shown(bits)} bits in all"
        raise PreconditionError(f"{what}, more than {shown(CENSUS_BITS_BOUND)}")
    rows = [CensusRow(family, b, p, family_invariants(family, b, p)) for b, p in cells]
    if not rows:
        name = family if isinstance(family, str) else shown(family)
        raise PreconditionError(f"no admissible (b, p) for the {name} family in the given ranges")
    fam = CLAIM_TABLE[family]
    min_b, min_p, min_sigma = fam.minimum
    named = (
        (f"slope in (2, {fam.slope_max}]", _window),
        (f"slope maximum attained exactly at {fam.peak}", _peak),
        ("signature divisible by 16", _divisible),
        (f"minimum signature {min_sigma} at ({min_b}, {min_p})", _minimum),
        (fam.slope_identity, _slope_identity),
        *fam.extra,
    )
    claims = [ClaimResult(f"{family}: {name}", *result) for name, check in named if (result := check(rows, fam))]
    return rows, claims


CSV_COLUMNS = ("family", "b", "p", "b1", "b2", "g1", "g2", "c1sq", "c2", "nu_num", "nu_den", "sigma", "degree")


def row_record(row: CensusRow) -> dict:
    inv = row.invariants
    values = (row.family, row.b, row.p, inv.b1, inv.b2, inv.g1, inv.g2, inv.c1_sq, inv.c2)
    values += (inv.slope.numerator, inv.slope.denominator, inv.signature, inv.cover_degree)
    return dict(zip(CSV_COLUMNS, values))


def rows_to_csv(rows: Iterable[CensusRow]) -> str:
    lines = [CSV_COLUMNS, *(row_record(row).values() for row in rows)]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)
