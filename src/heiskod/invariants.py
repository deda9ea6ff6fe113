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

The two families specialise this:

* non-degenerate: |G| = p^{4b+1}, n = p, m1 = m2 = p^{2b}  (p >= 5);
* degenerate:     |G| = p^{2b+1}, n = p, m1 = m2 = 1       (p | b+1).

Any non-integral intermediate value is reported as an inconsistency rather
than rounded: with valid parameters every output is a positive integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InconsistencyError, PreconditionError
from .fplinalg import _MR_LIMIT, is_prime


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise InconsistencyError(f"{what} is not an integer: {x}")
    return int(x)


@dataclass(frozen=True)
class FibrationInvariants:
    """Exact invariant record of one double Kodaira fibration."""

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

    def __post_init__(self):
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


def general_invariants(b: int, group_order: int, n: int, m1: int, m2: int) -> FibrationInvariants:
    """Invariants for an arbitrary admissible (|G|, n, m1, m2) at base genus b."""
    if b < 2:
        raise PreconditionError(f"base genus must be >= 2, got {b}")
    if n <= 1:
        raise PreconditionError(f"branching order must exceed 1, got {n}")
    if group_order % m1 or group_order % m2:
        raise PreconditionError("m1 and m2 must divide the group order")
    f = 1 - Fraction(1, n)
    b1 = m1 * (b - 1) + 1
    b2 = m2 * (b - 1) + 1
    g1 = _as_int((Fraction(group_order, m1) * (2 * b - 2 + f) + 2) / 2, "g1")
    g2 = _as_int((Fraction(group_order, m2) * (2 * b - 2 + f) + 2) / 2, "g2")
    c1_sq = _as_int(group_order * (2 * b - 2) * (4 * b - 4 + 4 * f - f * f), "c1^2")
    c2 = _as_int(group_order * (2 * b - 2) * (2 * b - 2 + f), "c2")
    slope = Fraction(c1_sq, c2)
    if slope != 2 + (2 * f - f * f) / (2 * b - 2 + f):
        raise InconsistencyError("slope closed form disagrees with c1^2/c2")
    signature = _as_int(Fraction(c1_sq - 2 * c2, 3), "signature")
    if group_order % (m1 * m2):
        raise InconsistencyError("cover degree |G|/(m1 m2) is not an integer")
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


def nondegenerate_invariants(b: int, p: int) -> FibrationInvariants:
    """The symplectic family: group order p^{4b+1}, indices p^{2b}, cyclic
    cover of degree p of a product of two genus-b' curves, b'-1 = p^{2b}(b-1)."""
    if b < 2:
        raise PreconditionError(f"base genus must be >= 2, got {b}")
    if not is_prime(p) or p < 5:
        raise PreconditionError(f"the non-degenerate family needs a prime p >= 5, got {p}")
    inv = general_invariants(b, p ** (4 * b + 1), p, p ** (2 * b), p ** (2 * b))
    if inv.cover_degree != p:
        raise InconsistencyError(f"cover degree {inv.cover_degree} != p = {p}")
    if inv.signature != (2 * b - 2) * p ** (4 * b - 1) * (p * p - 1) // 3:
        raise InconsistencyError("signature disagrees with its closed form")
    return inv


def degenerate_invariants(b: int, p: int) -> FibrationInvariants:
    """The rank-2b family: group order p^{2b+1}, connected fibres (m = 1)."""
    if b < 2:
        raise PreconditionError(f"base genus must be >= 2, got {b}")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if (b + 1) % p != 0:
        raise PreconditionError(f"the degenerate family needs p | b+1; {p} does not divide {b + 1}")
    inv = general_invariants(b, p ** (2 * b + 1), p, 1, 1)
    if inv.signature != (2 * b - 2) * p ** (2 * b - 1) * (p * p - 1) // 3:
        raise InconsistencyError("signature disagrees with its closed form")
    return inv


_TRIAL_DIVISION_LIMIT = 10**6


def distinct_prime_factors(n: int) -> tuple[int, ...]:
    """Prime divisors, ascending.

    Trial division stops as soon as the cofactor is 1 or a prime below
    _MR_LIMIT (tested with :func:`is_prime` at the start and after each
    factor), so a prime or a prime times small factors costs little.  Any
    other cofactor with no prime factor up to _TRIAL_DIVISION_LIMIT is refused.
    """
    if n < 1:
        raise PreconditionError(f"need a positive integer, got {n}")
    out = []
    d = 2
    while n > 1 and not (n < _MR_LIMIT and is_prime(n)):
        for d in range(d, _TRIAL_DIVISION_LIMIT + 1):
            if n % d == 0:
                break
        else:
            raise PreconditionError(
                f"{n} has no prime factor up to {_TRIAL_DIVISION_LIMIT}; factoring it is out of range"
            )
        out.append(d)
        while n % d == 0:
            n //= d
    if n > 1:
        out.append(n)
    return tuple(out)


def kappa(b: int) -> int:
    """Number of degenerate-family fibrations over a fixed genus-b curve:
    one per prime dividing b+1, pairwise non-homeomorphic total spaces."""
    if b < 2:
        raise PreconditionError(f"base genus must be >= 2, got {b}")
    return len(distinct_prime_factors(b + 1))


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

MAX_NONDEGENERATE_SLOPE = Fraction(2) + Fraction(12, 35)
MAX_DEGENERATE_SLOPE = Fraction(7, 3)


@dataclass(frozen=True)
class CensusRow:
    family: str
    b: int
    p: int
    invariants: FibrationInvariants


@dataclass(frozen=True)
class ClaimResult:
    name: str
    holds: bool
    detail: str

    def line(self) -> str:
        return f"claim [{'ok' if self.holds else 'FAILED'}] {self.name}: {self.detail}"


def _slope_window_claims(rows: list[CensusRow], bound: Fraction, peak: set, label: str) -> list[ClaimResult]:
    claims = []
    bad = [(r.b, r.p) for r in rows if not 2 < r.invariants.slope <= bound]
    claims.append(
        ClaimResult(
            f"{label}: slope in (2, {bound}]",
            not bad,
            "all rows in window" if not bad else f"violations at {bad}",
        )
    )
    attained = {(r.b, r.p) for r in rows if r.invariants.slope == bound}
    expected = {bp for bp in peak if any((r.b, r.p) == bp for r in rows)}
    claims.append(
        ClaimResult(
            f"{label}: slope maximum attained exactly at {sorted(peak)}",
            attained == expected,
            f"attained at {sorted(attained)}",
        )
    )
    return claims


def _sigma_claims(rows: list[CensusRow], minimum: tuple[int, int, int], label: str) -> list[ClaimResult]:
    claims = []
    bad = [(r.b, r.p) for r in rows if r.invariants.signature % 16]
    claims.append(
        ClaimResult(
            f"{label}: signature divisible by 16",
            not bad,
            "all rows divisible" if not bad else f"violations at {bad}",
        )
    )
    min_b, min_p, min_sigma = minimum
    if any((r.b, r.p) == (min_b, min_p) for r in rows):
        actual = min(rows, key=lambda r: r.invariants.signature)
        ok = (actual.b, actual.p) == (min_b, min_p) and actual.invariants.signature == min_sigma
        claims.append(
            ClaimResult(
                f"{label}: minimum signature {min_sigma} at ({min_b}, {min_p})",
                ok,
                f"minimum {actual.invariants.signature} at ({actual.b}, {actual.p})",
            )
        )
    return claims


def census_nondegenerate(b_range: Sequence[int], p_range: Sequence[int]) -> tuple[list[CensusRow], list[ClaimResult]]:
    """All rows with b in b_range and prime p >= 5 in p_range, plus the claim
    report: slope window and peak, monotone slope decay at b = 2 for p >= 7,
    signature divisibility, signature minimum, and the closed-form identities
    row by row."""
    rows = [
        CensusRow("nondegenerate", b, p, nondegenerate_invariants(b, p))
        for b in sorted(set(b_range))
        for p in sorted(set(p_range))
        if p >= 5 and is_prime(p)
    ]
    claims = _slope_window_claims(rows, MAX_NONDEGENERATE_SLOPE, {(2, 5), (2, 7)}, "nondegenerate")
    claims += _sigma_claims(rows, (2, 5, 2**4 * 5**7), "nondegenerate")

    slope_identity_bad = [
        (r.b, r.p)
        for r in rows
        if r.invariants.slope != 2 + Fraction(r.p**2 - 1, (2 * r.b - 1) * r.p**2 - r.p)
    ]
    claims.append(
        ClaimResult(
            "nondegenerate: slope = 2 + (p^2-1)/((2b-1)p^2 - p)",
            not slope_identity_bad,
            "identity holds row by row" if not slope_identity_bad else f"violations at {slope_identity_bad}",
        )
    )

    two_rows = sorted((r for r in rows if r.b == 2 and r.p >= 7), key=lambda r: r.p)
    decreasing = all(
        a.invariants.slope > z.invariants.slope for a, z in zip(two_rows, two_rows[1:])
    )
    if len(two_rows) >= 2:
        claims.append(
            ClaimResult(
                "nondegenerate: slope at b=2 strictly decreasing across consecutive primes >= 7",
                decreasing,
                f"slopes {[str(r.invariants.slope) for r in two_rows]}",
            )
        )
    return rows, claims


def census_degenerate(b_range: Sequence[int], p_range: Sequence[int]) -> tuple[list[CensusRow], list[ClaimResult]]:
    """All admissible rows (p | b+1) in range, plus the claim report."""
    rows = [
        CensusRow("degenerate", b, p, degenerate_invariants(b, p))
        for b in sorted(set(b_range))
        for p in sorted(set(p_range))
        if is_prime(p) and (b + 1) % p == 0
    ]
    claims = _slope_window_claims(rows, MAX_DEGENERATE_SLOPE, {(2, 3)}, "degenerate")
    claims += _sigma_claims(rows, (3, 2, 128), "degenerate")

    identity_bad = []
    for r in rows:
        k = (r.b + 1) // r.p
        expected = 2 + Fraction(r.p**2 - 1, 2 * k * r.p**3 - 3 * r.p**2 - r.p)
        if r.invariants.slope != expected:
            identity_bad.append((r.b, r.p))
    claims.append(
        ClaimResult(
            "degenerate: slope = 2 + (p^2-1)/(2kp^3 - 3p^2 - p) with b = kp - 1",
            not identity_bad,
            "identity holds row by row" if not identity_bad else f"violations at {identity_bad}",
        )
    )

    genus_bad = [
        (r.b, r.p)
        for r in rows
        if 2 * r.invariants.g1 - 2
        != _as_int(r.p ** (2 * r.b + 1) * (2 * r.b - 2 + 1 - Fraction(1, r.p)), "2g-2")
    ]
    claims.append(
        ClaimResult(
            "degenerate: fibre genus satisfies 2g - 2 = p^{2b+1}(2b - 2 + 1 - 1/p)",
            not genus_bad,
            "matches" if not genus_bad else f"violations at {genus_bad}",
        )
    )

    mono_bad = []
    by_b: dict[int, list[CensusRow]] = {}
    for r in rows:
        by_b.setdefault(r.b, []).append(r)
    for b, group in by_b.items():
        group.sort(key=lambda r: r.p)
        for a, z in zip(group, group[1:]):
            if not a.invariants.signature < z.invariants.signature:
                mono_bad.append((b, a.p, z.p))
    claims.append(
        ClaimResult(
            "degenerate: for fixed b the signature is strictly increasing in p",
            not mono_bad,
            "monotone for every b with two admissible primes" if not mono_bad else f"violations {mono_bad}",
        )
    )
    return rows, claims


def census(family: str, b_range: Sequence[int], p_range: Sequence[int]) -> tuple[list[CensusRow], list[ClaimResult]]:
    if family == "nondegenerate":
        return census_nondegenerate(b_range, p_range)
    if family == "degenerate":
        return census_degenerate(b_range, p_range)
    raise PreconditionError(f"unknown family {family!r}")


CSV_COLUMNS = ("family", "b", "p", "b1", "b2", "g1", "g2", "c1sq", "c2", "nu_num", "nu_den", "sigma", "degree")


def row_record(row: CensusRow) -> dict:
    inv = row.invariants
    return {
        "family": row.family,
        "b": row.b,
        "p": row.p,
        "b1": inv.b1,
        "b2": inv.b2,
        "g1": inv.g1,
        "g2": inv.g2,
        "c1sq": inv.c1_sq,
        "c2": inv.c2,
        "nu_num": inv.slope.numerator,
        "nu_den": inv.slope.denominator,
        "sigma": inv.signature,
        "degree": inv.cover_degree,
    }


def rows_to_csv(rows: Iterable[CensusRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        rec = row_record(row)
        lines.append(",".join(str(rec[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def claims_to_json(claims: Iterable[ClaimResult]) -> list[dict]:
    return [{"claim": c.name, "holds": c.holds, "detail": c.detail} for c in claims]
