"""Workloads of the proof-job benchmark: seeded job lists and output checks.

A job is one user-visible computation: a ``heiskod`` subcommand with
``--format json``, or the candidate count through ``count_candidates.py``.
Every job carries a check that recomputes the expected answer here, from
closed forms and independent counts, and never trusts the program's own
pass/fail flags.

Job cost does not depend on the seed: the seed only picks which valid
(lambda, mu) a non-degenerate job uses, and every group product, rank and
enumeration has the same size for every valid choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional


class CheckError(Exception):
    """A job's output disagrees with the independently computed answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


@dataclass(frozen=True)
class Job:
    """``argv`` is a ``heiskod`` command line, or ``("count", b, p)`` for the
    candidate count, which has no subcommand."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[object], None]

    @property
    def is_count(self) -> bool:
        return self.argv[0] == "count"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random], list[Job]]
    # Seconds one pass over the job list took when the benchmark was
    # defined, on a 2-core x86 box.  A run makes ceil(seconds / pass_s)
    # passes, so the parent and a changed commit do the same work and draw
    # the same number of samples.
    pass_s: float
    # Spans whose time the workload is built to be dominated by, and the
    # share of the traced wall time predicted for them.
    dominant: tuple[str, ...]
    predicted_share: float


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _tuple_summing_to_one(rng: random.Random, b: int, p: int) -> Optional[tuple[int, ...]]:
    head = [rng.randrange(1, p) for _ in range(b - 1)]
    last = (1 - sum(head)) % p
    return None if last == 0 else tuple(head) + (last,)


def family_params(rng: random.Random, b: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Draw valid non-degenerate (lambda, mu) by rejection: entries nonzero,
    both sums 1 mod p, and lambda_j mu_j != 1 for every j."""
    for _ in range(100_000):
        lam = _tuple_summing_to_one(rng, b, p)
        mu = _tuple_summing_to_one(rng, b, p)
        if lam and mu and all((l * m) % p != 1 for l, m in zip(lam, mu)):
            return lam, mu
    raise RuntimeError(f"no valid (lambda, mu) drawn for b={b}, p={p}")


def _csv(values) -> str:
    return ",".join(map(str, values))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_verify(family: str, b: int, p: int, oracle: bool) -> Callable[[dict], None]:
    relators = 8 * b * b + 4 * b + 2
    index = 1 if family == "degenerate" else p ** (2 * b)
    dim = 2 * b if family == "degenerate" else 4 * b
    group_order = p ** (dim + 1)

    def check(out: dict) -> None:
        expect(out["relators"] == relators, f"relators {out['relators']} != 8b^2+4b+2 = {relators}")
        expect(out["passed"] == relators, f"passed {out['passed']} of {relators}")
        expect(out["a12_order"] == p, f"A12 order {out['a12_order']} != {p}")
        expect((out["m1"], out["m2"]) == (index, index), f"(m1, m2) = ({out['m1']}, {out['m2']}) != ({index}, {index})")
        expect(out["surjective"] is True, "assignment not surjective")
        if oracle:
            orders = [(e["index"], e["subgroup_order"], e["agrees"]) for e in out["bfs_oracle"]]
            want = [(label, group_order // index, True) for label in ("m1", "m2")]
            expect(orders == want, f"oracle {orders} != {want}")
        else:
            expect("bfs_oracle" not in out, "oracle ran without --bfs-oracle")

    return check


def check_count(b: int, p: int) -> Callable[[dict], None]:
    closed = p ** (4 * b * b - 2 * b - 2) * (p - 1)

    def check(out: dict) -> None:
        expect(out["count"] == closed, f"count {out['count']} != p^(4b^2-2b-2)(p-1) = {closed}")

    return check


def check_classify(b: int, p: int, lam, mu) -> Callable[[dict], None]:
    det = 1
    for l, m in zip(lam, mu):
        det = det * (1 - l * m) ** 2 % p

    def check(out: dict) -> None:
        expect(out["dim"] == 4 * b, f"dim {out['dim']} != 4b")
        expect(out["det"] == det, f"det {out['det']} != prod (1 - lambda_j mu_j)^2 = {det}")
        expect(out["symplectic"] is True and out["kernel_dim"] == 0, "valid family form reported degenerate")
        expect(out["heisenberg_type"] is True, "valid family form not reported Heisenberg type")

    return check


def count_family_params(b: int, p: int) -> int:
    """Number of valid (lambda, mu), by dynamic programming over the pair of
    partial sums (p^2 states, b steps); independent of the program's search."""
    steps = [(l, m) for l in range(1, p) for m in range(1, p) if (l * m) % p != 1]
    ways = [[0] * p for _ in range(p)]
    ways[0][0] = 1
    for _ in range(b):
        nxt = [[0] * p for _ in range(p)]
        for s in range(p):
            for t in range(p):
                if ways[s][t]:
                    for l, m in steps:
                        nxt[(s + l) % p][(t + m) % p] += ways[s][t]
        ways = nxt
    return ways[1][1]


def check_search(b: int, p: int) -> Callable[[dict], None]:
    total = count_family_params(b, p)

    def check(out: dict) -> None:
        hits = [(tuple(h["lambda"]), tuple(h["mu"])) for h in out["hits"]]
        for lam, mu in hits:
            expect(len(lam) == b and len(mu) == b, f"hit of wrong length {lam}, {mu}")
            expect(all(0 < x < p for x in lam + mu), f"hit {lam}, {mu} has an entry outside 1..p-1")
            expect(sum(lam) % p == 1 and sum(mu) % p == 1, f"hit {lam}, {mu} does not sum to 1")
            expect(all((l * m) % p != 1 for l, m in zip(lam, mu)), f"hit {lam}, {mu} has lambda_j mu_j = 1")
        expect(len(set(hits)) == len(hits), "repeated hits")
        expect(len(hits) == total, f"{len(hits)} hits, but {total} valid (lambda, mu) exist")
        expect(out["exhaustive"] is True, "exhaustive search not reported exhaustive")

    return check


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def check_census(family: str, bs: range, ps: range) -> Callable[[dict], None]:
    if family == "degenerate":
        cells = {(b, p) for b in bs for p in ps if _is_prime(p) and (b + 1) % p == 0}
    else:
        cells = {(b, p) for b in bs for p in ps if _is_prime(p) and p >= 5}

    def check(out: dict) -> None:
        got = {(r["b"], r["p"]) for r in out["rows"]}
        expect(got == cells, f"census rows {sorted(got)} != {sorted(cells)}")
        expect(out["all_claims_hold"] is True, "census claims do not all hold")

    return check


def check_kappa(out: list) -> None:
    expect(out == [{"b": 2, "kappa": 1}], f"kappa(2) output {out} != 1")


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def verify_job(family: str, b: int, p: int, rng: random.Random, oracle: bool = False) -> Job:
    argv = ["verify", "--family", family, "--b", str(b), "--p", str(p)]
    label = f"verify {family} b={b} p={p}"
    if family == "nondegenerate":
        lam, mu = family_params(rng, b, p)
        argv += ["--lambda", _csv(lam), "--mu", _csv(mu)]
        label += f" lambda={_csv(lam)} mu={_csv(mu)}"
    if oracle:
        argv.append("--bfs-oracle")
        label += " oracle"
    return Job(label, tuple(argv), check_verify(family, b, p, oracle))


def count_job(b: int, p: int) -> Job:
    return Job(f"count_heisenberg_candidates b={b} p={p}", ("count", str(b), str(p)), check_count(b, p))


def classify_job(b: int, p: int, rng: random.Random) -> Job:
    lam, mu = family_params(rng, b, p)
    argv = ("classify-form", "--b", str(b), "--p", str(p), "--lambda", _csv(lam), "--mu", _csv(mu))
    return Job(f"classify-form b={b} p={p} lambda={_csv(lam)} mu={_csv(mu)}", argv, check_classify(b, p, lam, mu))


def search_job(b: int, p: int) -> Job:
    return Job(f"search-forms b={b} p={p}", ("search-forms", "--b", str(b), "--p", str(p)), check_search(b, p))


def census_job(family: str, bs: range, ps: range) -> Job:
    argv = ("census", "--family", family, "--b", f"{bs[0]}..{bs[-1]}", "--p", f"{ps[0]}..{ps[-1]}")
    return Job(f"census {family} b={bs[0]}..{bs[-1]} p={ps[0]}..{ps[-1]}", argv, check_census(family, bs, ps))


# The start-up probe: every job pays interpreter start, ``import heiskod``
# and argument parsing, and this one does almost nothing else.
SETUP_JOB = Job("kappa b=2", ("kappa", "--b", "2"), check_kappa)


def _relators(rng: random.Random) -> list[Job]:
    return [
        verify_job("degenerate", 29, 5, rng),
        verify_job("degenerate", 15, 2, rng),
        verify_job("nondegenerate", 6, 7, rng),
    ]


def _oracle(rng: random.Random) -> list[Job]:
    return [
        verify_job("degenerate", 4, 5, rng, oracle=True),
        verify_job("degenerate", 5, 3, rng, oracle=True),
        verify_job("nondegenerate", 2, 5, rng, oracle=True),
    ]


def _forms(rng: random.Random) -> list[Job]:
    # No exhaustive search larger than b=4, p=7: search-forms at b=6, p=7 runs
    # for minutes at gigabytes of memory (see NOTES.md).
    return [
        count_job(12, 13),
        count_job(14, 3),
        count_job(12, 2),
        classify_job(12, 5, rng),
        classify_job(12, 7, rng),
        classify_job(12, 13, rng),
        search_job(4, 7),
        census_job("nondegenerate", range(2, 7), range(5, 14)),
        census_job("degenerate", range(2, 7), range(2, 14)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="relators",
            why="relator-by-relator verification at large genus without the oracle; word evaluation dominates",
            build=_relators,
            pass_s=3.4,
            dominant=("verify.evaluate_word",),
            predicted_share=0.5,
        ),
        Workload(
            name="oracle",
            why="verification with the exhaustive BFS oracle over up to 5^9 elements; the oracle dominates time and memory",
            build=_oracle,
            pass_s=11.0,
            dominant=("verify.bfs_subgroup_order",),
            predicted_share=0.8,
        ),
        Workload(
            name="forms",
            why="candidate counts, form classification, a small search and census; ranks over F_p dominate, no group arithmetic",
            build=_forms,
            pass_s=5.6,
            dominant=(
                "fplinalg.rref",
                "cohomology.xi_matrix",
                "cohomology.eta_matrix",
                "cohomology.count_heisenberg_candidates",
                "cohomology.classify_form",
                "cohomology.search_family_params",
            ),
            predicted_share=0.5,
        ),
    )
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"))
