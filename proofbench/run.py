#!/usr/bin/env python3
"""Proof-job benchmark for heiskod.

    python3 proofbench/run.py --workload relators --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout that holds ``src/heiskod``; it uses that
source tree and no installed copy.  The workloads and their checks are in
``jobs.py``.

A closed loop with one client: the benchmark runs a workload's jobs one at a
time, each as its own ``python -m heiskod ...`` process (the cost a user
pays), and checks every output against answers computed here.  A run makes
ceil(seconds / planned pass time) passes over the job list.  Each child runs
with one BLAS/OpenMP thread, a time cap and an address-space cap, so a
runaway job counts as failed instead of taking the machine down.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each job
in this process three times, the middle time with the tracer of
``tracer.py`` installed, and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from jobs import SETUP_JOB, WORKLOADS, CheckError, Job, jobs_for
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "proofbench")

SETUP_PROBES = 8
JOB_TIMEOUT_S = 60.0
JOB_MEMORY_BYTES = 2 << 30
# No job starts after RUN_BUDGET_S and none runs past RUN_LIMIT_S, so a run
# ends within three minutes even when every job hangs.
RUN_BUDGET_S = 140.0
RUN_LIMIT_S = 165.0
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Outcome:
    job: Job
    seconds: float
    error: Optional[str]  # None when the output passed its check


def check_output(job: Job, text: str) -> Optional[str]:
    try:
        job.check(json.loads(text))
    except (CheckError, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# jobs as processes
# ---------------------------------------------------------------------------


def child_command(job: Job) -> list[str]:
    if job.is_count:
        return [sys.executable, os.path.join(HERE, "count_candidates.py"), *job.argv[1:]]
    return [sys.executable, "-m", "heiskod", *job.argv, "--format", "json"]


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (JOB_MEMORY_BYTES, JOB_MEMORY_BYTES))


class ChildRunner:
    """Runs jobs as child processes within the run's time limits."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.started = time.perf_counter()
        self.outcomes: list[Outcome] = []

    def run(self, job: Job) -> Optional[Outcome]:
        elapsed = time.perf_counter() - self.started
        if elapsed > RUN_BUDGET_S:
            return None
        timeout = min(JOB_TIMEOUT_S, RUN_LIMIT_S - elapsed)
        start = time.perf_counter()
        proc = subprocess.Popen(
            child_command(job), cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=_cap_memory,
        )
        out = err = None
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.returncode is None:  # timed out, or this run is being stopped
                proc.kill()
                proc.communicate()
        seconds = time.perf_counter() - start
        if out is None:
            outcome = Outcome(job, seconds, f"timed out after {timeout:.0f} s")
        elif proc.returncode != 0:
            tail = err.decode(errors="replace").strip()[-300:]
            outcome = Outcome(job, seconds, f"exit code {proc.returncode}: {tail}")
        else:
            outcome = Outcome(job, seconds, check_output(job, out.decode()))
        self.outcomes.append(outcome)
        return outcome


def job_tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND
    samples beyond it; the median when that percentile would be below it."""
    n = len(samples)
    rank = n - TAIL_BEYOND  # 1-based rank of the sample with 10 above it
    if rank < (n + 1) / 2:
        return statistics.median(samples), 50.0
    return sorted(samples)[rank - 1], 100.0 * rank / n


def end_to_end(job_list: list[Job], passes: int) -> tuple[dict, list[Outcome], list[str]]:
    runner = ChildRunner()
    notes = []
    runner.run(SETUP_JOB)  # fills the bytecode cache; not timed
    probes, pass_walls, job_walls = [], [], []
    for k in range(passes):
        # start-up probes are spread over the run, so that their median
        # covers the same machine conditions as the passes
        for _ in range((k + 1) * SETUP_PROBES // passes - k * SETUP_PROBES // passes):
            probe = runner.run(SETUP_JOB)
            if probe:
                probes.append(probe.seconds)
        outcomes = [runner.run(job) for job in job_list]
        if None in outcomes:
            notes.append(f"run budget of {RUN_BUDGET_S:.0f} s spent; pass cut short and left out")
            break
        pass_walls.append(sum(o.seconds for o in outcomes))
        job_walls += [o.seconds for o in outcomes]
    if not pass_walls:
        raise SystemExit("no pass over the job list finished within the run budget")
    tail, percentile = job_tail(job_walls)
    notes.append(
        f"{len(pass_walls)} passes of {len(job_list)} jobs; {len(probes)} setup probes; "
        f"job_tail_s is p{percentile:.1f} of {len(job_walls)} job samples"
    )
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "job_p50_s": statistics.median(job_walls),
        "job_tail_s": tail,
        "setup_s": statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    return metrics, runner.outcomes, notes


# ---------------------------------------------------------------------------
# jobs in this process, for the per-layer trace
# ---------------------------------------------------------------------------


def run_in_process(job: Job) -> Outcome:
    import count_candidates

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.is_count:
                print(json.dumps(count_candidates.payload(int(job.argv[1]), int(job.argv[2]))))
                code = 0
            else:
                code = sys.modules["heiskod.cli"].main([*job.argv, "--format", "json"])
    except Exception as exc:  # a crashing job is a failed job; the run goes on
        return Outcome(job, time.perf_counter() - start, f"raised {exc!r}")
    seconds = time.perf_counter() - start
    if code != 0:
        return Outcome(job, seconds, f"exit code {code}: {err.getvalue().strip()[-300:]}")
    return Outcome(job, seconds, check_output(job, out.getvalue()))


def traced(workload: str, job_list: list[Job], seed: int) -> tuple[dict, list[Outcome], list[str]]:
    import heiskod.cli  # noqa: F401  (the jobs look it up in sys.modules)

    outcomes = [run_in_process(SETUP_JOB)]  # warm-up, untimed
    tracer = Tracer()
    untraced_wall = traced_wall = 0.0
    for i, job in enumerate(job_list):
        # The traced execution sits between two untraced ones, so that drift
        # in machine speed cancels out of trace.overhead_ratio.
        before = run_in_process(job)
        tracer.job = i
        try:
            tracer.install()
            during = run_in_process(job)
        finally:
            tracer.uninstall()
        after = run_in_process(job)
        outcomes += [before, during, after]
        untraced_wall += (before.seconds + after.seconds) / 2
        traced_wall += during.seconds
    spec = WORKLOADS[workload]
    metrics = tracer.metrics(traced_wall, untraced_wall, spec.dominant)
    share = metrics["trace.dominant_share"]
    notes = [
        f"dominant layer {'+'.join(spec.dominant)}: {share:.1%} of traced wall "
        f"(predicted >= {spec.predicted_share:.0%}: {'yes' if share >= spec.predicted_share else 'no'})",
        f"self times {traced_wall - metrics['trace.unattributed_s']:.4f} s + unattributed "
        f"{metrics['trace.unattributed_s']:.4f} s = traced wall {traced_wall:.4f} s",
    ]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.json")
    with open(path, "w") as fh:
        json.dump({"jobs": [j.label for j in job_list], **tracer.spans_json()}, fh)
    notes.append(f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    return metrics, outcomes, notes


# ---------------------------------------------------------------------------
# run record and result
# ---------------------------------------------------------------------------


def source_identity() -> dict:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "heiskod")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:  # no git on this machine
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_record(args, job_list: list[Job], passes: int) -> dict:
    import numpy
    import heiskod

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_identity(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": heiskod.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loop": "closed, one client",
        "passes": 1 if args.trace else passes,
        "job_timeout_s": JOB_TIMEOUT_S,
        "job_memory_cap_mb": JOB_MEMORY_BYTES >> 20,
        "jobs": [job.label for job in job_list],
    }


def metric_specs(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def _stop(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through ChildRunner.run, which kills the job


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "heiskod", "__init__.py")):
        sys.stderr.write(f"no heiskod source under {SRC}; run from the root of a heiskod checkout\n")
        return 2
    sys.path.insert(0, SRC)

    specs = metric_specs(args.trace)
    job_list = jobs_for(args.workload, args.seed)
    passes = max(1, math.ceil(args.seconds / WORKLOADS[args.workload].pass_s))
    print("record " + json.dumps(run_record(args, job_list, passes)))
    if args.trace:
        metrics, outcomes, notes = traced(args.workload, job_list, args.seed)
    else:
        metrics, outcomes, notes = end_to_end(job_list, passes)

    if set(metrics) != {m["name"] for m in specs}:
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    failures = [o for o in outcomes if o.error]
    for o in failures:
        print(f"FAILED {o.job.label}: {o.error}")
    for line in notes:
        print(line)
    for m in specs:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"fail_ratio = {len(failures)}/{len(outcomes)} = {len(failures) / len(outcomes):.4g}")
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
