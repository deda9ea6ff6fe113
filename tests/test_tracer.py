"""The benchmark's tracer must still find every public name it wraps.

``proofbench/tracer.py`` wraps public functions and group/matrix methods of
the package and refuses to install if one is missing, so a refactor that
drops or renames a traced name fails here and not only in the benchmark.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import heiskod.cli
import heiskod.verify
from heiskod.fplinalg import AlternatingForm, FpMatrix
from heiskod.heisenberg import HeisGroup

TRACER = Path(__file__).resolve().parents[1] / "proofbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("proofbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = load_tracer().Tracer()
    originals = (heiskod.verify.verify_assignment, HeisGroup.mul, HeisGroup.inv, FpMatrix.rref)
    tracer.install()
    try:
        assert heiskod.verify.verify_assignment is not originals[0]
        group = HeisGroup(AlternatingForm.standard_symplectic(1, 5))
        g = group.element((1, 0), 0)
        group.mul(g, group.inv(g))
        FpMatrix([[1, 2], [3, 4]], 5).rank()
        direct = tracer.layer_times()[0]
        # the CLI imports its layers when a subcommand runs; those calls
        # must still reach the wrappers
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = heiskod.cli.main(["verify", "--family", "degenerate", "--b", "2", "--p", "3", "--format", "json"])
    finally:
        tracer.uninstall()
    assert (heiskod.verify.verify_assignment, HeisGroup.mul, HeisGroup.inv, FpMatrix.rref) == originals
    report = json.loads(out.getvalue())
    assert code == 0 and report["passed"] == report["relators"]
    assert direct["heisenberg.mul"] == 1
    assert direct["heisenberg.inv"] == 1
    assert direct["fplinalg.rref"] == 1
    calls = tracer.layer_times()[0]
    assert calls["verify.verify_assignment"] == 1
    assert calls["braid.build_presentation"] == 1


def test_tracer_counts_census_rows():
    # the forms workload's invariants.census span and invariants.rows counter
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = heiskod.cli.main(
                ["census", "--family", "degenerate", "--b", "2..12", "--p", "2..13", "--format", "json"]
            )
    finally:
        tracer.uninstall()
    rows = json.loads(out.getvalue())["rows"]
    assert code == 0 and len(rows) == 14
    assert tracer.layer_times()[0]["invariants.census"] == 1
    assert tracer.counts["invariants.rows"] == len(rows)


def test_tracer_counts_oracle_elements():
    # the oracle workload's verify.bfs_subgroup_order span and element count:
    # both kernel sets have the same images at p = 2, so one enumeration of
    # the whole 2^7-element group serves m1 and m2
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = heiskod.cli.main(["verify", "--family", "degenerate", "--b", "3", "--p", "2", "--bfs-oracle"])
    finally:
        tracer.uninstall()
    assert code == 0 and "CONTRADICTS" not in out.getvalue()
    assert tracer.layer_times()[0]["verify.bfs_subgroup_order"] == 1
    assert tracer.counts["verify.bfs.elements"] == 128
