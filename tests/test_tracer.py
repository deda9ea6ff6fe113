"""The benchmark's tracer must still find every public name it wraps.

``proofbench/tracer.py`` wraps public functions and group/matrix methods of
the package and refuses to install if one is missing, so a refactor that
drops or renames a traced name fails here and not only in the benchmark.
"""

import importlib.util
from pathlib import Path

import heiskod.cli
from heiskod.fplinalg import AlternatingForm, FpMatrix
from heiskod.heisenberg import HeisGroup, MatrixHeisGroup

TRACER = Path(__file__).resolve().parents[1] / "proofbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("proofbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = load_tracer().Tracer()
    originals = (heiskod.cli.verify_assignment, HeisGroup.mul, MatrixHeisGroup.inv, FpMatrix.rref)
    tracer.install()
    try:
        assert heiskod.cli.verify_assignment is not originals[0]
        group = HeisGroup(AlternatingForm.standard_symplectic(1, 5))
        g = group.element((1, 0), 0)
        group.mul(g, group.inv(g))
        FpMatrix([[1, 2], [3, 4]], 5).rank()
    finally:
        tracer.uninstall()
    assert (heiskod.cli.verify_assignment, HeisGroup.mul, MatrixHeisGroup.inv, FpMatrix.rref) == originals
    calls = tracer.layer_times()[0]
    assert calls["heisenberg.mul"] == 1
    assert calls["heisenberg.inv"] == 1
    assert calls["fplinalg.rref"] == 1
