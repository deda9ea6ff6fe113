"""Per-layer tracing of heiskod from outside its source.

The tracer wraps public functions and methods of the package for the length
of a traced run and restores them afterwards.  Each call records a span
(name, job, start, end, parent span) in memory; counters are taken from the
arguments and results at the same boundary.  A layer's self time is its
spans' duration minus the time covered by their child spans.

Only public names are wrapped, so the numbers survive refactors of private
kernels and backends.  A function is replaced in every ``heiskod`` module
that binds it, because ``heiskod.cli`` imports most of them by name.  A
method is replaced on the class that defines it, so that calls through
``self`` (``FpMatrix.rank`` calls ``self.rref``) are seen too.  A name that
is missing makes installation fail instead of reporting zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

# (module, function, span name)
FUNCTIONS = [
    ("heiskod.cli", "main", "cli.main"),
    ("heiskod.braid", "build_presentation", "braid.build_presentation"),
    ("heiskod.verify", "verify_assignment", "verify.verify_assignment"),
    ("heiskod.verify", "evaluate_word", "verify.evaluate_word"),
    ("heiskod.verify", "subgroup_order_fast", "verify.subgroup_order_fast"),
    ("heiskod.verify", "bfs_subgroup_order", "verify.bfs_subgroup_order"),
    ("heiskod.cohomology", "xi_matrix", "cohomology.xi_matrix"),
    ("heiskod.cohomology", "eta_matrix", "cohomology.eta_matrix"),
    ("heiskod.cohomology", "count_heisenberg_candidates", "cohomology.count_heisenberg_candidates"),
    ("heiskod.cohomology", "classify_form", "cohomology.classify_form"),
    ("heiskod.cohomology", "search_family_params", "cohomology.search_family_params"),
    ("heiskod.invariants", "census", "invariants.census"),
]
MATRIX_METHODS = ("rref", "det", "kernel_basis", "__matmul__")
GROUP_METHODS = ("mul", "inv", "order_of")


def _count_presentation(counts: Counter, args, result) -> None:
    counts["braid.relators"] += len(result.relators)
    counts["braid.letters"] += sum(len(r.word) for r in result.relators)


def _count_letters(counts: Counter, args, result) -> None:
    counts["verify.letters"] += len(args[1])


def _count_bfs(counts: Counter, args, result) -> None:
    counts["verify.bfs.elements"] += result


def _count_rref(counts: Counter, args, result) -> None:
    m = args[0]
    counts["fplinalg.rref.ops"] += len(result[1]) * m.rows * m.cols
    counts["fplinalg.rref.max_cells"] = max(counts["fplinalg.rref.max_cells"], m.rows * m.cols)


def _count_census(counts: Counter, args, result) -> None:
    counts["invariants.rows"] += len(result[0])


COUNTERS = {
    "braid.build_presentation": _count_presentation,
    "verify.evaluate_word": _count_letters,
    "verify.bfs_subgroup_order": _count_bfs,
    "fplinalg.rref": _count_rref,
    "invariants.census": _count_census,
}


class TracerError(RuntimeError):
    """A name the tracer must wrap is missing from the package."""


def _group_classes(module) -> list[type]:
    classes = [
        obj
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
        and all(callable(getattr(obj, m, None)) for m in GROUP_METHODS)
    ]
    if not classes:
        raise TracerError(f"no public class in {module.__name__} has {', '.join(GROUP_METHODS)}")
    return classes


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise TracerError(f"{cls.__name__}.{attr} is missing")


class Tracer:
    """Spans and counters of one traced run.  ``install`` wraps the package,
    ``uninstall`` restores it."""

    def __init__(self) -> None:
        # span: (name, job, start, end, parent index or -1)
        self.spans: list[Optional[tuple]] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, self.job, start, end, parent)
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module_name in sorted({m for m, _, _ in FUNCTIONS}):
            importlib.import_module(module_name)
        package = [m for n, m in sorted(sys.modules.items()) if n == "heiskod" or n.startswith("heiskod.")]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr, None)
            if not callable(original):
                raise TracerError(f"{module_name}.{attr} is missing")
            wrapper = self._wrap(original, name)
            for module in package:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, binding, wrapper)
        fplinalg = importlib.import_module("heiskod.fplinalg")
        heisenberg = importlib.import_module("heiskod.heisenberg")
        targets = [(fplinalg.FpMatrix, m, f"fplinalg.{m.strip('_')}") for m in MATRIX_METHODS]
        targets += [(c, m, f"heisenberg.{m}") for c in _group_classes(heisenberg) for m in GROUP_METHODS]
        done = set()
        for cls, attr, name in targets:
            owner = _defining_class(cls, attr)
            if (owner, attr) not in done:
                done.add((owner, attr))
                self._replace(owner, attr, self._wrap(vars(owner)[attr], name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict, dict, float]:
        """Per span name: calls, self seconds, inclusive seconds; plus the
        summed duration of root spans."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        incl_s: dict = defaultdict(float)
        roots = 0.0
        for i, (name, _, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            incl_s[name] += end - start
            if parent < 0:
                roots += end - start
        return calls, self_s, incl_s, roots

    def covered(self, names: tuple[str, ...]) -> float:
        """Seconds spent inside any span named in ``names``, counting nested
        ones once."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (name, _, start, end, parent) in enumerate(self.spans):
            outer = parent >= 0 and inside[parent]
            inside[i] = outer or name in names
            if name in names and not outer:
                total += end - start
        return total

    def metrics(self, traced_wall: float, untraced_wall: float, dominant: tuple[str, ...]) -> dict:
        calls, self_s, incl_s, roots = self.layer_times()
        attributed = sum(self_s.values())
        if abs(attributed - roots) > 1e-6 * max(1.0, roots) or roots > traced_wall:
            raise TracerError(
                f"self times sum to {attributed:.6f} s, root spans to {roots:.6f} s, traced wall {traced_wall:.6f} s"
            )
        c = self.counts

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        return {
            "cli.main.s": self_s["cli.main"],
            "braid.build_presentation.s": self_s["braid.build_presentation"],
            "braid.relators": c["braid.relators"],
            "braid.letters": c["braid.letters"],
            "heisenberg.mul.calls": calls["heisenberg.mul"],
            "heisenberg.mul.s": self_s["heisenberg.mul"],
            "heisenberg.inv.calls": calls["heisenberg.inv"],
            "heisenberg.order_of.calls": calls["heisenberg.order_of"],
            "heisenberg.order_of.s": self_s["heisenberg.order_of"],
            "verify.verify_assignment.s": self_s["verify.verify_assignment"],
            "verify.evaluate_word.s": self_s["verify.evaluate_word"],
            "verify.letters_per_s": rate(c["verify.letters"], incl_s["verify.evaluate_word"]),
            "verify.subgroup_order_fast.calls": calls["verify.subgroup_order_fast"],
            "verify.subgroup_order_fast.s": self_s["verify.subgroup_order_fast"],
            "verify.bfs_subgroup_order.s": self_s["verify.bfs_subgroup_order"],
            "verify.bfs.elements": c["verify.bfs.elements"],
            "verify.bfs.elements_per_s": rate(c["verify.bfs.elements"], incl_s["verify.bfs_subgroup_order"]),
            "fplinalg.rref.calls": calls["fplinalg.rref"],
            "fplinalg.rref.s": self_s["fplinalg.rref"],
            "fplinalg.rref.ops": c["fplinalg.rref.ops"],
            "fplinalg.rref.max_cells": c["fplinalg.rref.max_cells"],
            "fplinalg.matmul.calls": calls["fplinalg.matmul"],
            "fplinalg.matmul.s": self_s["fplinalg.matmul"],
            "fplinalg.det.s": self_s["fplinalg.det"],
            "fplinalg.kernel_basis.s": self_s["fplinalg.kernel_basis"],
            "cohomology.xi_matrix.s": self_s["cohomology.xi_matrix"],
            "cohomology.eta_matrix.s": self_s["cohomology.eta_matrix"],
            "cohomology.count_heisenberg_candidates.s": self_s["cohomology.count_heisenberg_candidates"],
            "cohomology.classify_form.s": self_s["cohomology.classify_form"],
            "cohomology.search_family_params.s": self_s["cohomology.search_family_params"],
            "invariants.census.s": self_s["invariants.census"],
            "invariants.rows": c["invariants.rows"],
            "trace.wall_s": traced_wall,
            "trace.unattributed_s": traced_wall - attributed,
            "trace.overhead_ratio": traced_wall / untraced_wall - 1,
            "trace.dominant_share": self.covered(dominant) / traced_wall,
        }

    def spans_json(self) -> dict:
        """Spans in a compact form: names listed once, then one row each of
        (name index, job, start, end, parent)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names, "spans": [[index[n], j, s, e, p] for n, j, s, e, p in self.spans]}
