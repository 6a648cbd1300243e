"""Span recorder that wraps the package's public functions from outside.

The recorder replaces each layer function with a wrapper that records a span
(name, start, end, parent, command id, whether it raised, counters read from
the return value).  Functions such as ``fit_logistic`` or ``expit`` are
imported by name into other modules, so every module-level binding of the
same object is replaced, not only the defining module's; methods are patched
on their class.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "dtr_adhere"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    command: int
    failed: bool = False
    counters: dict = field(default_factory=dict)


class Recorder:
    """Collects spans while a command id is set; does nothing otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command: Optional[int] = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.command is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.command)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counters = counter(result, args, kwargs)
            return result

        return traced


# ---------------------------------------------------------------------------
# Layer table: (layer name, owning module, attribute path, counter)


def _nbytes(obj) -> int:
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    return 0


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _replication_counts(summary, args, kwargs):
    config = summary.config
    ok = sum(len(v) for v in summary.replicate_indices.values())
    return {"ok": ok, "attempted": config.replications * len(config.estimators)}


def _bootstrap_counts(intervals, args, kwargs):
    attempted = args[2] if len(args) > 2 else kwargs["n_replicates"]
    return {"ok": attempted - intervals.n_failed, "attempted": attempted}


LAYERS = (
    ("cli.main", "cli", "main", None),
    ("cli.read_dataset_csv", "cli", "read_dataset_csv",
     lambda r, a, k: {"rows": r[1]["rows_total"]}),
    ("simulation.generate", "simulation", "generate_s1", None),
    ("simulation.generate", "simulation", "generate_s3", None),
    ("simulation.generate", "simulation", "generate_s4", None),
    ("simulation.run_replications", "simulation", "run_replications", _replication_counts),
    ("inference.bootstrap", "inference", "bootstrap", _bootstrap_counts),
    ("inference.sandwich", "inference", "sandwich", None),
    ("inference.numerical_jacobian", "inference", "numerical_jacobian", None),
    ("gest.estimate", "gest", "EstimationPlan.estimate",
     lambda r, a, k: {"stage_sweeps": sum(r.diagnostics["outer_iterations"])}),
    ("gest.StackedScore.per_individual", "gest", "StackedScore.per_individual", None),
    ("glm.fit_logistic", "glm", "fit_logistic", lambda r, a, k: {"iters": r.iterations}),
    ("glm.expit", "glm", "expit", lambda r, a, k: {"elems": _size(r)}),
    ("model.build_design_matrix", "model", "build_design_matrix",
     lambda r, a, k: {"bytes": r.nbytes}),
    ("model.Dataset.subset", "model", "Dataset.subset",
     lambda r, a, k: {"bytes": _nbytes(vars(r))}),
    ("model.Dataset.init", "model", "Dataset.__init__", None),
)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer's bindings; returns a function that restores them."""
    undo = []
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    for layer, module_name, path, counter in LAYERS:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, recorder.wrap(layer, original, counter))
            undo.append((cls, attr, original))
            continue
        original = getattr(owner, path)
        wrapped = recorder.wrap(layer, original, counter)
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))

    def restore():
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return restore


# ---------------------------------------------------------------------------
# Analysis


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict:
    """Per layer: calls, self_s, fail and the sum of every counter."""
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0, "fail": 0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["fail"] += int(span.failed)
        for key, value in span.counters.items():
            entry[key] = entry.get(key, 0) + value
    return totals


def span_rows(spans: list[Span]) -> list[list]:
    """Spans in a compact form for writing out: one list per span."""
    return [[s.name, s.start, s.end, s.parent, s.command, s.failed, s.counters] for s in spans]
