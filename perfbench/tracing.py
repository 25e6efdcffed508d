"""Outside-in tracing of msrom: timing wrappers around its public functions.

``Tracer.installed()`` replaces every public msrom function with a wrapper
that records a span, in the defining module and in every msrom module (and
the package namespace) that imported it by name, so calls between modules
are seen too.  ``numpy.linalg.svd`` and ``lstsq`` are wrapped to count calls,
each attributed to the innermost open span.  Everything is restored on exit,
also when the traced code raises.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter

import numpy as np

import msrom

LAYERS = ("cli", "problems", "spaces", "spectral", "bounds", "solvers")
COUNTED = ("svd", "lstsq")

# span name -> per-layer metric that sums the span's self time
SELF_TIME = {
    "spaces.complement_frame": "spaces.complement_frame_s",
    "spectral.gamma": "spectral.gamma_s",
    "spaces.orthonormalize": "spaces.orthonormalize_s",
    "problems.example1": "problems.build_s",
    "problems.example2": "problems.build_s",
    "problems.synth_prescribed": "problems.build_s",
    "problems.rhs_vector": "problems.rhs_s",
    "problems.evaluate_b": "problems.rhs_s",
    "solvers.project_slices": "solvers.project_slices_s",
    "solvers.solve_ms": "solvers.solve_ms_s",
    "solvers.solve_pg": "solvers.solve_pg_s",
    "spectral.decompose": "spectral.decompose_s",
    "spectral.deltas": "spectral.deltas_s",
    "bounds.ms_bound": "bounds.ms_bound_s",
    "cli.run_experiment": "cli.self_s",
    "cli.run_instance": "cli.self_s",
}
# span name -> per-layer metric that counts the span's calls
CALLS = {
    "spaces.orthonormalize": "spaces.orthonormalize_calls",
    "problems.rhs_vector": "problems.rhs_calls",
    "solvers.project_slices": "solvers.project_slices_calls",
    "spectral.gram_matrix": "spectral.gram_calls",
    "problems.riesz_representers": "problems.riesz_calls",
}
# (layer of the innermost span, numpy function) -> per-layer metric
NUMPY_CALLS = {
    ("spectral", "svd"): "spectral.svd_calls",
    ("solvers", "svd"): "solvers.svd_calls",
    ("solvers", "lstsq"): "solvers.lstsq_calls",
}


def public_functions() -> dict:
    """Map each public msrom function to its span name ``<layer>.<name>``."""
    out = {}
    for name in msrom.__all__:
        obj = getattr(msrom, name)
        if inspect.isfunction(obj):
            out[obj] = f"{obj.__module__.rsplit('.', 1)[1]}.{name}"
    return out


def _namespaces():
    return [msrom] + [importlib.import_module(f"msrom.{layer}") for layer in LAYERS]


class Tracer:
    """Spans and numpy call counts of the msrom calls made while installed.

    A span is ``[name, start, end, parent index, instance id]``; spans nest,
    because the traced code runs in one thread.  Set ``instance`` before each
    request so its spans share an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.numpy_calls: Counter = Counter()  # (span name, numpy function)
        self.instance = None
        self._stack: list[int] = []

    def _span(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _counter(self, fn, kind):
        spans, stack, counts = self.spans, self._stack, self.numpy_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(spans[stack[-1]][0] if stack else None, kind)] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        wrappers = {fn: self._span(fn, name) for fn, name in public_functions().items()}
        saved = []
        for module in _namespaces():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    saved.append((module, attr, value))
        for kind in COUNTED:
            saved.append((np.linalg, kind, getattr(np.linalg, kind)))
        try:
            for module, attr, value in saved:
                if module is np.linalg:
                    setattr(module, attr, self._counter(value, attr))
                else:
                    setattr(module, attr, wrappers[value])
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, instances: int) -> dict:
        """Per-instance self times and call counts, keyed by metric name."""
        names = set(SELF_TIME.values()) | set(CALLS.values()) | set(NUMPY_CALLS.values())
        totals = dict.fromkeys(names, 0.0)
        solve_of: dict = {}
        per_solve: Counter = Counter()
        for index, ((name, _, _, parent, _), own) in enumerate(zip(self.spans, self.self_times())):
            if name in SELF_TIME:
                totals[SELF_TIME[name]] += own
            if name in CALLS:
                totals[CALLS[name]] += 1
            # spans come in start order, so a parent's solve is already known
            solve_of[index] = index if name == "solvers.solve_ms" else solve_of.get(parent)
            if name == "solvers.project_slices" and solve_of[index] is not None:
                per_solve[solve_of[index]] += 1
        for (span_name, kind), count in self.numpy_calls.items():
            layer = span_name.split(".", 1)[0] if span_name else None
            if (layer, kind) in NUMPY_CALLS:
                totals[NUMPY_CALLS[(layer, kind)]] += count
        out = {name: value / instances for name, value in totals.items()}
        out["solvers.project_slices_calls_max"] = max(per_solve.values(), default=0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, instance in self.spans:
                handle.write(json.dumps([name, start, end, parent, instance]) + "\n")
