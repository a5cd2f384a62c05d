"""In-memory span tracer and the wrappers that time calls into nctrace's layers.

Spans are recorded from the benchmark's own files: nothing inside nctrace
changes.  nctrace modules bind each other's functions with
``from .x import f``, so a function is wrapped at every nctrace module that
binds it, and every binding is restored when the traced block ends.

A span is a row ``[name, start, end, parent, unit]``.  Layers are named
after the modules; a layer's busy time is the time its outermost spans
cover, and a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SETUP = "setup"


class Tracer:
    """Spans kept in memory plus counts and distinct keys per unit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit = None
        self.counts: dict = defaultdict(float)
        self.keys: dict = defaultdict(set)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.unit])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    @contextmanager
    def root(self, unit):
        """Root span of one unit (or of set-up); layer spans nest in it."""
        self.unit = unit
        idx = self.open("unit" if unit != SETUP else SETUP)
        try:
            yield
        finally:
            self.close(idx)
            self.unit = None

    def in_layer(self) -> bool:
        """True while some layer span is open under the root."""
        return len(self.stack) > 1

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(self.unit, key)] += value

    def add_key(self, key: str, item) -> None:
        self.keys[(self.unit, key)].add(item)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def busy_times(spans, select) -> dict:
    """Time covered per span name, counting only a name's outermost spans,
    over the spans whose unit passes ``select``."""
    out: dict = defaultdict(float)
    for name, start, end, parent, unit in spans:
        if not select(unit):
            continue
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            out[name] += end - start
    return out


# -- counts recorded at the layer boundaries -------------------------------


def _matrices(shape) -> int:
    return math.prod(shape[:-2])


def _eval_counts(tracer, args, result):
    tracer.count("evaluator.terms", len(args[0].terms))
    tracer.count("evaluator.out_matrices", _matrices(result.shape))


def _sim_counts(tracer, args, result):
    steps = result.values.shape[0] - 1
    tracer.count("process_sim.simulate.path_steps", steps)
    tracer.add_key("process_sim.simulate", (result.seed_info, steps))


def _file_mb(arg_index, key):
    def counter(tracer, args, result):
        tracer.count(key, os.path.getsize(args[arg_index]) / 1e6)
    return counter


def _reduction_counts(tracer, args, result):
    tracer.count("reduction.matrices", _matrices(args[0].shape))


_REPORT_FUNCTIONS = ("make_report", "to_json", "write_json", "to_csv",
                     "write_csv", "fit_loglog_slope")

# (module, function, span name, counter); every binding of the function in
# an nctrace module is wrapped.
HOOKS = [
    ("nctrace.cli", "main", "cli", None),
    ("nctrace.parsing", "parse", "parsing", None),
    ("nctrace.trace_poly", "derive_k", "trace_poly", None),
    ("nctrace.trace_poly", "gamma_contract", "trace_poly", None),
    ("nctrace.evaluator", "eval_poly", "evaluator", _eval_counts),
    ("nctrace.evaluator", "eval_multilinear", "evaluator", _eval_counts),
    ("nctrace.stoch_int", "rs_integral", "stoch_int.rs_integral", None),
    ("nctrace.stoch_int", "quad_rs_path", "stoch_int.quad_rs_path", None),
    ("nctrace.ito", "ito_residual_path", "ito.residual_path", None),
    ("nctrace.ito", "functional_ito_residual", "ito.functional", None),
    ("nctrace.process_sim", "simulate_hbm", "process_sim.simulate",
     _sim_counts),
    ("nctrace.matrix_alg", "hermitian_onb_array", "process_sim.onb", None),
    ("nctrace.process_sim", "save_ncp1", "process_sim.ncp1_write",
     _file_mb(1, "process_sim.ncp1_write.mb")),
    ("nctrace.process_sim", "load_ncp1", "process_sim.ncp1_read",
     _file_mb(0, "process_sim.ncp1_read.mb")),
    ("nctrace.matrix_alg", "moi", "matrix_alg.moi", None),
    ("nctrace.matrix_alg", "divided_diff_grid", "matrix_alg.divided_diff_grid",
     None),
    ("nctrace.matrix_alg", "spectral_data", "matrix_alg.spectral_data", None),
    ("nctrace.matrix_alg", "op_function", "matrix_alg.op_function", None),
] + [("nctrace.reports", f, "reports", None) for f in _REPORT_FUNCTIONS]

# numpy reductions count only while an nctrace layer span is open.
NUMPY_HOOKS = [
    ("numpy.linalg", "svd", "reduction", _reduction_counts),
    ("numpy.linalg", "eigvalsh", "reduction", _reduction_counts),
]


def _wrap(tracer, fn, name, counter, only_in_layer=False):
    def wrapper(*args, **kwargs):
        if only_in_layer and not tracer.in_layer():
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.count(name + ".calls")
        if counter is not None:
            counter(tracer, args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _nctrace_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "nctrace" or key.startswith("nctrace."))]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every hooked function at each place it is bound, then restore."""
    patched = []
    try:
        for modname, attr, name, counter in HOOKS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = _wrap(tracer, original, name, counter)
            for module in _nctrace_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        for modname, attr, name, counter in NUMPY_HOOKS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            setattr(module, attr,
                    _wrap(tracer, original, name, counter, only_in_layer=True))
            patched.append((module, attr, original))
        yield
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


# -- per-layer figures ------------------------------------------------------

# Every figure below is per traced unit, except ``setup.process_sim.onb``
# (the traced set-up, once).
PER_LAYER = (
    "reduction.busy_s", "reduction.matrices",
    "evaluator.busy_s", "evaluator.calls", "evaluator.terms",
    "evaluator.out_matrices",
    "stoch_int.rs_integral.self_s", "stoch_int.quad_rs_path.self_s",
    "ito.residual_path.self_s",
    "process_sim.simulate.busy_s", "process_sim.simulate.path_steps",
    "process_sim.simulate.distinct_frac",
    "process_sim.onb.busy_s",
    "process_sim.ncp1_write.busy_s", "process_sim.ncp1_write.mb",
    "process_sim.ncp1_read.busy_s", "process_sim.ncp1_read.mb",
    "matrix_alg.moi.busy_s", "matrix_alg.moi.calls",
    "matrix_alg.divided_diff_grid.busy_s",
    "matrix_alg.spectral_data.busy_s", "matrix_alg.spectral_data.calls",
    "matrix_alg.op_function.busy_s",
    "ito.functional.self_s",
    "trace_poly.busy_s", "parsing.busy_s", "reports.busy_s", "cli.self_s",
    "setup.process_sim.onb.busy_s",
    "trace.unattributed_s", "trace.overhead_frac",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "fraction"
    return "count"


def layer_figures(tracer: Tracer, units) -> dict:
    """Per-layer figures over the traced ``units`` and the traced set-up,
    plus the diagnostics ``trace.unit_s`` (mean traced unit) and
    ``trace.units``.

    ``trace.overhead_frac`` needs the untraced unit timings and is left to
    the caller.
    """
    units = set(units)
    n = max(len(units), 1)
    spans = tracer.spans
    busy = busy_times(spans, lambda u: u in units)
    setup_busy = busy_times(spans, lambda u: u == SETUP)
    own: dict = defaultdict(float)
    for (name, _, _, _, unit), t in zip(spans, self_times(spans)):
        if unit in units:
            own[name] += t

    def total(key):
        return sum(tracer.counts[(u, key)] for u in units)

    sim_calls = total("process_sim.simulate.calls")
    distinct = sum(len(tracer.keys[(u, "process_sim.simulate")])
                   for u in units)
    out = {}
    for metric in PER_LAYER:
        if metric.startswith("setup."):
            out[metric] = setup_busy[metric[len("setup."):-len(".busy_s")]]
        elif metric.endswith(".busy_s"):
            out[metric] = busy[metric[:-len(".busy_s")]] / n
        elif metric.endswith(".self_s"):
            out[metric] = own[metric[:-len(".self_s")]] / n
        elif not metric.startswith("trace.") and metric != (
                "process_sim.simulate.distinct_frac"):
            out[metric] = total(metric) / n
    out["process_sim.simulate.distinct_frac"] = (
        distinct / sim_calls if sim_calls else 0.0)
    out["trace.unattributed_s"] = own["unit"] / n
    out["trace.unit_s"] = busy["unit"] / n
    out["trace.units"] = len(units)
    return out
