"""One workload in a fresh process; started by run.py, not by hand.

Prints ``ready`` once set-up is done (the parent times that line) and then
the machine speed, runs units for the given seconds and prints one JSON line
with each unit's seconds and machine speed, the failed units and, in trace
mode, the per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

import numpy as np

MIN_UNITS = 3
# Seconds the speed probe takes on the reference machine (Intel Xeon,
# 2 vCPUs, see README.md); wall seconds times the speed are reference seconds.
PROBE_REF_S = 0.004


def speed_probe() -> float:
    """Machine speed relative to the reference machine, now.

    On a shared host the same unit ran up to 1.8x slower for seconds to
    minutes at a time; a fixed small numpy-and-Python kernel slows down with
    it, so wall seconds times this speed stay put while wall seconds do not.
    """
    a = np.random.default_rng(0).standard_normal((32, 32))
    t = time.perf_counter()
    b = a
    for _ in range(100):
        b = np.tanh(b @ a * 0.03) + 0.1
    total = 0
    for k in range(50000):
        total += k
    return PROBE_REF_S / (time.perf_counter() - t)


def run_unit(wl, inp, tracer, unit):
    """Time a unit's steps, probing the machine speed around each step.

    Returns the step outputs, the wall seconds and the time-weighted speed.
    Traced units get one root span per step, so the probes stay outside.
    """
    outputs, wall, ref = [], 0.0, 0.0
    before = speed_probe()
    for step in wl.steps(inp):
        with (tracer.root(unit) if tracer else nullcontext()):
            t0 = time.perf_counter()
            outputs.append(step())
            dt = time.perf_counter() - t0
        after = speed_probe()
        wall += dt
        ref += dt * (before + after) / 2
        before = after
    return outputs, wall, ref / wall


def _environment() -> dict:
    import scipy

    import nctrace

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nctrace": nctrace.__version__,
    }


def _ref_median(timed) -> float:
    """Median of (wall seconds, speed) pairs in reference seconds."""
    return statistics.median(t * speed for t, speed in timed)


def _import_nctrace(src: str) -> None:
    import nctrace

    if not os.path.abspath(nctrace.__file__).startswith(src + os.sep):
        sys.exit(f"nctrace was imported from {nctrace.__file__}, not {src}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--spans-out")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # set-up: import, then the workload's lazy work (parsing, the basis)
    _import_nctrace(args.src)
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.workdir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracing.installed(tracer), tracer.root(tracing.SETUP):
            wl.setup()
    else:
        wl.setup()
    print("ready", flush=True)
    print(f"speed {speed_probe()!r}", flush=True)
    if args.setup_only:
        return 0

    refs = workloads.load_references(args.workload)
    plain, traced, failed = [], [], []
    ref_checked = nonfinite = 0
    i = 0
    last = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if i >= MIN_UNITS * (1 + args.trace) and elapsed + last > args.seconds:
            break
        unit_start = time.perf_counter()
        inp = wl.inputs(args.seed, i)
        # in trace mode, odd units are traced and even ones are not, so the
        # difference gives the tracing overhead
        trace_this = tracer is not None and i % 2 == 1
        gc.collect()
        try:
            with (tracing.installed(tracer) if trace_this else nullcontext()):
                out, wall, speed = run_unit(
                    wl, inp, tracer if trace_this else None, i)
            verdict = wl.check(inp, out, refs)
        except Exception:
            traceback.print_exc()
            failed.append([i, ["exception: see stderr"]])
        else:
            (traced if trace_this else plain).append((wall, speed))
            ref_checked += verdict.ref_checked
            nonfinite += verdict.nonfinite_zscores
            if verdict.problems:
                failed.append([i, verdict.problems])
                print(f"unit {i} failed: {verdict.problems}", file=sys.stderr)
        last = time.perf_counter() - unit_start
        i += 1

    result = {
        "attempted": i,
        "failed": failed,
        "units": plain,
        "traced_units": traced,
        "ref_checked": ref_checked,
        "nonfinite_zscores": nonfinite,
        "path_steps_per_unit": wl.path_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "env": _environment(),
    }
    if tracer is not None:
        traced_ids = [k for k in range(i) if k % 2 == 1]
        layers = tracing.layer_figures(tracer, traced_ids)
        if plain and traced:
            # against the untraced units of this run, not the --trace 0 run
            layers["trace.overhead_frac"] = (
                _ref_median(traced) / _ref_median(plain) - 1)
            result["trace_speed"] = statistics.median(sp for _, sp in traced)
        result["layers"] = layers
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent",
                                      "unit"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
