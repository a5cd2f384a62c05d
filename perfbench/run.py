#!/usr/bin/env python3
"""nctrace benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify_study --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; nctrace is imported from its
``src`` directory.  Each workload runs in fresh worker processes, one at a
time, with BLAS pinned to one thread.  With ``--trace 0`` the end-to-end
metrics are printed, with ``--trace 1`` the per-layer ones; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for what each workload measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("verify_study", "sim_io", "moi_path")
# extra fresh processes that only set up; with the measured worker they
# give the set-up samples whose median is setup_s
SETUP_SAMPLES = 4
# a run must end within 180 s
BUDGET_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "unit_p50_s": "s", "path_steps_per_s": "1/s",
              "peak_rss_mb": "MB"}


def machine(worker_env: dict) -> dict:
    """Core count, CPU model, cache sizes, the workers' BLAS thread
    variables and the git commit."""
    env = {"cores": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu"] = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else []:
        try:
            with open(os.path.join(cache, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache, index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            env[f"L{level}"] = size
    env.update({k: worker_env[k] for k in THREAD_ENV})
    env["commit"] = git_commit(ROOT)
    return env


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Worker:
    """A worker process whose ``ready`` line is timed from its start."""

    def __init__(self, argv, env, timeout):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.start()

    def wait_ready(self) -> tuple[float, float]:
        """Set-up seconds and the machine speed the worker measured then."""
        line = self.proc.stdout.readline()
        setup = time.perf_counter() - self.start
        if line.strip() != "ready":
            raise RuntimeError("worker failed during set-up")
        word, _, speed = self.proc.stdout.readline().partition(" ")
        if word != "speed":
            raise RuntimeError("worker printed no speed probe")
        return setup, float(speed)

    def finish(self) -> str:
        out = self.proc.stdout.read()
        self.proc.wait()
        self.timer.cancel()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out

    def stop(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_workers(args, env, workdir) -> tuple[list, dict]:
    """Set-up samples, then the measured worker; returns both results."""
    deadline = time.perf_counter() + BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--workdir", workdir, "--src", SRC]
    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        w = Worker(base + ["--setup-only"], env,
                   deadline - time.perf_counter())
        try:
            setups.append(w.wait_ready())
            w.finish()
        finally:
            w.stop()
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    w = Worker(base + ["--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--spans-out", spans],
               env, deadline - time.perf_counter())
    try:
        setups.append(w.wait_ready())
        lines = w.finish().strip().splitlines()
    finally:
        w.stop()
    if not lines:
        raise RuntimeError("worker printed no result")
    res = json.loads(lines[-1])
    raw = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                            f"-trace{args.trace}.json")
    with open(raw, "w") as fh:
        json.dump({"setups": setups, **res}, fh)
    return setups, res


def percentile_line(times) -> str:
    """Median plus the highest listed percentile with ten samples above."""
    n = len(times)
    text = f"median of {n} units"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(times, n=100, method="inclusive")[p - 1]
            return f"{text}; p{p} {q:.4f} s"
    return text


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nctrace", "__init__.py")):
        print(f"error: no nctrace sources under {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setups, res = run_workers(args, env, workdir)
    except (RuntimeError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps({**machine(env), **res["env"]}, sort_keys=True))
    attempted, failed = res["attempted"], len(res["failed"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} units, {res['ref_checked']} checked against "
          f"reference values, {res['nonfinite_zscores']} report z-scores "
          f"non-finite (shown, not failed)")
    for i, problems in res["failed"]:
        print(f"  unit {i} failed: {'; '.join(problems)}")

    if args.trace:
        layers = res["layers"]
        layers.setdefault("trace.overhead_frac", 0.0)
        metrics = {m: layers[m] for m in tracing.PER_LAYER}
        units = {m: tracing.unit_of(m) for m in metrics}
        unit_s = layers["trace.unit_s"]
        for m, v in metrics.items():
            share = (f"  ({v / unit_s:6.1%} of unit time)"
                     if units[m] == "s" and not m.startswith(("setup.",
                                                              "trace."))
                     and unit_s else "")
            print(f"  {m:38s} {v:14.6g} {units[m]}{share}")
        print(f"traced units: {layers['trace.units']}, {unit_s:.4g} s each "
              f"(wall seconds, as are the layer times), median machine "
              f"speed {res.get('trace_speed', float('nan')):.3f}")
        print(f"coverage: {1 - metrics['trace.unattributed_s'] / unit_s:.1%} "
              f"of traced unit time is inside layer spans; unattributed "
              f"{metrics['trace.unattributed_s']:.4g} s per unit; tracing "
              f"overhead {metrics['trace.overhead_frac']:+.1%} against the "
              f"interleaved untraced units")
    elif not res["units"]:
        print("error: no unit completed", file=sys.stderr)
        return 1
    else:
        ref_units = [t * speed for t, speed in res["units"]]
        unit_p50 = statistics.median(ref_units)
        # one probe per set-up is too short to follow the machine; the run's
        # median speed scales the median set-up instead
        speed = statistics.median(sp for _, sp in setups + res["units"])
        metrics = {
            "setup_s": statistics.median(t for t, _ in setups) * speed,
            "unit_p50_s": unit_p50,
            "path_steps_per_s": res["path_steps_per_unit"] / unit_p50,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        notes = {"setup_s": f"median of {len(setups)} fresh processes",
                 "unit_p50_s": percentile_line(ref_units),
                 "path_steps_per_s": f"{res['path_steps_per_unit']} "
                                     "path-steps per unit",
                 "peak_rss_mb": "getrusage of the measured worker"}
        for m, v in metrics.items():
            print(f"  {m:18s} {v:14.6g} {units[m]:4s} {notes[m]}")
        print(f"  {'failed_frac':18s} {failed / attempted:14.6g} "
              f"{'':4s} {failed} of {attempted} units failed a check")
        print("times above are reference seconds (wall seconds x machine "
              "speed); wall medians: setup "
              f"{statistics.median(t for t, _ in setups):.4g} s, unit "
              f"{statistics.median(t for t, _ in res['units']):.4g} s; "
              f"median machine speed {speed:.3f}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
