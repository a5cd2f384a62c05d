"""The benchmark's three workloads.

Each workload is a sequence of equal-sized units.  ``inputs(seed, i)``
generates unit i's inputs from the run seed alone; ``steps`` are the timed
calls into nctrace's public entry points that make up a unit; ``check``
inspects the step outputs outside the timed region.  Functions are looked up
on their module at call time, so the tracer's wrappers see every call.
``setup`` warms up through the same entry points, on a tiny input at the
unit's n, so whatever nctrace builds lazily (the Hermitian basis, for one)
is counted in set-up only for as long as nctrace still builds it.

Why these three (see README.md for the layer table):

- ``verify_study``: the ``ito`` and ``qc`` CLI studies, the work that
  dominates the selftest.  Every numeric stage shares the time: simulation,
  evaluation, integration and the tr_n-L1 reduction.
- ``sim_io``: ``nctrace sim`` at n = 64 plus an NCP1 read.  The dense
  Hermitian basis (16 n^4 bytes = 268 MB) is past the caches, and nothing
  evaluates or reduces.
- ``moi_path``: the scalar-function Ito residual along one path, which
  isolates the multiple-operator-integral route in ``matrix_alg``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

from nctrace import cli, ito, matrix_alg, process_sim

# Reference values recorded at one commit are compared at this relative
# tolerance: loose enough for an ulp-level change in summation order.
REF_RTOL = 1e-9


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    ref_checked: bool = False
    nonfinite_zscores: int = 0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REF_RTOL * max(abs(a), abs(b))


def _run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _warm_up_cli(argv) -> None:
    """A set-up call of the CLI, which must succeed."""
    rc, _ = _run_cli(argv)
    if rc != 0:
        raise RuntimeError(f"set-up call {' '.join(argv)} exited with {rc}")


class Workload:
    def __init__(self, workdir: str):
        self.workdir = workdir

    def run(self, inp: dict) -> list:
        """One unit, untimed: the outputs of its steps."""
        return [step() for step in self.steps(inp)]


class VerifyStudy(Workload):
    """Unit: ``nctrace ito`` for each selftest polynomial, then ``nctrace qc``,
    all at n = 16, 8 paths and meshes 0.005, 0.0025, 0.00125."""

    name = "verify_study"
    n = 16
    paths = 8
    meshes = "0.005,0.0025,0.00125"
    polys = ("x1^2", "x1^4", "tr(x1^2) x1")
    path_steps = paths * (200 + 400 + 800) * (len(polys) + 1)

    def setup(self) -> None:
        _warm_up_cli(["ito", "--poly", self.polys[0], "--n", str(self.n),
                      "--paths", "1", "--meshes", "0.5,0.25,0.125",
                      "--seed", "0"])

    def inputs(self, seed: int, i: int) -> dict:
        u = seed + i
        common = ["--n", str(self.n), "--paths", str(self.paths),
                  "--meshes", self.meshes, "--seed", str(u)]
        argvs = [["ito", "--poly", p, *common] for p in self.polys]
        argvs.append(["qc", *common])
        return {"seed": u, "argvs": argvs}

    def steps(self, inp: dict) -> list:
        return [functools.partial(_run_cli, argv) for argv in inp["argvs"]]

    def reference(self, inp: dict, out: list):
        return [json.loads(text)[0]["residuals"] for _, text in out]

    def check(self, inp: dict, out: list, refs: dict) -> Verdict:
        v = Verdict()
        reports = []
        for argv, (rc, text) in zip(inp["argvs"], out):
            what = " ".join(argv[:3])
            if rc != 0:
                v.problems.append(f"{what}: exit code {rc}")
                continue
            # the standard parser accepts the Infinity z-score these
            # reports carry; it is counted, not failed
            rep = json.loads(text)[0]
            reports.append(rep)
            if rep.get("passed") is not True:
                v.problems.append(f"{what}: report not passed")
            if not all(math.isfinite(r) for r in rep["residuals"]):
                v.problems.append(f"{what}: non-finite residual")
            if not math.isfinite(rep["zscore"]):
                v.nonfinite_zscores += 1
        ref = refs.get(str(inp["seed"]))
        if ref is not None and len(reports) == len(ref):
            v.ref_checked = True
            for argv, rep, want in zip(inp["argvs"], reports, ref):
                got = rep["residuals"]
                if len(got) != len(want) or not all(
                        map(_close, got, want)):
                    v.problems.append(
                        f"{' '.join(argv[:3])}: residuals {got} differ "
                        f"from reference {want}")
        return v


class SimIO(Workload):
    """Unit: ``nctrace sim --n 64 --mesh 0.01 --paths 1``, then reading the
    NCP1 file back."""

    name = "sim_io"
    n = 64
    mesh = 0.01
    path_steps = 100

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.prefix = os.path.join(workdir, "unit")
        self.filename = self.prefix + "_0000.ncp1"

    def setup(self) -> None:
        _warm_up_cli(["sim", "--n", str(self.n), "--mesh", "0.5",
                      "--paths", "1", "--seed", "0",
                      "--out", os.path.join(self.workdir, "warm_up")])

    def inputs(self, seed: int, i: int) -> dict:
        u = seed + i
        return {"seed": u,
                "argv": ["sim", "--n", str(self.n), "--mesh", str(self.mesh),
                         "--paths", "1", "--seed", str(u),
                         "--out", self.prefix]}

    def steps(self, inp: dict) -> list:
        return [lambda: _run_cli(inp["argv"])[0],
                lambda: process_sim.load_ncp1(self.filename)]

    def _sha256(self) -> str:
        with open(self.filename, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def reference(self, inp: dict, out) -> str:
        return self._sha256()

    def check(self, inp: dict, out, refs: dict) -> Verdict:
        v = Verdict()
        rc, loaded = out
        if rc != 0:
            v.problems.append(f"sim: exit code {rc}")
        grid = process_sim.TimeGrid.from_mesh(1.0, self.mesh)
        expected = process_sim.simulate_hbm(
            self.n, grid, process_sim.RngStream(inp["seed"], 0))
        if loaded.values.tobytes() != expected.values.tobytes():
            v.problems.append("NCP1 values differ from the simulated path")
        if loaded.grid.times.tobytes() != grid.times.tobytes():
            v.problems.append("NCP1 times differ from the grid")
        ref = refs.get(str(inp["seed"]))
        if ref is not None:
            v.ref_checked = True
            if self._sha256() != ref:
                v.problems.append("NCP1 SHA-256 differs from reference")
        return v


class MoiPath(Workload):
    """Unit: ``functional_ito_residual`` of f = 1.0 e^{1.1 x} + 0.4 e^{-0.6 x}
    along one n = 8, 200-step Hermitian-BM path."""

    name = "moi_path"
    n = 8
    grid_steps = 200
    path_steps = 200
    # The residual of a 200-step path is about 2e-3 (0.0015 to 0.0024 over
    # the 300 recorded seeds); a broken Ito formula is of order 1.
    sup_limit = 0.05

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.f = None

    def setup(self) -> None:
        self.f = matrix_alg.ScalarFunctionSpec.exp_sum([(1.0, 1.1),
                                                        (0.4, -0.6)])
        self._residual(0, steps=2)

    def inputs(self, seed: int, i: int) -> dict:
        return {"seed": seed + i}

    def _residual(self, seed: int, steps: int = grid_steps) -> dict:
        grid = process_sim.TimeGrid.uniform(1.0, steps)
        path = process_sim.simulate_hbm(
            self.n, grid, process_sim.RngStream(seed, 0))
        return ito.functional_ito_residual(self.f, path)

    def steps(self, inp: dict) -> list:
        return [functools.partial(self._residual, inp["seed"])]

    def reference(self, inp: dict, out: list) -> float:
        return out[0]["sup_norm"]

    def check(self, inp: dict, out: list, refs: dict) -> Verdict:
        v = Verdict()
        sup = out[0]["sup_norm"]
        if not all(math.isfinite(r) for r in out[0]["per_time"]):
            v.problems.append("non-finite residual")
        elif not sup <= self.sup_limit:
            v.problems.append(f"sup_norm {sup} above {self.sup_limit}")
        ref = refs.get(str(inp["seed"]))
        if ref is not None:
            v.ref_checked = True
            if not _close(sup, ref):
                v.problems.append(f"sup_norm {sup} differs from reference "
                                  f"{ref}")
        return v


WORKLOADS = {w.name: w for w in (VerifyStudy, SimIO, MoiPath)}

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


def load_references(name: str) -> dict:
    """Reference outputs of one workload, keyed by unit seed."""
    with open(REFERENCES) as fh:
        return json.load(fh)["workloads"][name]
