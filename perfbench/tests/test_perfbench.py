"""Tests of the benchmark's own code: tracing arithmetic, wrapper hygiene,
seeded inputs and the output checks that feed failed units.

    python3 -m pytest perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import nctrace
import run
import tracing
import workloads
from nctrace import cli, ito, matrix_alg, process_sim, stoch_int


def _tracer(times):
    it = iter(times)
    return tracing.Tracer(clock=lambda: next(it))


def test_self_time_subtracts_direct_children():
    tr = _tracer([0, 1, 2, 5, 7, 8, 9, 10])
    with tr.root(0):
        a = tr.open("a")
        b = tr.open("b")
        tr.close(b)
        tr.close(a)
        c = tr.open("c")
        tr.close(c)
    # root [0, 10], a [1, 7] > b [2, 5], c [8, 9]
    assert tracing.self_times(tr.spans) == [3, 3, 3, 1]
    busy = tracing.busy_times(tr.spans, lambda u: u == 0)
    assert busy == {"unit": 10, "a": 6, "b": 3, "c": 1}


def test_busy_time_counts_nested_same_layer_once():
    tr = _tracer([0, 1, 2, 3, 4, 5])
    with tr.root(0):
        outer = tr.open("evaluator")
        inner = tr.open("evaluator")
        tr.close(inner)
        tr.close(outer)
    busy = tracing.busy_times(tr.spans, lambda u: u == 0)
    assert busy["evaluator"] == 3
    assert tracing.self_times(tr.spans)[1:] == [2, 1]


def _bindings():
    """Every (module, name) binding of a hooked function, with its value."""
    out = {}
    for modname, attr, _, _ in tracing.HOOKS:
        original = getattr(sys.modules[modname], attr)
        for m in tracing._nctrace_modules():
            for key, value in vars(m).items():
                if value is original:
                    out[(m.__name__, key)] = value
    for modname, attr, _, _ in tracing.NUMPY_HOOKS:
        out[(modname, attr)] = getattr(sys.modules[modname], attr)
    return out


def test_wrappers_cover_every_binding_and_are_restored():
    before = _bindings()
    # functions bound by ``from .x import f`` in several modules
    assert ("nctrace.ito", "rs_integral") in before
    assert ("nctrace.process_sim", "hermitian_onb_array") in before
    tr = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tr):
            for (modname, key), original in before.items():
                wrapped = getattr(sys.modules[modname], key)
                assert wrapped is not original
                assert wrapped.__wrapped__ is original
            raise RuntimeError("restore on error too")
    for (modname, key), original in before.items():
        assert getattr(sys.modules[modname], key) is original
    assert stoch_int.rs_integral is nctrace.rs_integral


def test_spans_and_counts_at_layer_boundaries():
    tr = tracing.Tracer()
    grid = process_sim.TimeGrid.uniform(1.0, 10)
    with tracing.installed(tr), tr.root(0):
        np.linalg.svd(np.eye(3))          # not under an nctrace span
        path = process_sim.simulate_hbm(2, grid, process_sim.RngStream(0, 0))
        ito.functional_ito_residual(
            matrix_alg.ScalarFunctionSpec.exp_sum([(1.0, 1.0)]), path)
    names = [s[0] for s in tr.spans]
    assert names[:3] == ["unit", "process_sim.simulate", "process_sim.onb"]
    assert names.count("reduction") == 10
    figs = tracing.layer_figures(tr, [0])
    assert figs["process_sim.simulate.path_steps"] == 10
    assert figs["process_sim.simulate.distinct_frac"] == 1.0
    assert figs["reduction.matrices"] == 10
    assert figs["matrix_alg.moi.calls"] == 20
    assert set(tracing.PER_LAYER) - set(figs) == {"trace.overhead_frac"}
    assert figs["trace.units"] == 1


def test_workload_names_match():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    a = workloads.WORKLOADS[name](str(tmp_path))
    b = workloads.WORKLOADS[name](str(tmp_path))
    assert a.inputs(7, 3) == b.inputs(7, 3)
    assert a.inputs(7, 3) != a.inputs(8, 3)
    assert a.inputs(7, 3) != a.inputs(7, 4)


def test_corrupted_ncp1_byte_fails_the_unit(tmp_path):
    wl = workloads.SimIO(str(tmp_path))
    wl.setup()
    inp = wl.inputs(0, 0)
    write, read = wl.steps(inp)
    rc = write()
    refs = workloads.load_references("sim_io")
    good = wl.check(inp, [rc, read()], refs)
    assert good.problems == [] and good.ref_checked
    with open(wl.filename, "r+b") as fh:
        fh.seek(-100, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-100, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 0x01]))
    bad = wl.check(inp, [rc, read()], {})
    assert any("values differ" in p for p in bad.problems)
    assert any("SHA-256" in p
               for p in wl.check(inp, [rc, read()], refs).problems)


def _verify_output(residual_lists):
    return [(0, json.dumps([{"passed": True, "residuals": r,
                             "zscore": math.inf}]))
            for r in residual_lists]


def test_perturbed_residual_fails_the_unit(tmp_path):
    wl = workloads.VerifyStudy(str(tmp_path))
    refs = workloads.load_references("verify_study")
    inp = wl.inputs(0, 0)
    ref = refs["0"]
    good = wl.check(inp, _verify_output(ref), refs)
    assert good.problems == [] and good.ref_checked
    assert good.nonfinite_zscores == len(ref)
    perturbed = [list(r) for r in ref]
    perturbed[1][2] *= 1 + 1e-6
    assert wl.check(inp, _verify_output(perturbed), refs).problems
    nan = [list(r) for r in ref]
    nan[0][0] = math.nan
    assert wl.check(inp, _verify_output(nan), {}).problems
    failed_exit = [(1, "")] + _verify_output(ref)[1:]
    assert wl.check(inp, failed_exit, {}).problems


def test_verify_unit_passes_its_reference(tmp_path):
    wl = workloads.VerifyStudy(str(tmp_path))
    wl.setup()
    inp = wl.inputs(0, 0)
    v = wl.check(inp, wl.run(inp), workloads.load_references(wl.name))
    assert v.problems == [] and v.ref_checked


def test_moi_unit_checks_sup_norm(tmp_path):
    wl = workloads.MoiPath(str(tmp_path))
    wl.setup()
    refs = workloads.load_references("moi_path")
    inp = wl.inputs(2, 1)
    out = wl.run(inp)
    v = wl.check(inp, out, refs)
    assert v.problems == [] and v.ref_checked
    out[0]["sup_norm"] *= 1 + 1e-6
    assert wl.check(inp, out, refs).problems


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moi_path",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_reaches_the_basis_through_the_cli(tmp_path):
    wl = workloads.VerifyStudy(str(tmp_path))
    matrix_alg._ONB_CACHE.pop(wl.n, None)
    tr = tracing.Tracer()
    with tracing.installed(tr), tr.root(tracing.SETUP):
        wl.setup()
    spans = tr.spans
    onb = next(s for s in spans if s[0] == "process_sim.onb")
    chain, p = [], onb[3]
    while p is not None:
        chain.append(spans[p][0])
        p = spans[p][3]
    assert chain[-2:] == ["cli", tracing.SETUP]
    assert tracing.layer_figures(tr, [])["setup.process_sim.onb.busy_s"] > 0
