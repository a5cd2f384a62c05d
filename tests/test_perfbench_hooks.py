"""The benchmark still runs on nctrace as it stands.

``perfbench --trace 1`` wraps the functions listed in
``perfbench/tracing.py``'s ``HOOKS`` by name; deleting or renaming one of
them in nctrace would break the traced run, so each name is resolved here.
Each workload of ``perfbench/workloads.py`` runs its set-up and its unit 0
and checks the outputs against ``perfbench/references.json``, as the
benchmark's worker does, so a change that the benchmark would refuse as
wrong output fails here first.  The files are loaded from their paths;
none of them is written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """``perfbench/<name>.py`` as a module (registered, as ``dataclass``
    needs its module in ``sys.modules``)."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _hooks():
    return _load("tracing").HOOKS


@pytest.mark.parametrize("modname, attr",
                         [(mod, attr) for mod, attr, _, _ in _hooks()],
                         ids=lambda v: v)
def test_hooked_function_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_workload_unit_matches_its_reference(tmp_path, name):
    workloads = _load("workloads")
    wl = workloads.WORKLOADS[name](str(tmp_path))
    wl.setup()
    inp = wl.inputs(0, 0)
    verdict = wl.check(inp, wl.run(inp), workloads.load_references(name))
    assert verdict.problems == []
    assert verdict.ref_checked
