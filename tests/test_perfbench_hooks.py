"""The benchmark's tracer still finds every nctrace function it hooks.

``perfbench --trace 1`` wraps the functions listed in
``perfbench/tracing.py``'s ``HOOKS`` by name; deleting or renaming one of
them in nctrace would break the traced run, so each name is resolved here.
The file is loaded from its path and nothing in it is run beyond its
module body.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("modname, attr",
                         [(mod, attr) for mod, attr, _, _ in _hooks()],
                         ids=lambda v: v)
def test_hooked_function_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))
