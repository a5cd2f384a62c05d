"""The public API: ``nctrace.__all__`` lists each export once, the
package's version is the one ``pyproject.toml`` declares, and numpy is its
only runtime dependency."""

import collections
from pathlib import Path

import pytest

import nctrace


def test_every_export_resolves_and_is_listed_once():
    counts = collections.Counter(nctrace.__all__)
    assert [name for name, k in counts.items() if k > 1] == []
    missing = [name for name in nctrace.__all__
               if not hasattr(nctrace, name)]
    assert missing == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert nctrace.__version__ == declared


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
