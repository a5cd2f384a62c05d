"""Run the mutation list: every mutant of ``mutants.json`` must fail its tests.

A mutant is a name, a file, an exact old text, the new text that replaces
it, and the ids of the tests that must fail with it in place.  The runner
copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary directory,
applies one mutant at a time there, runs its tests with pytest, and prints
``killed`` when every listed test failed, or ``survived`` and the listed
tests that did not fail.  It exits 1 if any mutant survived.

It is not part of Tier-1 (a run takes minutes); Tier-1 only checks that
each old text occurs exactly once in its file (``test_mutants.py``).

    python tests/run_mutants.py [name ...]
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def _failed(report: Path) -> set[str]:
    """The ids of the tests that failed or errored in a JUnit XML report."""
    if not report.exists():
        return set()
    return {case.get("classname").replace(".", "/") + ".py::" + case.get("name")
            for case in ET.parse(report).iter("testcase")
            if any(child.tag in ("failure", "error") for child in case)}


def run(mutant: dict, tree: Path) -> list[str]:
    """The listed tests that do not fail with ``mutant`` applied in
    ``tree``, which is left as it was."""
    path = tree / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        raise SystemExit(f"{mutant['name']}: the old text does not occur "
                         f"exactly once in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]))
    report = tree / "report.xml"
    report.unlink(missing_ok=True)
    try:
        # no bytecode: a restored file of the mutant's size and second
        # would otherwise be read from the mutant's cache
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--junitxml={report}", *mutant["tests"]],
            cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=str(tree / "src"),
                     PYTHONDONTWRITEBYTECODE="1"))
    finally:
        path.write_text(text)
    failed = _failed(report)
    return [t for t in mutant["tests"] if t not in failed]


def main(names: list[str]) -> int:
    mutants = json.loads((TESTS / "mutants.json").read_text())
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(sorted(unknown))}")
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        for mutant in mutants:
            if names and mutant["name"] not in names:
                continue
            alive = run(mutant, tree)
            survivors += bool(alive)
            print(f"{mutant['name']}: "
                  + (f"survived ({', '.join(alive)})" if alive else "killed"),
                  flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
