"""The mutation list cannot rot silently.

``mutants.json`` lists mutants of the source, each a name, a file, an
exact old text, a new text and the ids of the tests that must fail with
it; ``run_mutants.py`` runs them, outside Tier-1.  Here each old text must
occur exactly once in its file, and each listed test must exist.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


def test_mutant_names_are_distinct():
    names = [m["name"] for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["name"])
def test_mutant_old_text_occurs_once_and_its_tests_exist(mutant):
    text = (ROOT / mutant["file"]).read_text()
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    assert mutant["tests"]
    for test in mutant["tests"]:
        file, name = test.split("::")
        func = re.match(r"\w+", name).group()
        assert re.search(rf"^def {func}\(", (ROOT / file).read_text(), re.M), \
            test
