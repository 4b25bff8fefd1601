"""``tools/mutants.py``: its table of one-line mutants stays applicable (the mutants are not run here)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_line_occurs_exactly_once(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert mutants.occurrences(mutant, source) == 1
    assert mutants.apply(mutant, source).splitlines().count(mutant.mutated) == 1
