"""Run the tests against a fixed table of one-line mutants of the step rules, the run loop and the logistic memo.

    python3 tools/mutants.py

Run from any directory; it writes nothing in the checkout.  For each mutant
it copies what the tests read (:data:`COPIED`) to a temporary directory,
replaces the mutant's line there and runs

    python -m pytest -q -x -p no:cacheprovider --ignore=tests/test_golden.py

in the copy: the tests without ``tests/golden.json``, which the engine
itself wrote.  A mutant's run also leaves out ``tests/test_mutants.py``,
which fails on any applied mutant by design.  It prints whether the mutant
was caught, with the first failing id.  The unchanged copy runs first, so a
failure of the copy itself is not read as a catch.  The exit status is 0 when every mutant is caught,
1 when one survives, and 2 when the unchanged copy fails.  Each run takes
about as long as the suite (some 40 s).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
#: the package, the tests and what they read: the bench and its contract, the tools,
#: the shipped configs and the README
COPIED = ("src", "tests", "bench", "tools", "configs", "pyproject.toml", "BENCHMARK.json", "README.md")
PYTEST = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--ignore=tests/test_golden.py")
#: it checks that each mutant's original line is in the source
IGNORE_MUTATED = "--ignore=tests/test_mutants.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root
    original: str  # a whole line, found exactly once in the file
    mutated: str


OPTIMIZERS, SIMULATION = "src/stalegrad/optimizers.py", "src/stalegrad/simulation.py"
OBJECTIVES = "src/stalegrad/objectives.py"
MUTANTS = (
    Mutant(
        "naive_momentum with β and 1−β swapped",
        OPTIMIZERS,
        "        momentum = params.beta * g + (1.0 - params.beta) * state.buffer",
        "        momentum = (1.0 - params.beta) * g + params.beta * state.buffer",
    ),
    Mutant(
        "naive_mu2's query average with γ and 1−γ swapped",
        OPTIMIZERS,
        "        query = gamma * descent + (1.0 - gamma) * state.query",
        "        query = (1.0 - gamma) * descent + gamma * state.query",
    ),
    Mutant(
        "delay_filtered with > as >=",
        OPTIMIZERS,
        "        if tau > params.tau_filter:",
        "        if tau >= params.tau_filter:",
    ),
    Mutant(
        "naive_mu2's correction with β and 1−β swapped",
        OPTIMIZERS,
        "        correction = g + (1.0 - params.beta) * (state.buffer - g_prev)",
        "        correction = g + params.beta * (state.buffer - g_prev)",
    ),
    Mutant(
        "the delay-adaptive step at τ + 1",
        OPTIMIZERS,
        "        eta = delay_adaptive_step_size(params.adaptive, tau)",
        "        eta = delay_adaptive_step_size(params.adaptive, tau + 1)",
    ),
    Mutant(
        "ordered_mu2's increment with k − 1 as k",
        OPTIMIZERS,
        "        increment = increment - float(k - 1) * g_prev",
        "        increment = increment - float(k) * g_prev",
    ),
    Mutant(
        "the paired gradient taken at the new point",
        SIMULATION,
        "            g, g_prev = oracle_pair(x, x_prev, comp, rng)",
        "            g, g_prev = oracle_pair(x, x, comp, rng)",
    ),
    Mutant(
        "the logistic memo keyed on the point's first entry only",
        OBJECTIVES,
        "        key = x.tobytes()",
        "        key = x[:1].tobytes()",
    ),
)


def occurrences(mutant: Mutant, source: str) -> int:
    """How many lines of ``source`` are the mutant's original line."""
    return source.splitlines().count(mutant.original)


def apply(mutant: Mutant, source: str) -> str:
    """``source`` with the mutant's line replaced; refused unless the line occurs exactly once."""
    if occurrences(mutant, source) != 1:
        raise ValueError(f"{mutant.path}: the line of {mutant.name!r} does not occur exactly once")
    lines = source.split("\n")
    lines[lines.index(mutant.original)] = mutant.mutated
    return "\n".join(lines)


def run_tests(mutant: Mutant | None) -> tuple[int, str | None]:
    """pytest's exit code on a fresh copy with ``mutant`` applied (``None``: unchanged),
    and the first failing id."""
    with tempfile.TemporaryDirectory(prefix="stalegrad-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
                shutil.copytree(ROOT / name, copy / name, ignore=ignore)
            else:
                shutil.copy2(ROOT / name, copy / name)
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(apply(mutant, target.read_text(encoding="utf-8")), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        command = [sys.executable, *PYTEST] + ([] if mutant is None else [IGNORE_MUTATED])
        result = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    # pytest's summary lines read "FAILED <id> - <message>"
    lines = result.stdout.splitlines()
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return result.returncode, failed[0] if failed else None


def main() -> int:
    code, first = run_tests(None)
    if code != 0:
        print(f"the unchanged copy fails (pytest exit {code}): {first}")
        return 2
    survivors = 0
    for mutant in MUTANTS:
        code, first = run_tests(mutant)
        caught = code != 0
        survivors += not caught
        by = f" by {first or f'pytest exit {code}'}" if caught else ""
        print(f"{'caught' if caught else 'SURVIVED'}: {mutant.name}{by}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
