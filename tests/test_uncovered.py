"""``tools/uncovered.py``: the statements a pytest run never executes."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_uncovered_lists_the_statements_a_test_module_never_runs():
    command = [sys.executable, "tools/uncovered.py", "-q", "-p", "no:cacheprovider", "tests/test_delays.py"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout[-3000:]
    listed = [line for line in result.stdout.splitlines() if line.startswith("src/")]
    by_file: dict[str, list[str]] = {}
    for line in listed:
        path, number, code = re.fullmatch(r"(src/stalegrad/\w+\.py):(\d+): (.+)", line).groups()
        assert (ROOT / path).read_text(encoding="utf-8").splitlines()[int(number) - 1].strip() == code
        by_file.setdefault(path, []).append(code)
    assert "src/stalegrad/delays.py" not in by_file  # the module under test runs every statement
    # errors.py is imported, but test_delays raises neither error that stores its context
    assert by_file["src/stalegrad/errors.py"] and all(
        code.startswith(("self.", "super().__init__(")) for code in by_file["src/stalegrad/errors.py"]
    )
    # cli.py is never imported: its first statement and its last are listed
    assert by_file["src/stalegrad/cli.py"][0] == "from __future__ import annotations"
    assert by_file["src/stalegrad/cli.py"][-1] == "sys.exit(main())"
