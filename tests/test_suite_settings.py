"""The repository's pytest settings: one failing test fails alone and the session goes on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SUITE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    """hypothesis's failure report imports modules that warn on import; under
    ``filterwarnings = ["error"]`` such a warning would end the session there."""
    (tmp_path / "test_two.py").write_text(_SUITE)
    argv = ["-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    done = subprocess.run(
        [sys.executable, *argv, "-q", "test_two.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
