"""Outputs pinned against ``golden.json`` (written by ``make_golden.py``).

In the environment that wrote the file the trace CSV must match byte for
byte.  Elsewhere numpy, BLAS or the CPU may round differently, so the
integer schedule must still match exactly and the float checksums and the
final iterate within ``REL_TOL``.  Perturbing x_init by 1e-13 moves them by
at most 3e-11 relative, so ``REL_TOL`` leaves room for rounding drift while
still catching any change of the numbers.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import make_golden

REL_TOL = 1e-9

GOLDEN = json.loads(make_golden.GOLDEN_PATH.read_text())
SAME_ENVIRONMENT = GOLDEN["stamp"] == make_golden.environment_stamp()
BATTERY = make_golden.battery()


def test_battery_matches_the_recorded_one():
    assert sorted(BATTERY) == sorted(GOLDEN["runs"])
    assert GOLDEN["iterations"] == make_golden.ITERATIONS
    assert GOLDEN["seed"] == make_golden.SEED


@pytest.mark.parametrize("key", sorted(GOLDEN["runs"]))
def test_run_matches_golden(key):
    expected = GOLDEN["runs"][key]
    actual = make_golden.record(BATTERY[key])
    assert actual["schedule_sha256"] == expected["schedule_sha256"]
    for name in ("loss_fsum", "grad_norm_fsum"):
        assert math.isclose(actual[name], expected[name], rel_tol=REL_TOL), name
    assert len(actual["final_iterate"]) == len(expected["final_iterate"])
    for a, b in zip(actual["final_iterate"], expected["final_iterate"]):
        assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    if SAME_ENVIRONMENT:
        assert actual == expected


def test_stamp_tells_openblas_kernels_apart():
    """Forcing another OpenBLAS kernel set changes the rounding, so it must change the stamp."""
    stamp = make_golden.environment_stamp()
    if stamp["blas_core"] in (None, "Haswell"):
        pytest.skip(f"needs scipy-openblas on a core other than Haswell, have {stamp['blas_core']}")
    tests_dir = Path(__file__).parent
    path = [str(tests_dir), str(tests_dir.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(path))
    probe = "import json, make_golden; print(json.dumps(make_golden.environment_stamp()))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    forced = json.loads(result.stdout)
    assert forced["blas_core"] == "Haswell"
    assert forced != stamp


def test_drift_report_flags_a_moved_schedule(capsys):
    """``make_golden`` prints the worst drift and names the runs whose schedule moved."""
    old = {
        "a": {"trace_sha256": "t", "schedule_sha256": "s", "loss_fsum": 2.0,
              "grad_norm_fsum": 1.0, "final_iterate": [1.0, 4.0]},
        "b": {"trace_sha256": "t", "schedule_sha256": "s", "loss_fsum": 1.0,
              "grad_norm_fsum": 1.0, "final_iterate": [1.0]},
    }
    new = {
        "a": dict(old["a"], trace_sha256="u", loss_fsum=2.5, final_iterate=[1.0, 5.0]),
        "b": dict(old["b"], schedule_sha256="r"),
    }
    assert make_golden.report_drift(old, old) == []
    capsys.readouterr()
    assert make_golden.report_drift(old, new) == ["b"]
    assert capsys.readouterr().out.splitlines() == [
        "1 of 2 shared runs changed their trace bytes",
        "worst relative change of loss_fsum: 0.25",
        "worst relative change of grad_norm_fsum: 0",
        "worst relative change of final_iterate: 0.25",
    ]
