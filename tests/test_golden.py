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
