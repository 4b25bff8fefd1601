"""Tiny-size runs of every workload through the full parent/child path.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    report, env = run.measure(name, seed=2, seconds=0, trace=trace, work=tmp_path, iterations=40)
    assert report["failures"] == []
    assert report["attempted"] == (2 if trace else 1) and report["failed"] == 0
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: unit for k, (_, unit) in report["metrics"].items()
    }
    assert {"python", "numpy", "scipy", "nproc", "cpu", "calib_ms"} <= set(env)


def test_reference_comparison_flags_exact_and_float_changes():
    expected = {"exact": {"n": 3, "h": "ab"}, "approx": {"x": 1.0}}
    assert workloads.compare_reference(
        {"exact": {"n": 3, "h": "ab"}, "approx": {"x": 1.0 + 1e-12}}, expected) == []
    failures = workloads.compare_reference(
        {"exact": {"n": 4, "h": "ab"}, "approx": {"x": 1.0 + 1e-6}}, expected)
    assert len(failures) == 2


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bias_run", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
