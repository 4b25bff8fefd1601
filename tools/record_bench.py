"""Record one benchmark set, stamped with its environment, in a BENCH_<n>.json file.

    python3 tools/record_bench.py BENCH_1.json

Run from the repository root.  It runs one set of ``bench/prove.py``: every
workload of BENCHMARK.json at seeds 0-9, ``run_seconds`` each (about 16
minutes in all), then one traced run per workload at seed 0 for the
per-layer numbers.  The file holds the ``env`` line of ``bench/run.py``, the
OpenBLAS kernel set (``OPENBLAS_CORETYPE`` overrides it), the commit, and per
workload each end-to-end metric's median, spread and raw values and the
per-layer numbers at seed 0.  Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests"), str(ROOT / "src")]

import prove  # noqa: E402
from make_golden import blas_core  # noqa: E402


def commit() -> str | None:
    """The checked-out commit, with ``-dirty`` when the tree differs from it."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(contract: dict) -> dict:
    summary = prove.run_set(contract, 0)
    seconds = contract["run_seconds"]
    traced = {workload: prove.run_once(workload, 0, seconds, 1) for workload in summary}
    return {
        "env": next(iter(traced.values()))["env"],
        "openblas_core": blas_core(),
        "commit": commit(),
        "seeds": list(prove.SEEDS),
        "run_seconds": seconds,
        "workloads": {
            workload: {
                "correct": runs["correct"] and traced[workload]["correct"],
                "calib_ms": runs["calib_ms"],
                "end_to_end": runs["metrics"],
                "per_layer_seed0": traced[workload]["metrics"],
            }
            for workload, runs in summary.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path, help="the file to write, e.g. BENCH_1.json")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args.out.write_text(json.dumps(measure(contract), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
