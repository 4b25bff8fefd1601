"""Run run.py over ten seeds, twice, and report how steady each metric is.

    python3 bench/prove.py [--record]

Every workload in BENCHMARK.json runs at seeds 0-9, and then that set of
runs is repeated.  For each set, workload and end-to-end metric it prints
the median over seeds and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  It then prints how much worse the second set's median is than the
first's, as a share of the first.  Both are set beside the metric's bound
in BENCHMARK.json.  ``--record`` also makes one traced run per workload at
seed 0 and writes everything to baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(10)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        key, _, value = line.partition(" ")
        if key in ("env", "samples"):
            result[key] = json.loads(value)
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(contract: dict, index: int) -> dict:
    """Every workload at every seed; per workload, the runs and each metric's summary."""
    workloads = [w["name"] for w in contract["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            result = run_once(workload, seed, contract["run_seconds"], 0)
            runs[workload].append(result)
            print(f"set={index} {workload} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
    summary: dict = {}
    for workload, results in runs.items():
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "calib_ms": [r["env"]["calib_ms"] for r in results],
            "samples": [r["samples"] for r in results],
            "metrics": {},
        }
        for metric in contract["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            summary[workload]["metrics"][metric["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "unit": metric["unit"],
                "values": values,
            }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)

    sets = [run_set(contract, i) for i in range(SETS)]
    steady = True
    for workload in sets[0]:
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (s[workload]["metrics"][name] for s in sets)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (second["median"] - first["median"]) / first["median"]
            spreads = [first["spread"], second["spread"]]
            steady &= max(spreads) < bound / 3 and worse < bound
            print(f"{workload:<18} {name:<12} median={first['median']:<12.6g} "
                  f"spreads={spreads[0]:.4f},{spreads[1]:.4f} second_worse_by={worse:+.4f} "
                  f"bound={bound} {'ok' if max(spreads) < bound / 3 else 'WIDE'}")
    print("all spreads below a third of their bound and the sets agree" if steady
          else "some spreads are wide or the sets disagree")

    if args.record:
        traced = {w: run_once(w, 0, contract["run_seconds"], 1) for w in sets[0]}
        record = {
            "env": next(iter(traced.values()))["env"],
            "seeds": list(SEEDS),
            "run_seconds": contract["run_seconds"],
            "sets": sets,
            "per_layer_seed0": {w: r["metrics"] for w, r in traced.items()},
        }
        with open(BENCH_DIR / "baseline.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"wrote {BENCH_DIR / 'baseline.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
