"""Run the benchmark in alternating pairs on a parent checkout and this one, and compare them.

    python3 tools/bench_pairs.py PARENT_DIR [--workload W]

Run from any directory.  For each workload of this checkout's BENCHMARK.json
(or only ``W``) it makes ``PAIRS`` (10) pairs of runs of

    bench/run.py --workload W --seed I --seconds run_seconds --trace 0

one run on each side per pair, at seed I for pair I, the parent first in
the even pairs and this checkout first in the odd ones.  Each side runs
from a temporary copy of its ``src/`` and ``bench/``, so it writes nothing
in either checkout.  Each run's end-to-end metrics are printed as it ends.
Then, per workload and end-to-end metric, it prints both medians, the
parent's quartile distance (third minus first quartile of its runs,
``statistics.quantiles(values, n=4)``) and that distance as a share of the
parent's median, the pairs this checkout wins (a tie counts for neither
side), and a verdict against the metric's bound:

* ``WORSE`` when this checkout's median is worse than the parent's by more
  than the bound, as a share of the parent's median;
* ``UNRESOLVED`` otherwise, when the parent's quartile distance is more than
  the bound as a share of its median, unless every run of this checkout
  beats every run of the parent: the parent's own runs then spread wider
  than the change the bound allows, so a median inside the bound shows
  nothing;
* ``within`` otherwise.

The exit status is 1 when a verdict is not ``within`` or a run reports
``"correct": false``, 2 when PARENT_DIR has no ``src/stalegrad``.  Each run
takes about ``run_seconds`` (30 s): the pairs of all three workloads take
some 35 minutes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: what bench/run.py reads of its checkout
COPIED = ("src", "bench")
SIDES = ("parent", "change")
#: pairs of runs per workload, as bench/prove.py runs ten seeds
PAIRS = 10


def copy_checkout(checkout: Path, into: Path) -> Path:
    """``into`` holding the parts of ``checkout`` the benchmark runs."""
    for name in COPIED:
        shutil.copytree(checkout / name, into / name, ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
    return into


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one ``bench/run.py --trace 0`` run in ``copy``."""
    command = [sys.executable, str(copy / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {copy} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Both medians, the parent's quartile distance and its share of the median, the change's wins and the verdict."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    q1, _, q3 = statistics.quantiles(parent, n=4)
    medians = statistics.median(parent), statistics.median(change)
    worse_by = sign * (medians[1] - medians[0]) / medians[0]
    spread = (q3 - q1) / medians[0]
    clear = all(sign * (c - p) < 0 for p in parent for c in change)
    if worse_by > metric["bound"]:
        verdict = "WORSE"
    elif spread > metric["bound"] and not clear:
        verdict = "UNRESOLVED"
    else:
        verdict = "within"
    return {
        "parent": medians[0],
        "change": medians[1],
        "parent_iqr": q3 - q1,
        "parent_spread": spread,
        "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "verdict": verdict,
    }


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="the parent commit's checkout")
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "stalegrad" / "__init__.py").is_file():
        print(f"error: no stalegrad package under {args.parent / 'src'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    metrics = contract["end_to_end"]
    status = 0
    with tempfile.TemporaryDirectory(prefix="stalegrad-pairs-") as tmp:
        copies = {
            side: copy_checkout(checkout, Path(tmp) / side)
            for side, checkout in zip(SIDES, (args.parent.resolve(), ROOT))
        }
        values = {w: {side: {m["name"]: [] for m in metrics} for side in SIDES} for w in workloads}
        for workload in workloads:
            for pair in range(PAIRS):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = run_once(copies[side], workload, pair, contract["run_seconds"])
                    if not result["correct"]:
                        status = 1
                    for m in metrics:
                        values[workload][side][m["name"]].append(result["metrics"][m["name"]]["value"])
                    print(f"{workload} pair={pair} seed={pair} {side} correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']} "
                          + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics),
                          flush=True)
    for workload in workloads:
        for m in metrics:
            row = compare(m, values[workload]["parent"][m["name"]], values[workload]["change"][m["name"]])
            status |= row["verdict"] != "within"
            print(f"{workload:<18} {m['name']:<12} parent={row['parent']:<12.6g} change={row['change']:<12.6g} "
                  f"({row['change'] / row['parent'] - 1.0:+.2%}) parent_q3-q1={row['parent_iqr']:.6g} "
                  f"({row['parent_spread']:.1%}) change_wins={row['wins']}/{PAIRS} {row['verdict']} bound {m['bound']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
