"""stalegrad benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is read from ``src/``, not
installed).  Workloads: window_sweep, bias_run, logistic_battery; see
README.md beside this file.

A run executes the workload back to back, each time in a fresh process
(``child.py``), until ``--seconds`` have passed, and reports medians over
those executions.  ``--trace 0`` prints the end-to-end metrics and the
per-execution samples; ``--trace 1``
alternates untraced and traced executions and prints the per-layer split
(window_sweep then runs its pool serially in both, so the overhead ratio
compares like with like).  Human-readable lines come first; the last line
of standard output is one JSON object.  Scratch files go under
``.bench_work/`` and are removed on exit.  Exit code 2: the checkout has
no ``src/stalegrad``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

#: no execution starts after this many seconds, and any still running at
#: KILL_AT_S is killed, so a run ends within 180 s
START_BY_S = 120.0
KILL_AT_S = 170.0
CALIBRATION_LOOPS = 5

_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop; shows a loaded machine."""
    times = []
    for _ in range(CALIBRATION_LOOPS):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def environment() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "calib_ms": calibration_ms(),
    }


def execute_child(name, seed, config, work, index, *, setup_only=False, trace=False,
                  full_size=True, timeout=KILL_AT_S) -> dict:
    """One fresh-process execution; returns the child's result plus wall_s."""
    out_dir = work / f"out{index}"
    result_path = work / f"result{index}.json"
    command = [sys.executable]
    if trace:
        command += ["-X", "importtime"]
    command += [str(BENCH_DIR / "child.py"), "--workload", name, "--seed", str(seed),
                "--config", str(config), "--out", str(out_dir), "--result", str(result_path)]
    command += ["--setup-only"] * setup_only + ["--trace"] * trace + ["--full-size"] * full_size
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn = time.time()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"failures": [f"timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0 or not result_path.exists():
        return {"failures": [f"child exited with {proc.returncode}: {stderr[-2000:]}"]}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result_path.unlink()
    if "end_epoch" in result:
        result["wall_s"] = result["end_epoch"] - spawn
    if trace:
        result["import_s"] = {
            m.group(2): int(m.group(1)) / 1e6
            for m in map(_IMPORTTIME.match, stderr.splitlines())
            if m is not None
        }
    return result


def _median(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(results: list[dict]) -> dict:
    return {
        "wall_s": (_median(results, "wall_s"), "s"),
        "setup_s": (_median(results, "setup_s"), "s"),
        "steps_per_s": (
            statistics.median(r["steps"] / (r["wall_s"] - r["setup_s"]) for r in results),
            "1/s",
        ),
        "peak_rss_mb": (_median(results, "peak_rss_mb"), "MiB"),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, list[str]]:
    """Per-layer metrics from (untraced, traced) result pairs, and any problems."""
    problems = []
    traced = [t for _, t in pairs]
    first = traced[0]["trace"]
    for other in traced[1:]:
        counts = {k: v[0] for k, v in other["trace"]["layers"].items()}
        if counts != {k: v[0] for k, v in first["layers"].items()}:
            problems.append("span counts differ between traced executions of one seed")
    metrics: dict = {}
    for layer in LAYERS:
        calls = first["layers"].get(layer, (0, 0.0))[0]
        self_s = statistics.median(t["trace"]["layers"].get(layer, (0, 0.0))[1] for t in traced)
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    oracle_calls = first["layers"].get("objectives.oracle", (0, 0.0))[0]
    applied = first["counters"].get("applied", 0)
    metrics["objectives.oracle.useful_frac"] = (applied / oracle_calls if oracle_calls else 0.0, "ratio")
    metrics["cli.write.bytes"] = (first["counters"].get("cli.write.bytes", 0), "bytes")
    metrics["stalegrad.import_s"] = (statistics.median(t["import_s"]["stalegrad"] for t in traced), "s")
    metrics["analysis.import_s"] = (
        statistics.median(t["import_s"]["stalegrad.analysis"] for t in traced), "s")
    others = []
    for t in traced:
        layers = t["trace"]["layers"]
        accounted = sum(layers.get(layer, (0, 0.0))[1] for layer in LAYERS + ("import", "setup"))
        others.append(t["wall_s"] - accounted)
    if min(others) < 0:
        problems.append("layer self times exceed the traced wall time")
    metrics["trace.wall_s"] = (_median(traced, "wall_s"), "s")
    metrics["trace.other_s"] = (statistics.median(others), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(t["wall_s"] / u["wall_s"] - 1.0 for u, t in pairs), "ratio")
    return metrics, problems


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            iterations: int | None = None) -> tuple[dict, dict]:
    """Run the closed loop; returns (report, environment)."""
    started = time.monotonic()
    env = environment()
    config = write_inputs(name, seed, work, serial=trace, iterations=iterations)
    index = 0

    def elapsed():
        return time.monotonic() - started

    def child(**kwargs):
        nonlocal index
        index += 1
        return execute_child(name, seed, config, work, index, timeout=KILL_AT_S - elapsed(),
                             full_size=iterations is None, **kwargs)

    # compiles bytecode and warms the page cache; not counted
    child(setup_only=True)
    executions: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    while not executions or elapsed() < min(seconds, START_BY_S):
        if trace:
            pair = (child(), child(trace=True))
            executions += pair
            pairs.append(pair)
        else:
            executions.append(child())

    failed = [r for r in executions if r["failures"]]
    good = [r for r in executions if not r["failures"]]
    report = {
        "attempted": len(executions),
        "failed": len(failed),
        "failures": [f for r in failed for f in r["failures"]],
        "metrics": {},
    }
    if trace:
        complete = [(u, t) for u, t in pairs if not u["failures"] and not t["failures"]]
        if complete:
            report["metrics"], problems = per_layer(complete)
            report["failures"] += problems
    elif good:
        report["metrics"] = end_to_end(good)
        report["samples"] = {key: [r[key] for r in good] for key in ("wall_s", "setup_s")}
    return report, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "stalegrad" / "__init__.py").is_file():
        print(f"error: no stalegrad package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        report, env = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if not report["metrics"]:
        print("error: no execution completed", file=sys.stderr)
        for failure in report["failures"]:
            print(failure, file=sys.stderr)
        return 1

    print("env " + json.dumps(env, sort_keys=True))
    attempted, failed = report["attempted"], report["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} executions={attempted} "
          f"failed_frac={failed / attempted:g} ({failed}/{attempted})")
    if args.trace and args.workload == "window_sweep":
        print("note: traced serially (sweep.parallelism 1), untraced comparison likewise")
    for metric, (value, unit) in report["metrics"].items():
        print(f"  {metric:<32} {value:>16.6g} {unit}")
    if "samples" in report:
        print("samples " + json.dumps(report["samples"]))
    for failure in report["failures"]:
        print(f"CHECK FAIL: {failure.strip()}")
    print(json.dumps({
        "correct": not report["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
