"""One workload execution in a fresh process; used by run.py.

    python3 bench/child.py --workload NAME --seed N --config PATH --out DIR
                           --result FILE [--setup-only] [--trace] [--full-size]

Timed from the first statement: the package import plus the workload's
config parsing and validation is ``setup_s``; the entry point follows.
With ``--trace`` the tracer is installed between the two.  The
wall-clock time at which the workload ended is written to the result file,
so the parent measures ``wall_s`` from spawn to that instant.  Output
checks run after it and are not timed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (reaped) child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--full-size", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.perf_counter()
    import stalegrad  # noqa: F401
    import_end = time.perf_counter()

    import tracing
    import workloads

    tracer = None
    result: dict = {"failures": []}
    path, out_dir = Path(args.config), Path(args.out)
    outcome = runs = None
    try:
        setup_start = time.perf_counter()
        runs = workloads.setup(args.workload, path)
        setup_end = time.perf_counter()
        result["setup_s"] = setup_end - _T0
        if args.trace:
            # installed after the harness's set-up, so spans count only
            # what the entry point does; set-up is one span of its own
            tracer = tracing.Tracer()
            root = tracer.open("bench", start=_T0)
            tracer.close(tracer.open("import", start=import_start), end=import_end)
            tracer.close(tracer.open("setup", start=setup_start), end=setup_end)
            tracer.install()
        if not args.setup_only:
            out_dir.mkdir(parents=True, exist_ok=True)
            outcome = workloads.execute(args.workload, path, runs, out_dir)
            end = time.perf_counter()
            result["end_epoch"] = time.time()
            result["steps"] = sum(r.total_iterations for r in runs)
            result["peak_rss_mb"] = _peak_rss_mb()
    except Exception:  # the parent counts the run as failed
        result["failures"].append(traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is not None and "end_epoch" in result:
        tracer.close(root, end=end)
        result["trace"] = {
            "layers": {name: list(v) for name, v in tracer.self_times().items()},
            "counters": tracer.counters,
        }
    if "end_epoch" in result:
        try:
            result["failures"] += workloads.check(
                args.workload, args.seed, runs, out_dir, outcome, args.full_size
            )
        except Exception:
            result["failures"].append(traceback.format_exc())

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
