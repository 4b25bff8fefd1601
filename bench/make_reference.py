"""Regenerate reference.json: each workload's pinned outputs at the reference seed.

    python3 bench/make_reference.py

Run from the repository root, only when a change is meant to alter the
numbers; the diff of reference.json then shows which ones moved.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import workloads  # noqa: E402


def main() -> int:
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            path = workloads.write_inputs(name, workloads.REFERENCE_SEED, work)
            out_dir = work / name
            out_dir.mkdir()
            runs = workloads.setup(name, path)
            outcome = workloads.execute(name, path, runs, out_dir)
            reference[name] = workloads.digest(name, runs, out_dir, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
