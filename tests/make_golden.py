"""Write ``tests/golden.json``: pinned outputs of a small run battery.

The battery is every objective family × every method that validates for
it × M ∈ {1, 4, 7}, at T = 300 and one fixed seed.  Each run records

* ``trace_sha256`` — the trace CSV exactly as ``stalegrad run`` writes it;
* ``schedule_sha256`` — the integer schedule columns alone (t, worker,
  dispatch index, τ, pending size, waiting time, component), which do not
  depend on floating-point rounding;
* ``loss_fsum`` / ``grad_norm_fsum`` — ``math.fsum`` of the two float
  columns;
* ``final_iterate``.

A second section, ``cli``, pins the summary files the command line writes:
``stalegrad run configs/minimal.yaml`` and ``stalegrad sweep`` on
``configs/bias_comparison.yaml`` and ``configs/robustness_window.yaml``
(shortened to T = 300, one seed, one process).  Each file records its
SHA-256 and its parsed values.

The file also records an environment stamp.  ``test_golden.py`` compares
bytes exactly when the stamp matches and falls back to the schedule digest
plus a relative tolerance on the floats otherwise (for a CLI file: its parsed
values, floats within the tolerance and everything else exactly).

Regenerate only when a change of the numbers is intended::

    PYTHONPATH=src python3 tests/make_golden.py

Before writing, the script prints how far each float field moved against
the file it replaces (worst relative change over the runs both files
hold).  It refuses to write, and exits nonzero, when any run's
``schedule_sha256`` changed: no change of rounding moves the schedule.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import platform
import tempfile
from pathlib import Path

import numpy as np
import yaml

from stalegrad import cli, schema
from stalegrad.config import apply_override, load_document
from stalegrad.errors import InvalidConfigError
from stalegrad.optimizers import METHODS
from stalegrad.simulation import SimConfig, run, validate_config

GOLDEN_PATH = Path(__file__).with_name("golden.json")
CONFIG_DIR = Path(__file__).parent.parent / "configs"

ITERATIONS = 300
WORKERS = (1, 4, 7)
SEED = 11
SLOW_WEIGHT = 0.1

FAMILIES = {
    "quadratic": {
        "family": "quadratic",
        "curvature": [1.0, 2.0],
        "minimizer": [1.0, -1.0],
        "noise_sigma": 0.5,
        "domain": {"center": [0.0, 0.0], "radius": 3.0},
    },
    "mixture": {
        "family": "mixture",
        "components": [
            {"minimizer": [1.0, 0.0], "curvature": 1.0},
            {"minimizer": [-1.0, 0.0], "curvature": [1.0, 2.0]},
        ],
        "noise_sigma": 0.3,
        "domain": {"center": [0.0, 0.0], "radius": 2.0},
    },
    "nonconvex": {
        "family": "nonconvex",
        "curvature": [1.0, 3.0],
        "minimizer": [0.5, -0.5],
        "squash_scale": 1.0,
        "noise_sigma": 0.3,
        "domain": {"center": [0.0, 0.0], "radius": 2.0},
    },
    "logistic": {
        "family": "logistic",
        "classes": 3,
        "feature_dim": 4,
        "samples": 200,
        "noise_sigma": 0.1,
        "domain": {"center": [0.0] * 12, "radius": 5.0},
    },
}

#: one hyperparameter set shared by every method; each method is given the keys it reads
OPTIMIZER = {"eta": 0.05, "beta": 0.2, "gamma": 0.5, "tau_filter": 3}

_SWEEP_FILES = ("runs.csv", "robustness.csv", "summary.json")
_SHORT_SWEEP = {"run.iterations": ITERATIONS, "sweep.seeds.count": 1, "sweep.parallelism": 1}

#: name -> (subcommand, config under ``configs/``, overrides, files written)
CLI_RUNS = {
    "run/minimal": ("run", "minimal.yaml", {}, ("run_summary.json", "run_s0.csv")),
    "sweep/bias_comparison": ("sweep", "bias_comparison.yaml", _SHORT_SWEEP, _SWEEP_FILES),
    "sweep/robustness_window": ("sweep", "robustness_window.yaml", _SHORT_SWEEP, _SWEEP_FILES),
}

SCHEDULE_COLUMNS = ("t", "worker_id", "dispatch_iteration", "tau", "pending_size", "waiting_time")


def battery() -> dict[str, SimConfig]:
    """Every (family, method, M) whose config validates, keyed ``family/method/M<m>``."""
    out = {}
    for family, spec in FAMILIES.items():
        for method in METHODS:
            reads = schema.names("optimizer", method)
            optimizer = {"method": method, **{key: value for key, value in OPTIMIZER.items() if key in reads}}
            for workers in WORKERS:
                config = SimConfig(
                    objective=spec,
                    optimizer=optimizer,
                    total_iterations=ITERATIONS,
                    num_workers=workers,
                    delay={"slow_weight": SLOW_WEIGHT},
                    seed=SEED,
                )
                try:
                    validate_config(config)
                except InvalidConfigError:
                    continue
                out[f"{family}/{method}/M{workers}"] = config
    return out


def blas_core() -> str | None:
    """The kernel set OpenBLAS picked for this CPU (``OPENBLAS_CORETYPE`` overrides it).

    Read from the scipy-openblas library bundled with numpy wheels; ``None``
    for any other BLAS build.
    """
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def environment_stamp() -> dict:
    """What decides the rounding of a run: interpreter, numpy, BLAS, its kernels and CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": blas_core(),
        "machine": f"{platform.system()} {platform.machine()}",
        "simd": [target for target in __cpu_dispatch__ if __cpu_features__.get(target)],
    }


def schedule_digest(trace) -> str:
    rows = [trace.component] + [getattr(trace, name).tolist() for name in SCHEDULE_COLUMNS]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def record(config: SimConfig) -> dict:
    """The pinned quantities of one run."""
    trace = run(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        cli._write_trace_csv(trace, path)
        csv_bytes = path.read_bytes()
    return {
        "trace_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "schedule_sha256": schedule_digest(trace),
        "loss_fsum": math.fsum(trace.loss.tolist()),
        "grad_norm_fsum": math.fsum(trace.grad_norm.tolist()),
        "final_iterate": trace.final_iterate.tolist(),
    }


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_output(name: str, text: str):
    """A CLI output file's values: the JSON document, or the CSV rows with numbers parsed."""
    if name.endswith(".json"):
        return json.loads(text)
    return [[_cell(cell) for cell in row] for row in csv.reader(io.StringIO(text))]


def cli_outputs() -> dict:
    """``{"<run>/<file>": {"sha256", "values"}}`` for every file :data:`CLI_RUNS` writes."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, config, overrides, files) in CLI_RUNS.items():
            doc = load_document(CONFIG_DIR / config)
            for path, value in overrides.items():
                doc = apply_override(doc, path, value)
            config_path = Path(tmp) / config
            config_path.write_text(yaml.safe_dump(doc, sort_keys=False))
            directory = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main([command, str(config_path), "--output-dir", str(directory)])
            if status != 0:
                raise RuntimeError(f"stalegrad {command} {config} exited with {status}")
            for file in files:
                data = (directory / file).read_bytes()
                out[f"{name}/{file}"] = {
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "values": parse_output(file, data.decode()),
                }
    return out


def _relative_change(new: float, old: float) -> float:
    if new == old:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def report_drift(old_runs: dict, new_runs: dict) -> list[str]:
    """Print how far the runs both tables hold moved; return those whose
    schedule digest changed."""
    shared = sorted(old_runs.keys() & new_runs.keys())
    fields = ("loss_fsum", "grad_norm_fsum", "final_iterate")
    changes: dict[str, list[float]] = {name: [0.0] for name in fields}
    for key in shared:
        old, new = old_runs[key], new_runs[key]
        for name in ("loss_fsum", "grad_norm_fsum"):
            changes[name].append(_relative_change(new[name], old[name]))
        changes["final_iterate"] += map(_relative_change, new["final_iterate"], old["final_iterate"])
    traces = sum(old_runs[k]["trace_sha256"] != new_runs[k]["trace_sha256"] for k in shared)
    print(f"{traces} of {len(shared)} shared runs changed their trace bytes")
    for name, values in changes.items():
        print(f"worst relative change of {name}: {max(values):.3g}")
    return [k for k in shared if old_runs[k]["schedule_sha256"] != new_runs[k]["schedule_sha256"]]


def main() -> None:
    runs = {key: record(config) for key, config in battery().items()}
    if GOLDEN_PATH.exists():
        moved = report_drift(json.loads(GOLDEN_PATH.read_text())["runs"], runs)
        if moved:
            raise SystemExit(f"not written: the schedule digest changed for {', '.join(moved)}")
    document = {
        "stamp": environment_stamp(),
        "iterations": ITERATIONS,
        "seed": SEED,
        "runs": runs,
        "cli": cli_outputs(),
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(runs)} runs and {len(document['cli'])} CLI files to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
