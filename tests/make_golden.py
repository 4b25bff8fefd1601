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

The file also records an environment stamp.  ``test_golden.py`` compares
bytes exactly when the stamp matches and falls back to the schedule digest
plus a relative tolerance on the floats otherwise.

Regenerate only when a change of the numbers is intended::

    PYTHONPATH=src python3 tests/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import tempfile
from pathlib import Path

import numpy as np

from stalegrad import cli
from stalegrad.errors import InvalidConfigError
from stalegrad.optimizers import METHODS
from stalegrad.simulation import SimConfig, run, validate_config

GOLDEN_PATH = Path(__file__).with_name("golden.json")

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

#: one hyperparameter set shared by every method; each method reads what it needs
OPTIMIZER = {"eta": 0.05, "beta": 0.2, "gamma": 0.5, "tau_filter": 3}

SCHEDULE_COLUMNS = ("t", "worker_id", "dispatch_iteration", "tau", "pending_size", "waiting_time")


def battery() -> dict[str, SimConfig]:
    """Every (family, method, M) whose config validates, keyed ``family/method/M<m>``."""
    out = {}
    for family, spec in FAMILIES.items():
        for method in METHODS:
            for workers in WORKERS:
                config = SimConfig(
                    objective=spec,
                    optimizer={"method": method, **OPTIMIZER},
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


def environment_stamp() -> dict:
    """What decides the rounding of a run: interpreter, numpy, BLAS and CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
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


def main() -> None:
    runs = {key: record(config) for key, config in battery().items()}
    document = {
        "stamp": environment_stamp(),
        "iterations": ITERATIONS,
        "seed": SEED,
        "runs": runs,
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
