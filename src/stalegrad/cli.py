"""Command-line experiment runner.

Subcommands::

    stalegrad run CONFIG       one configuration, seed battery, CSV per run
    stalegrad sweep CONFIG     grid expansion, aggregation, summary report
    stalegrad validate         self-contained invariant suite (the gate)
    stalegrad report DIR       format a sweep summary; --check re-audits it

Exit codes: 0 success, 1 validation/config error, 2 acceptance failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, delays, objectives, optimizers
from .config import ExperimentConfig, load_document, parse_sim_config
from .errors import (
    ContractViolationError,
    DivergedRunError,
    InvalidConfigError,
    StalegradError,
)
from .objectives import FAST, SLOW, BallDomain
from .simulation import SimConfig, _jsonable, config_hash, replay_check
from .simulation import run as run_simulation
from .simulation import validate_config

TRACE_COLUMNS = (
    "t",
    "worker_id",
    "dispatch_iteration",
    "tau",
    "component",
    "loss",
    "grad_norm",
    "pending_size",
)

_METRIC_CHOICES = ("final_excess", "avg_sq_grad_norm", "final_loss", "final_distance")


def _objective_for(config: SimConfig):
    return objectives.from_spec(config.objective, float(config.delay["slow_weight"]))


#: rows the trace writer converts to Python objects at a time; small enough
#: that the converted chunk adds well under 0.1 MiB to the writer's peak memory
_CSV_CHUNK = 256


def _write_trace_csv(trace, path: Path) -> None:
    """One row per step; columns are converted with ``tolist`` a chunk at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for start in range(0, len(trace), _CSV_CHUNK):
            rows = slice(start, start + _CSV_CHUNK)
            writer.writerows(
                zip(
                    trace.t[rows].tolist(),
                    trace.worker_id[rows].tolist(),
                    trace.dispatch_iteration[rows].tolist(),
                    trace.tau[rows].tolist(),
                    trace.component[rows],
                    map(repr, trace.loss[rows].tolist()),
                    map(repr, trace.grad_norm[rows].tolist()),
                    trace.pending_size[rows].tolist(),
                )
            )


def _write_snapshot_csv(trace, path: Path) -> None:
    dim = trace.snapshots.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"x{j}" for j in range(dim)])
        for step, row in zip(trace.snapshot_steps, trace.snapshots):
            writer.writerow([int(step)] + [repr(float(v)) for v in row])


def _final_metrics(trace, objective) -> dict:
    series = analysis.convergence_metrics(trace, objective)
    return {
        "final_loss": series.final_loss,
        "final_excess": series.final_excess,
        "final_distance": series.final_distance,
        "avg_sq_grad_norm": series.final_avg_sq_grad_norm,
    }


def _select_metric(report_section, base_config: SimConfig) -> str:
    explicit = report_section.get("metric")
    if explicit is not None:
        if explicit not in _METRIC_CHOICES:
            raise InvalidConfigError(
                f"unknown metric {explicit!r}; choose one of {', '.join(_METRIC_CHOICES)}",
                field="report.metric",
            )
        return explicit
    family = base_config.objective.get("family")
    if family == "nonconvex":
        return "avg_sq_grad_norm"
    constants = _objective_for(base_config).theory_constants()
    return "final_excess" if constants.f_star is not None else "avg_sq_grad_norm"


# ---------------------------------------------------------------------------
# run


def cmd_run(config_path: str, output_dir: str | None = None) -> int:
    doc = load_document(config_path)
    experiment = ExperimentConfig.from_document(doc)
    base = parse_sim_config(doc)
    validate_config(base)
    out = Path(output_dir) if output_dir else experiment.output_dir
    out.mkdir(parents=True, exist_ok=True)
    objective = _objective_for(base)

    entries = []
    diverged = 0
    for index in range(experiment.seed_count):
        seed = experiment.seed_base + index
        config = replace(base, seed=seed)
        entry: dict = {"seed": seed, "config_hash": config_hash(config)}
        try:
            trace = run_simulation(config)
        except DivergedRunError as exc:
            diverged += 1
            entry.update({"diverged": True, "diverged_step": exc.step})
            print(f"seed {seed}: DIVERGED at t={exc.step}")
        else:
            csv_path = out / f"run_s{seed}.csv"
            _write_trace_csv(trace, csv_path)
            entry.update(
                {
                    "diverged": False,
                    "csv": csv_path.name,
                    "resolved_params": _jsonable(trace.resolved_params),
                    "metrics": _jsonable(_final_metrics(trace, objective)),
                }
            )
            if config.snapshot_stride is not None:
                snap_path = out / f"snapshots_s{seed}.csv"
                _write_snapshot_csv(trace, snap_path)
                entry["snapshots"] = snap_path.name
            print(f"seed {seed}: final_loss={entry['metrics']['final_loss']:.6g} -> {csv_path}")
        entries.append(entry)

    summary = {
        "config_hash": config_hash(base),
        "runs": entries,
        "diverged_total": diverged,
        "seed_count": experiment.seed_count,
    }
    summary_path = out / "run_summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"summary -> {summary_path}")
    return 1 if diverged == experiment.seed_count else 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_worker(payload) -> dict:
    expanded, traces_dir = payload
    config = expanded.config
    result = {
        "grid_index": expanded.grid_index,
        "seed_index": expanded.seed_index,
        "seed": config.seed,
        "overrides": [[path, _jsonable(value)] for path, value in expanded.overrides],
        "method": config.optimizer.get("method"),
        "config_hash": config_hash(config),
        "eta": None,
        "diverged": False,
        "error": None,
        "metrics": None,
    }
    try:
        trace = run_simulation(config)
    except DivergedRunError as exc:
        result["diverged"] = True
        result["diverged_step"] = exc.step
        return result
    except StalegradError as exc:
        result["error"] = str(exc)
        return result
    objective = _objective_for(config)
    result["eta"] = _jsonable(trace.resolved_params.get("eta"))
    result["metrics"] = _jsonable(_final_metrics(trace, objective))
    if traces_dir is not None:
        path = Path(traces_dir) / f"{expanded.run_id}.csv"
        _write_trace_csv(trace, path)
        result["trace"] = path.name
    return result


def _group_mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def _group_sd(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _group_mean(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))


def _aggregate(results: list[dict], metric: str) -> dict:
    """Deterministic fold over per-run results, sorted by (grid point, seed)."""
    results = sorted(results, key=lambda r: (r["grid_index"], r["seed_index"]))
    by_grid: dict[int, list[dict]] = {}
    for row in results:
        by_grid.setdefault(row["grid_index"], []).append(row)

    grid_points = []
    for grid_index in sorted(by_grid):
        rows = by_grid[grid_index]
        finite = [r["metrics"][metric] for r in rows if r["metrics"] is not None]
        failed = [r for r in rows if r["metrics"] is None]
        etas = {r["eta"] for r in rows if r["eta"] is not None}
        grid_points.append(
            {
                "grid_index": grid_index,
                "overrides": rows[0]["overrides"],
                "method": rows[0]["method"],
                "eta": sorted(etas)[0] if etas else None,
                "seeds": [r["seed"] for r in rows],
                "mean": _group_mean(finite) if finite and not failed else None,
                "sd": _group_sd(finite) if finite and not failed else None,
                "diverged": sum(1 for r in rows if r["diverged"]),
                "errors": sum(1 for r in rows if r["error"]),
            }
        )

    methods: dict[str, dict] = {}
    for point in grid_points:
        info = methods.setdefault(point["method"], {"best": None, "robustness": []})
        info["robustness"].append(
            {
                "eta": point["eta"],
                "grid_index": point["grid_index"],
                "mean": point["mean"],
                "sd": point["sd"],
                "diverged": point["diverged"],
            }
        )
        if point["mean"] is not None:
            best = info["best"]
            key = (point["mean"], point["eta"] if point["eta"] is not None else math.inf)
            if best is None or key < (
                best["mean"],
                best["eta"] if best["eta"] is not None else math.inf,
            ):
                info["best"] = point
    for info in methods.values():
        info["robustness"].sort(
            key=lambda r: (r["eta"] is None, r["eta"] if r["eta"] is not None else 0.0)
        )

    acceptance: dict[str, object] = {}
    for method, info in methods.items():
        means = [r["mean"] for r in info["robustness"] if r["mean"] is not None and r["diverged"] == 0]
        diverged_any = any(r["diverged"] for r in info["robustness"])
        if len(means) >= 2:
            low, high = min(means), max(means)
            ratio = math.inf if low <= 0 < high else (1.0 if high <= 0 else high / low)
            acceptance[f"{method}_metric_ratio"] = None if math.isinf(ratio) else ratio
            if method == "ordered_mu2":
                acceptance["ordered_mu2_window_ratio_le_3"] = ratio <= 3.0
            if method == "vanilla":
                acceptance["vanilla_unstable_gt_10"] = diverged_any or ratio > 10.0
        elif diverged_any and method == "vanilla":
            acceptance["vanilla_unstable_gt_10"] = True

    return {
        "metric": metric,
        "grid_points": grid_points,
        "methods": methods,
        "acceptance": acceptance,
        "runs_total": len(results),
        "diverged_total": sum(1 for r in results if r["diverged"]),
        "error_total": sum(1 for r in results if r["error"]),
    }


def cmd_sweep(config_path: str, output_dir: str | None = None) -> int:
    doc = load_document(config_path)
    experiment = ExperimentConfig.from_document(doc)
    if not experiment.grid:
        raise InvalidConfigError("sweep needs at least one grid axis", field="sweep.grid")
    out = Path(output_dir) if output_dir else experiment.output_dir
    out.mkdir(parents=True, exist_ok=True)
    traces_dir = None
    if experiment.write_traces:
        traces_dir = out / "traces"
        traces_dir.mkdir(exist_ok=True)

    expanded = experiment.expand()
    for item in expanded:
        validate_config(item.config)
    metric = _select_metric(experiment.report, expanded[0].config)

    payloads = [(item, None if traces_dir is None else str(traces_dir)) for item in expanded]
    if experiment.parallelism > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(experiment.parallelism, len(payloads))) as pool:
            results = list(pool.map(_sweep_worker, payloads))
    else:
        results = [_sweep_worker(p) for p in payloads]

    summary = _aggregate(results, metric)
    summary["grid"] = [[path, list(values)] for path, values in experiment.grid]
    summary["seeds"] = [experiment.seed_base + i for i in range(experiment.seed_count)]

    with open(out / "runs.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "grid_index",
                "seed",
                "method",
                "eta",
                "diverged",
                "final_loss",
                "final_excess",
                "final_distance",
                "avg_sq_grad_norm",
                "overrides",
            ]
        )
        for row in sorted(results, key=lambda r: (r["grid_index"], r["seed_index"])):
            metrics = row["metrics"] or {}

            def cell(name):
                value = metrics.get(name)
                return "" if value is None else repr(float(value))

            writer.writerow(
                [
                    row["grid_index"],
                    row["seed"],
                    row["method"],
                    "" if row["eta"] is None else repr(float(row["eta"])),
                    int(row["diverged"]),
                    cell("final_loss"),
                    cell("final_excess"),
                    cell("final_distance"),
                    cell("avg_sq_grad_norm"),
                    ";".join(f"{path}={value}" for path, value in row["overrides"]),
                ]
            )

    with open(out / "robustness.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "eta", "metric", "mean", "sd", "diverged"])
        for method in sorted(summary["methods"]):
            for row in summary["methods"][method]["robustness"]:
                writer.writerow(
                    [
                        method,
                        "" if row["eta"] is None else repr(float(row["eta"])),
                        metric,
                        "" if row["mean"] is None else repr(float(row["mean"])),
                        "" if row["sd"] is None else repr(float(row["sd"])),
                        row["diverged"],
                    ]
                )

    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(
        f"{summary['runs_total']} runs ({summary['diverged_total']} diverged, "
        f"{summary['error_total']} failed) -> {out / 'summary.json'}"
    )
    for method in sorted(summary["methods"]):
        best = summary["methods"][method]["best"]
        if best is None:
            print(f"  {method}: no convergent grid point")
        else:
            print(
                f"  {method}: best {metric}={best['mean']:.6g} "
                f"(eta={best['eta']}, grid_index={best['grid_index']})"
            )
    return 0


# ---------------------------------------------------------------------------
# report


def _format_report(summary: dict) -> str:
    lines = []
    metric = summary["metric"]
    lines.append(f"metric: {metric}")
    lines.append(
        f"runs: {summary['runs_total']} total, {summary['diverged_total']} diverged, "
        f"{summary.get('error_total', 0)} failed"
    )
    lines.append("")
    lines.append("best configuration per method")
    lines.append(f"{'method':<18} {'eta':>12} {'mean':>14} {'sd':>12}")
    for method in sorted(summary["methods"]):
        best = summary["methods"][method]["best"]
        if best is None:
            lines.append(f"{method:<18} {'-':>12} {'diverged':>14} {'-':>12}")
            continue
        eta = "-" if best["eta"] is None else f"{best['eta']:.4g}"
        lines.append(f"{method:<18} {eta:>12} {best['mean']:>14.6g} {best['sd']:>12.4g}")
    lines.append("")
    lines.append(f"robustness ({metric} vs eta)")
    lines.append(f"{'method':<18} {'eta':>12} {'mean':>14} {'sd':>12} {'diverged':>9}")
    for method in sorted(summary["methods"]):
        for row in summary["methods"][method]["robustness"]:
            eta = "-" if row["eta"] is None else f"{row['eta']:.4g}"
            mean = "diverged" if row["mean"] is None else f"{row['mean']:.6g}"
            sd = "-" if row["sd"] is None else f"{row['sd']:.4g}"
            lines.append(f"{method:<18} {eta:>12} {mean:>14} {sd:>12} {row['diverged']:>9}")
    if summary.get("acceptance"):
        lines.append("")
        lines.append("acceptance flags")
        for name in sorted(summary["acceptance"]):
            lines.append(f"  {name}: {summary['acceptance'][name]}")
    return "\n".join(lines) + "\n"


def _reaggregate_from_csv(path: Path, metric: str) -> dict:
    results = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            results.append(
                {
                    "grid_index": int(row["grid_index"]),
                    "seed_index": i,
                    "seed": int(row["seed"]),
                    "method": row["method"],
                    "eta": float(row["eta"]) if row["eta"] else None,
                    "diverged": bool(int(row["diverged"])),
                    "error": None,
                    "overrides": [
                        pair.split("=", 1)
                        for pair in row["overrides"].split(";")
                        if pair
                    ],
                    "metrics": (
                        None
                        if not row[metric]
                        else {metric: float(row[metric])}
                    ),
                }
            )
    return _aggregate(results, metric)


def cmd_report(directory: str, check: bool = False) -> int:
    out = Path(directory)
    summary_path = out / "summary.json"
    if not summary_path.exists():
        raise InvalidConfigError(f"no summary.json under {out}")
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    text = _format_report(summary)
    print(text, end="")
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    if not check:
        return 0

    failures = []
    recomputed = _reaggregate_from_csv(out / "runs.csv", summary["metric"])
    for method, info in summary["methods"].items():
        fresh = recomputed["methods"].get(method)
        if fresh is None:
            failures.append(f"method {method} missing from runs.csv")
            continue
        stored_best, fresh_best = info["best"], fresh["best"]
        if (stored_best is None) != (fresh_best is None):
            failures.append(f"{method}: best-configuration presence mismatch")
        elif stored_best is not None:
            if stored_best["grid_index"] != fresh_best["grid_index"]:
                failures.append(f"{method}: best grid point mismatch")
            elif not math.isclose(stored_best["mean"], fresh_best["mean"], rel_tol=1e-9):
                failures.append(f"{method}: best mean mismatch")
    for name, value in summary.get("acceptance", {}).items():
        if value is False:
            failures.append(f"acceptance flag {name} is false")
        fresh_value = recomputed["acceptance"].get(name)
        if isinstance(value, bool) and fresh_value is not None and fresh_value != value:
            failures.append(f"acceptance flag {name} does not reproduce")
    if failures:
        for failure in failures:
            print(f"CHECK FAIL: {failure}")
        return 2
    print("CHECK PASS: summary reproduces from runs.csv")
    return 0


# ---------------------------------------------------------------------------
# validate


class _Failure(Exception):
    pass


def _ensure(condition: bool, detail: str) -> None:
    if not condition:
        raise _Failure(detail)


def _close(a, b, rel=1e-12, detail="values differ") -> None:
    _ensure(math.isclose(a, b, rel_tol=rel, abs_tol=1e-15), f"{detail}: {a!r} vs {b!r}")


_QUAD_SPEC = {
    "family": "quadratic",
    "curvature": [1.0, 2.0, 0.5],
    "minimizer": [1.0, -1.0, 0.5],
    "noise_sigma": 0.5,
}
_MIXTURE_SPEC = {
    "family": "mixture",
    "components": [
        {"minimizer": [1.0, 0.0], "curvature": 1.0},
        {"minimizer": [-1.0, 0.0], "curvature": 1.0},
    ],
    "noise_sigma": 0.3,
}
_NONCONVEX_SPEC = {
    "family": "nonconvex",
    "curvature": 0.5,
    "minimizer": [2.0**0.25, 2.0**0.25],
    "squash_scale": 0.25,
    "noise_sigma": 1.0,
}
_LOGISTIC_SPEC = {"family": "logistic", "classes": 3, "feature_dim": 3, "samples": 40}

_FAMILY_SPECS = (_QUAD_SPEC, _MIXTURE_SPEC, _NONCONVEX_SPEC, _LOGISTIC_SPEC)


def _validate_objectives() -> list:
    return [objectives.from_spec(spec, 0.1) for spec in _FAMILY_SPECS]


def _check_gradient_finite_difference() -> None:
    rng = np.random.default_rng(3)
    eps = 1e-6
    for objective in _validate_objectives():
        x = rng.standard_normal(objective.dim)
        grad = objective.grad(x)
        for j in range(objective.dim):
            step = np.zeros(objective.dim)
            step[j] = eps
            fd = (objective.loss(x + step) - objective.loss(x - step)) / (2 * eps)
            _ensure(
                abs(fd - grad[j]) <= 1e-6 * max(1.0, abs(grad[j])),
                f"{type(objective).__name__} coordinate {j}: fd={fd!r} grad={grad[j]!r}",
            )


def _check_smoothness_bound() -> None:
    rng = np.random.default_rng(4)
    for objective in _validate_objectives():
        lipschitz = objective.theory_constants().lipschitz
        for _ in range(200):
            x = 3.0 * rng.standard_normal(objective.dim)
            y = 3.0 * rng.standard_normal(objective.dim)
            lhs = np.linalg.norm(objective.grad(x) - objective.grad(y))
            rhs = lipschitz * np.linalg.norm(x - y)
            _ensure(
                lhs <= rhs * (1 + 1e-9) + 1e-12,
                f"{type(objective).__name__}: ||grad gap||={lhs!r} > L||x-y||={rhs!r}",
            )


def _check_gradient_norm_lemma() -> None:
    rng = np.random.default_rng(5)
    for objective in _validate_objectives():
        constants = objective.theory_constants()
        if constants.f_star is None:
            continue
        for _ in range(200):
            x = 3.0 * rng.standard_normal(objective.dim)
            lhs = float(np.dot(objective.grad(x), objective.grad(x)))
            rhs = 2.0 * constants.lipschitz * (objective.loss(x) - constants.f_star)
            _ensure(
                lhs <= rhs * (1 + 1e-9) + 1e-12,
                f"{type(objective).__name__}: ||grad||^2={lhs!r} > 2L(f-f*)={rhs!r}",
            )


def _check_mixture_minimizer() -> None:
    mixture = objectives.from_spec(_MIXTURE_SPEC, 0.1)
    constants = mixture.theory_constants()
    _ensure(
        float(np.linalg.norm(mixture.grad(constants.minimizer))) <= 1e-9,
        "gradient at the closed-form minimizer is not ~0",
    )
    expected = 0.1 * np.array([1.0, 0.0]) + 0.9 * np.array([-1.0, 0.0])
    _ensure(
        float(np.linalg.norm(constants.minimizer - expected)) <= 1e-12,
        "equal-curvature mixture minimizer is not the weighted mean",
    )


def _check_projection_properties() -> None:
    rng = np.random.default_rng(6)
    domain = BallDomain(center=np.array([1.0, -1.0, 0.0]), radius=2.0)
    for _ in range(300):
        x = 6.0 * rng.standard_normal(3)
        y = 6.0 * rng.standard_normal(3)
        px, py = domain.project(x), domain.project(y)
        _ensure(domain.contains(px), "projection landed outside the ball")
        _ensure(np.array_equal(domain.project(px), px), "projection is not idempotent")
        _ensure(
            np.linalg.norm(px - py) <= np.linalg.norm(x - y) * (1 + 1e-12) + 1e-12,
            "projection is not nonexpansive",
        )
    inside = np.array([1.1, -0.9, 0.2])
    _ensure(np.array_equal(domain.project(inside), inside), "interior point moved")


def _check_noise_second_moment() -> None:
    rng = np.random.default_rng(7)
    objective = objectives.from_spec(
        {"family": "quadratic", "dim": 5, "curvature": 1.0, "noise_sigma": 2.0}, 0.1
    )
    x = np.ones(5)
    clean = objective.grad(x)
    noises = [objective.stochastic_grad(x, 0, rng) - clean for _ in range(2000)]
    draws = np.array([float(np.dot(n, n)) for n in noises])
    _ensure(
        abs(draws.mean() - 4.0) <= 0.25,
        f"mean squared noise norm {draws.mean()!r} is far from sigma^2=4",
    )


def _check_noise_pairing() -> None:
    rng = np.random.default_rng(8)
    objective = objectives.from_spec(_QUAD_SPEC, 0.1)
    x, y = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 2.0])
    g_same, g_same_prev = objective.stochastic_grad_pair(x, x, 0, rng)
    _ensure(np.array_equal(g_same, g_same_prev), "pair at one point must coincide exactly")
    g, g_prev = objective.stochastic_grad_pair(x, y, 0, rng)
    noise_now = g - objective.grad(x)
    noise_prev = g_prev - objective.grad(y)
    _ensure(
        bool(np.all(np.abs(noise_now - noise_prev) <= 1e-12)),
        "paired gradients carry different noise",
    )


def _check_arrival_probabilities() -> None:
    probs = delays.default_arrival_probs(8)
    _ensure(abs(probs.sum() - 1.0) <= 1e-12, "arrival probabilities must sum to 1")
    _ensure(bool(np.all(np.diff(probs) > 0)), "arrival probabilities must increase")
    _close(float(probs[-1]), 8.0 / 36.0, detail="fastest-worker probability")
    _ensure(np.array_equal(delays.default_arrival_probs(1), [1.0]), "M=1 pool")


def _check_threshold_formula() -> None:
    probs = delays.default_arrival_probs(7)
    for p in probs:
        tau = delays.delay_threshold(0.1, float(p))
        _ensure(
            math.isclose((1.0 - float(p)) ** tau, 0.1, rel_tol=1e-9),
            f"(1-p)^tau != q1 at p={p!r}",
        )
        _ensure(
            delays.delay_threshold(0.5, float(p)) < tau,
            "threshold must shrink as the slow weight grows",
        )
    _close(
        delays.delay_threshold(0.1, 0.25),
        8.003922779651093,
        detail="closed-form threshold at p=1/4",
    )


def _check_waiting_time_support() -> None:
    rng = np.random.default_rng(9)
    waits = [delays.draw_waiting_time(0.3, rng) for _ in range(2000)]
    _ensure(all(isinstance(w, int) and w >= 1 for w in waits), "waits must be integers >= 1")
    _ensure(min(waits) == 1, "support must include 1")
    _ensure(
        all(delays.draw_waiting_time(1.0, rng) == 1 for _ in range(50)),
        "p=1 must always wait exactly one step",
    )


def _check_distribution_preservation() -> None:
    # Exact oracle: with integer waits compared strictly against the real
    # threshold, P{slow} = (1-p)^floor(tau) with tau recomputed here from
    # scratch -- not read off the model -- so a wrong threshold shifts the
    # realized fractions away from these targets.
    model = delays.DelayModel.build(7, 0.1)
    rng = np.random.default_rng(10)
    draws = 3000
    slow_total = 0
    expected_total = 0.0
    for worker in range(7):
        waits = np.array(
            [model.draw_ticket(worker, 1, 0.0, rng).waiting_time for _ in range(draws)]
        )
        p = float(model.arrival_probs[worker])
        _ensure(
            abs(waits.mean() - 1.0 / p) <= 0.08 / p,
            f"worker {worker}: mean wait {waits.mean()!r} far from 1/p={1 / p!r}",
        )
        expected = (1.0 - p) ** math.floor(math.log(0.1) / math.log1p(-p))
        threshold = float(model.thresholds[worker])
        slow = int(np.count_nonzero(waits > threshold))
        slow_total += slow
        expected_total += expected
        tolerance = 4.0 * math.sqrt(expected * (1.0 - expected) / draws)
        _ensure(
            abs(slow / draws - expected) <= tolerance,
            f"worker {worker}: slow fraction {slow / draws!r} vs exact {expected!r}",
        )
    fraction = slow_total / (7 * draws)
    pooled = expected_total / 7
    _ensure(
        abs(fraction - pooled) <= 4.0 * math.sqrt(pooled * (1.0 - pooled) / (7 * draws)),
        f"pooled slow fraction {fraction!r} far from exact {pooled!r}",
    )


def _check_waiting_time_gof() -> None:
    model = delays.DelayModel.build(7, 0.1)
    rng = np.random.default_rng(11)
    for worker in range(7):
        waits = [model.draw_ticket(worker, 1, 0.0, rng).waiting_time for _ in range(3000)]
        result = analysis.waiting_time_gof(waits, float(model.arrival_probs[worker]))
        _ensure(
            result.pvalue >= 0.005,
            f"worker {worker}: chi-square p={result.pvalue!r} below 0.005",
        )


def _check_staleness_separation() -> None:
    config = SimConfig(
        objective=_QUAD_SPEC,
        optimizer={"method": "vanilla", "eta": 0.01},
        total_iterations=500,
        num_workers=7,
        delay={"slow_weight": 0.1},
        seed=12,
    )
    trace = run_simulation(config)
    slow_mean, fast_mean = analysis.delay_separation(trace)
    _ensure(
        slow_mean >= 2.5 * fast_mean,
        f"slow delays ({slow_mean!r}) not well above fast delays ({fast_mean!r})",
    )
    fraction = sum(1 for c in trace.component if c == SLOW) / len(trace)
    _ensure(0.05 <= fraction <= 0.15, f"slow event fraction {fraction!r} far from 0.1")


def _check_ordered_weight_properties() -> None:
    _ensure(optimizers.ordered_weight(0.5, 0) == 0.5, "tau=0 must return beta")
    _close(optimizers.ordered_weight(0.1, 2), 0.081, detail="beta=0.1, tau=2")
    _close(
        optimizers.ordered_weight(0.1, 50),
        5.1537752073201133e-04,
        detail="beta=0.1, tau=50",
    )
    weights = [optimizers.ordered_weight(0.3, tau) for tau in range(60)]
    _ensure(
        all(a > b > 0 for a, b in zip(weights, weights[1:])),
        "weights must decrease strictly in tau",
    )
    try:
        optimizers.ordered_weight(1.5, 0)
    except InvalidConfigError:
        pass
    else:
        raise _Failure("beta outside (0,1) must be rejected")


def _check_zero_rule() -> None:
    state = optimizers.OrderedMomentumState.initial(np.array([0.0]), 1.0, 0.5)
    first = optimizers.DelayedGradientReport(
        gradient=np.array([1.0]), dispatch_iteration=1, delay=0
    )
    state = optimizers.step_ordered_momentum(state, first)
    _ensure(state.momentum[0] == 0.5 and state.iterate[0] == -0.5, "plain first step")
    duplicate = optimizers.DelayedGradientReport(
        gradient=np.array([100.0]), dispatch_iteration=1, delay=1
    )
    after = optimizers.step_ordered_momentum(state, duplicate)
    _ensure(
        after.momentum[0] == 0.25 and after.iterate[0] == -0.75,
        "a re-arrival of dispatch index 1 must contribute a zero gradient",
    )
    late = optimizers.DelayedGradientReport(
        gradient=np.array([2.0]), dispatch_iteration=2, delay=1
    )
    third = optimizers.step_ordered_momentum(after, late)
    _close(third.momentum[0], 0.5 * 0.5 * 2.0 + 0.5 * 0.25, detail="discounted late gradient")


_UNROLLED_CONFIG = SimConfig(
    objective=_MIXTURE_SPEC,
    optimizer={"method": "ordered_momentum", "eta": 0.003, "beta": 0.05},
    total_iterations=300,
    num_workers=4,
    delay={"slow_weight": 0.1},
    seed=13,
    record_gradients=True,
)


def _check_unrolled_equivalence() -> None:
    trace = run_simulation(_UNROLLED_CONFIG)
    oracle = analysis.unrolled_momentum(trace, 0.05)
    gap = np.linalg.norm(trace.buffers - oracle, axis=1)
    scale = 1.0 + np.linalg.norm(oracle, axis=1)
    worst = float((gap / scale).max())
    _ensure(worst <= 1e-9, f"recursive buffer deviates from the direct sum by {worst!r}")


def _check_pending_bound() -> None:
    trace = run_simulation(_UNROLLED_CONFIG)
    objective = _objective_for(_UNROLLED_CONFIG)
    _ensure(int(trace.pending_size.max()) <= 3, "pending set exceeded M-1")
    failures = analysis.verify_trace_invariants(trace, objective)
    _ensure(not failures, "; ".join(failures))


def _check_sync_momentum_equivalence() -> None:
    eta, beta, total, seed = 0.02, 0.1, 200, 14
    config = SimConfig(
        objective=_QUAD_SPEC,
        optimizer={"method": "ordered_momentum", "eta": eta, "beta": beta},
        total_iterations=total,
        num_workers=1,
        delay={"slow_weight": 0.1},
        seed=seed,
        record_gradients=True,
        x_init=(2.0, -1.0, 1.0),
    )
    trace = run_simulation(config)
    objective = _objective_for(config)
    rng = np.random.default_rng(seed)
    comp = objective.component_for(FAST)
    x = np.array([2.0, -1.0, 1.0])
    m = np.zeros(3)
    delays.draw_waiting_time(1.0, rng)
    g = objective.stochastic_grad(x, comp, rng)
    for t in range(1, total + 1):
        m = beta * g + (1.0 - beta) * m
        x = x - eta * m
        expected = trace.final_iterate if t == total else trace.pre_iterates[t]
        _ensure(
            bool(np.all(np.abs(x - expected) <= 1e-12 * np.maximum(1.0, np.abs(x)))),
            f"single-worker trajectory diverges from classical momentum at t={t}",
        )
        delays.draw_waiting_time(1.0, rng)
        g = objective.stochastic_grad(x, comp, rng)


def _check_sync_mu2_equivalence() -> None:
    eta, total, seed = 0.01, 200, 15
    spec = {
        "family": "quadratic",
        "curvature": [1.0, 2.0],
        "minimizer": [0.5, -0.5],
        "noise_sigma": 0.5,
        "domain": {"center": [0.0, 0.0], "radius": 2.0},
    }
    config = SimConfig(
        objective=spec,
        optimizer={"method": "ordered_mu2", "eta": eta},
        total_iterations=total,
        num_workers=1,
        delay={"slow_weight": 0.1},
        seed=seed,
        x_init=(1.0, -0.5),
    )
    trace = run_simulation(config)
    objective = _objective_for(config)
    domain = objectives.domain_from_spec(spec)
    rng = np.random.default_rng(seed)
    comp = objective.component_for(FAST)
    x = np.array([1.0, -0.5])
    w = x.copy()
    q = np.zeros(2)
    prev = x.copy()
    delays.draw_waiting_time(1.0, rng)
    g, g_prev = objective.stochastic_grad_pair(x, prev, comp, rng)
    k = 1
    for t in range(1, total + 1):
        q = q + k * g - (k - 1) * g_prev
        w = domain.project(w - eta * q)
        x, prev = x + (2.0 / (t + 2)) * (w - x), x
        delays.draw_waiting_time(1.0, rng)
        g, g_prev = objective.stochastic_grad_pair(x, prev, comp, rng)
        k = t + 1
    _ensure(
        bool(np.all(np.abs(x - trace.final_iterate) <= 1e-12 * np.maximum(1.0, np.abs(x)))),
        "single-worker trajectory diverges from the synchronous averaged method",
    )


def _check_mu2_identity_contraction() -> None:
    spec = {
        "family": "quadratic",
        "curvature": [1.0, 2.0],
        "minimizer": [0.5, -0.5],
        "noise_sigma": 0.5,
        "domain": {"center": [0.0, 0.0], "radius": 2.0},
    }
    config = SimConfig(
        objective=spec,
        optimizer={"method": "ordered_mu2", "eta": 0.005},
        total_iterations=300,
        num_workers=4,
        delay={"slow_weight": 0.1},
        seed=16,
        record_gradients=True,
        x_init=(1.0, -0.5),
    )
    trace = run_simulation(config)
    objective = _objective_for(config)
    domain = objectives.domain_from_spec(spec)
    failures = analysis.verify_trace_invariants(trace, objective, domain=domain)
    _ensure(not failures, "; ".join(failures))


def _check_theorem_parameter_values() -> None:
    params = optimizers.theorem1_params(1.0, 1.0, 1.0, 10**6, 2)
    _close(params.beta, 2.23606797749979e-3, detail="theorem-1 beta, sigma branch")
    _close(params.eta, 7.905694150420948e-4, detail="theorem-1 eta, sigma branch")
    capped = optimizers.theorem1_params(1.0, 1.0, 1.0, 5, 2)
    _close(capped.beta, 1.0 / 16.0, detail="theorem-1 beta, M branch")
    single = optimizers.theorem1_params(1.0, 1.0, 1.0, 10**6, 1)
    _close(single.beta, 2.23606797749979e-3, detail="theorem-1 beta, M=1")
    window = optimizers.theorem2_step_window(1.0, 1.0, 0.0, 1.0, 10**4, 4)
    _close(window.eta_min, 9.615384615384615e-7, detail="theorem-2 eta_min")
    _close(window.eta_max, 2.5e-5, detail="theorem-2 eta_max")
    trivial = optimizers.theorem2_step_window(1.0, 0.0, 0.0, 1.0, 100, 1)
    _close(trivial.eta_min, 1.0 / 100.0, detail="theorem-2 eta_min, LM term only")
    _close(
        optimizers.theorem2_step_window(1.0, 1.0, 1.0, 1.0, 100, 1).eta_max,
        1.0 / 400.0,
        detail="theorem-2 eta_max",
    )


def _check_replay_determinism() -> None:
    trace = run_simulation(_UNROLLED_CONFIG)
    _ensure(replay_check(trace, _UNROLLED_CONFIG), "same-seed replay must match")
    other_seed = replace(_UNROLLED_CONFIG, seed=_UNROLLED_CONFIG.seed + 1)
    _ensure(not replay_check(trace, other_seed), "different seed must not match")
    perturbed = replace(
        _UNROLLED_CONFIG,
        optimizer={"method": "ordered_momentum", "eta": 0.004, "beta": 0.05},
    )
    try:
        replay_check(trace, perturbed)
    except ContractViolationError:
        pass
    else:
        raise _Failure("replaying against a different experiment must be rejected")


def _check_config_hash_properties() -> None:
    base = _UNROLLED_CONFIG
    _ensure(len(config_hash(base)) == 64, "hash must be 64 hex chars")
    _ensure(
        config_hash(base) == config_hash(replace(base, seed=999)),
        "hash must not depend on the seed",
    )
    other = replace(base, optimizer={"method": "ordered_momentum", "eta": 0.004, "beta": 0.05})
    _ensure(config_hash(base) != config_hash(other), "hash must track the experiment")


def _check_f1_scores() -> None:
    rng = np.random.default_rng(17)
    for _ in range(30):
        classes = int(rng.integers(2, 6))
        tp = rng.integers(0, 20, classes)
        fp = rng.integers(0, 20, classes)
        fn = rng.integers(0, 20, classes)
        scores = analysis.f1_scores(tp, fp, fn)
        expected = [
            float(Fraction(int(2 * tp[c]), int(2 * tp[c] + fp[c] + fn[c])))
            if 2 * tp[c] + fp[c] + fn[c] > 0
            else 0.0
            for c in range(classes)
        ]
        _ensure(
            all(scores.per_class[c] == expected[c] for c in range(classes)),
            "per-class score differs from the rational oracle",
        )
        _ensure(
            scores.macro == math.fsum(expected) / classes,
            "macro score differs from the rational oracle",
        )
        _ensure(
            bool(np.all((scores.per_class >= 0) & (scores.per_class <= 1))),
            "scores must lie in [0,1]",
        )
    empty = analysis.f1_scores([0, 5], [0, 0], [0, 0])
    _ensure(empty.per_class[0] == 0.0, "0/0 class must score 0")
    _ensure(empty.per_class[1] == 1.0, "perfect class must score 1")


_VALIDATE_CHECKS = (
    ("gradient_finite_difference", _check_gradient_finite_difference),
    ("smoothness_bound", _check_smoothness_bound),
    ("gradient_norm_lemma", _check_gradient_norm_lemma),
    ("mixture_minimizer", _check_mixture_minimizer),
    ("projection_properties", _check_projection_properties),
    ("noise_second_moment", _check_noise_second_moment),
    ("noise_pairing", _check_noise_pairing),
    ("arrival_probabilities", _check_arrival_probabilities),
    ("threshold_formula", _check_threshold_formula),
    ("waiting_time_support", _check_waiting_time_support),
    ("distribution_preservation", _check_distribution_preservation),
    ("waiting_time_gof", _check_waiting_time_gof),
    ("staleness_separation", _check_staleness_separation),
    ("ordered_weight_properties", _check_ordered_weight_properties),
    ("zero_rule", _check_zero_rule),
    ("unrolled_equivalence", _check_unrolled_equivalence),
    ("pending_bound", _check_pending_bound),
    ("sync_momentum_equivalence", _check_sync_momentum_equivalence),
    ("sync_mu2_equivalence", _check_sync_mu2_equivalence),
    ("mu2_identity_contraction", _check_mu2_identity_contraction),
    ("theorem_parameter_values", _check_theorem_parameter_values),
    ("replay_determinism", _check_replay_determinism),
    ("config_hash_properties", _check_config_hash_properties),
    ("f1_scores", _check_f1_scores),
)


def cmd_validate() -> int:
    failures = 0
    for name, check in _VALIDATE_CHECKS:
        try:
            check()
        except _Failure as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        except StalegradError as exc:
            failures += 1
            print(f"FAIL {name}: unexpected error: {exc}")
        else:
            print(f"PASS {name}")
    total = len(_VALIDATE_CHECKS)
    print(f"{total - failures}/{total} invariants hold")
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stalegrad",
        description="Simulate delayed-gradient optimizers under data-dependent worker delays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configuration over its seed battery")
    p_run.add_argument("config", help="path to a YAML config document")
    p_run.add_argument("--output-dir", help="override the output directory")

    p_sweep = sub.add_parser("sweep", help="expand and execute a hyperparameter grid")
    p_sweep.add_argument("config", help="path to a YAML config document with a sweep section")
    p_sweep.add_argument("--output-dir", help="override the output directory")

    sub.add_parser("validate", help="run the invariant suite and report pass/fail per invariant")

    p_report = sub.add_parser("report", help="render a sweep summary as a text report")
    p_report.add_argument("directory", help="sweep output directory containing summary.json")
    p_report.add_argument(
        "--check",
        action="store_true",
        help="re-derive the aggregation from runs.csv and fail on any mismatch",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.output_dir)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.output_dir)
        if args.command == "validate":
            return cmd_validate()
        if args.command == "report":
            return cmd_report(args.directory, args.check)
    except StalegradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
