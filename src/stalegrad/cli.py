"""Command-line experiment runner.

Subcommands::

    stalegrad run CONFIG       one configuration, seed battery, CSV per run
    stalegrad sweep CONFIG     grid expansion, aggregation, summary report
    stalegrad validate         run the invariant suite of :mod:`stalegrad.checks`
    stalegrad report DIR       format a sweep summary; --check re-audits it

Exit codes: 0 success, 1 validation/config error, 2 acceptance failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import analysis
from .config import ExperimentConfig, load_document, parse_sim_config
from .errors import DivergedRunError, InvalidConfigError, StalegradError
from .schema import METRICS
from .simulation import TRACE_COLUMNS, _jsonable, config_hash
from .simulation import run as run_simulation
from .simulation import validate_config


#: cells the CSV writers convert to Python objects at a time (256 trace rows, or one
#: row if a snapshot row is wider), so a writer's memory does not grow with the row count
_CSV_CHUNK = 2048


def _write_rows(path: Path, header, columns) -> None:
    """One CSV row per index of ``columns``: a float column's cells through ``repr``, the
    rest (ints and component tags) through ``str``.  None of these holds a comma, a quote
    or a newline, so no cell is quoted; a column that could hold one must go through :mod:`csv`."""
    line = ",".join("%r" if getattr(column, "dtype", None) == float else "%s" for column in columns) + "\n"
    step = max(1, _CSV_CHUNK // len(columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), step):
            chunk = (column[start : start + step] for column in columns)
            rows = zip(*(part.tolist() if hasattr(part, "tolist") else part for part in chunk))
            fh.write("".join(line % row for row in rows))


def _write_trace_csv(trace, path: Path) -> None:
    _write_rows(path, TRACE_COLUMNS, [getattr(trace, name) for name in TRACE_COLUMNS])


def _write_snapshot_csv(trace, path: Path) -> None:
    header = ["t", *(f"x{j}" for j in range(trace.snapshots.shape[1]))]
    _write_rows(path, header, [trace.snapshot_steps, *trace.snapshots.T])


def _write_json(document, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(document), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _final_metrics(trace) -> dict:
    series = analysis.convergence_metrics(trace, trace.objective)
    final = {**vars(series), "avg_sq_grad_norm": series.final_avg_sq_grad_norm}
    return {name: final[name] for name in METRICS}


def _number_cell(value) -> str:
    """A CSV cell for a number that may be absent: empty, or the float's ``repr``."""
    return "" if value is None else repr(float(value))


def _select_metric(report_section, family: str) -> str:
    explicit = report_section.get("metric")  # one of METRICS, checked with the document
    if explicit is not None:
        if family == "logistic" and explicit in ("final_excess", "final_distance"):
            message = f"{explicit} needs a closed-form optimum, which the logistic family lacks"
            raise InvalidConfigError(message, field="report.metric")
        return explicit
    # excess over a closed-form f*; nonconvex (which has one) and logistic use the gradient norm
    return "final_excess" if family in ("quadratic", "mixture") else "avg_sq_grad_norm"


def _output_dir(experiment: ExperimentConfig, override: str | None) -> Path:
    """The output directory, made if missing; ``--output-dir`` overrides ``output.dir``."""
    out = Path(override) if override else experiment.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, say
        message = f"cannot make directory {out}: {exc.strerror}"
        raise InvalidConfigError(message, field="output.dir") from None
    return out


# ---------------------------------------------------------------------------
# run


def cmd_run(config_path: str, output_dir: str | None = None) -> int:
    doc = load_document(config_path)
    experiment = ExperimentConfig.from_document(doc)
    configs = experiment.seeded(parse_sim_config(doc))
    validate_config(configs[0])  # validation reads no seed, so this checks every seed's config
    out = _output_dir(experiment, output_dir)

    digest = config_hash(configs[0])  # the hash leaves out the seed, so it is every seed's
    entries = []
    diverged = 0
    for config in configs:
        seed = config.seed
        entry: dict = {"seed": seed, "config_hash": digest}
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
                    "metrics": _jsonable(_final_metrics(trace)),
                }
            )
            if config.snapshot_stride is not None:
                snap_path = out / f"snapshots_s{seed}.csv"
                _write_snapshot_csv(trace, snap_path)
                entry["snapshots"] = snap_path.name
            print(f"seed {seed}: final_loss={entry['metrics']['final_loss']:.6g} -> {csv_path}")
            del trace  # its T-long columns are written: free them before the next seed runs
        entries.append(entry)

    summary = {
        "config_hash": digest,
        "runs": entries,
        "diverged_total": diverged,
        "seed_count": experiment.seed_count,
    }
    summary_path = out / "run_summary.json"
    _write_json(summary, summary_path)
    print(f"summary -> {summary_path}")
    return 1 if diverged == experiment.seed_count else 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_worker(expanded) -> dict:
    config = expanded.config
    result = {
        "grid_index": expanded.grid_index,
        "seed_index": expanded.seed_index,
        "seed": config.seed,
        "overrides": [[path, _jsonable(value)] for path, value in expanded.overrides],
        "method": config.optimizer.get("method"),
        "eta": None,
        "diverged": False,
        "error": None,
        "metrics": None,
    }
    try:
        trace = run_simulation(config)
    except DivergedRunError as exc:
        result.update(diverged=True, eta=_jsonable(exc.resolved_params.get("eta")))
        return result
    except StalegradError as exc:
        result["error"] = str(exc)
        return result
    result["eta"] = _jsonable(trace.resolved_params.get("eta"))
    result["metrics"] = _jsonable(_final_metrics(trace))
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
        info["robustness"].append({key: point[key] for key in ("eta", "grid_index", "mean", "sd", "diverged")})
    for method, info in methods.items():
        info["best"] = min(
            (p for p in grid_points if p["method"] == method and p["mean"] is not None),
            key=lambda p: (p["mean"], math.inf if p["eta"] is None else p["eta"]),
            default=None,
        )
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
    expanded = experiment.expand()
    for item in expanded:
        if item.seed_index == 0:  # validation reads no seed, so this checks the point's every seed
            validate_config(item.config)
    families = {item.config.objective.get("family") for item in expanded}
    metrics = {_select_metric(experiment.report, family) for family in families}
    if len(metrics) > 1:  # an explicit report.metric is the same at every point
        listed = ", ".join(sorted(metrics))
        message = f"grid points default to different metrics ({listed}); set report.metric"
        raise InvalidConfigError(message, field="sweep.grid.objective.family")
    (metric,) = metrics

    out = _output_dir(experiment, output_dir)
    if experiment.parallelism > 1 and len(expanded) > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: only a pooled sweep loads multiprocessing

        with ProcessPoolExecutor(max_workers=min(experiment.parallelism, len(expanded))) as pool:
            results = list(pool.map(_sweep_worker, expanded))
    else:
        results = [_sweep_worker(item) for item in expanded]

    summary = _aggregate(results, metric)
    summary["grid"] = [[path, list(values)] for path, values in experiment.grid]
    summary["seeds"] = [item.config.seed for item in expanded[: experiment.seed_count]]

    with open(out / "runs.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["grid_index", "seed", "method", "eta", "diverged", *METRICS, "overrides"])
        for row in sorted(results, key=lambda r: (r["grid_index"], r["seed_index"])):
            metrics = row["metrics"] or {}
            writer.writerow(
                [
                    row["grid_index"],
                    row["seed"],
                    row["method"],
                    _number_cell(row["eta"]),
                    int(row["diverged"]),
                    *(_number_cell(metrics.get(name)) for name in METRICS),
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
                        _number_cell(row["eta"]),
                        metric,
                        _number_cell(row["mean"]),
                        _number_cell(row["sd"]),
                        row["diverged"],
                    ]
                )

    _write_json(summary, out / "summary.json")

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
                    "error": not row[metric] and not int(row["diverged"]),  # a finished run has its metric
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


def _agrees(stored, fresh) -> bool:
    """Both absent, or equal within 1e-9 relative (counts exactly)."""
    if stored is None or fresh is None:
        return stored is fresh
    return math.isclose(stored, fresh, rel_tol=1e-9)


def cmd_report(directory: str, check: bool = False) -> int:
    out = Path(directory)
    summary_path, runs_path = out / "summary.json", out / "runs.csv"
    for needed in (summary_path, runs_path) if check else (summary_path,):
        if not needed.exists():
            raise InvalidConfigError(f"no {needed.name} under {out}")
    try:
        with open(summary_path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        text = _format_report(summary)
    except (ValueError, LookupError, TypeError) as exc:  # not JSON, or not a sweep summary
        raise InvalidConfigError(f"{summary_path} is not a sweep summary: {exc!r}") from None
    print(text, end="")
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    if not check:
        return 0

    failures = []
    try:
        recomputed = _reaggregate_from_csv(runs_path, summary["metric"])
    except (ValueError, LookupError) as exc:  # a missing column or a cell that does not parse
        raise InvalidConfigError(f"{runs_path} is not a sweep's runs table: {exc!r}") from None
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
            elif not _agrees(stored_best["mean"], fresh_best["mean"]):
                failures.append(f"{method}: best mean mismatch")
    for method in sorted(recomputed["methods"].keys() - summary["methods"].keys()):
        failures.append(f"method {method} missing from summary.json")
    fresh_points = {point["grid_index"]: point for point in recomputed["grid_points"]}
    for point in summary["grid_points"]:
        fresh = fresh_points.get(point["grid_index"])
        for stat in ("mean", "sd", "diverged", "errors"):
            if fresh is None or not _agrees(point.get(stat, 0), fresh[stat]):
                failures.append(f"grid point {point['grid_index']}: {stat} mismatch")
    for grid_index in sorted(fresh_points.keys() - {point["grid_index"] for point in summary["grid_points"]}):
        failures.append(f"grid point {grid_index} missing from summary.json")
    for total in ("runs_total", "diverged_total", "error_total"):
        if summary.get(total, 0) != recomputed[total]:
            failures.append(f"{total} mismatch: {summary.get(total, 0)!r} in summary.json, {recomputed[total]} in runs.csv")
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


def cmd_validate() -> int:
    from . import checks  # here, so that run and sweep start without the suite

    failures = 0
    for name, check in checks.CHECKS:
        try:
            check()
        except checks.Failure as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        except StalegradError as exc:
            failures += 1
            print(f"FAIL {name}: unexpected error: {exc}")
        else:
            print(f"PASS {name}")
    total = len(checks.CHECKS)
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
    p_run.set_defaults(handler=lambda args: cmd_run(args.config, args.output_dir))

    p_sweep = sub.add_parser("sweep", help="expand and execute a hyperparameter grid")
    p_sweep.add_argument("config", help="path to a YAML config document with a sweep section")
    p_sweep.add_argument("--output-dir", help="override the output directory")
    p_sweep.set_defaults(handler=lambda args: cmd_sweep(args.config, args.output_dir))

    p_validate = sub.add_parser("validate", help="run the invariant suite and report pass/fail per invariant")
    p_validate.set_defaults(handler=lambda args: cmd_validate())

    p_report = sub.add_parser("report", help="render a sweep summary as a text report")
    p_report.add_argument("directory", help="sweep output directory containing summary.json")
    p_report.add_argument(
        "--check",
        action="store_true",
        help="re-derive the aggregation from runs.csv and fail on any mismatch",
    )
    p_report.set_defaults(handler=lambda args: cmd_report(args.directory, args.check))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except StalegradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
