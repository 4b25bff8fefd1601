"""Config documents, grid expansion, and the four CLI subcommands."""

import collections
import copy
import csv
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import make_golden
import stalegrad.analysis as analysis
import stalegrad.checks as checks
import stalegrad.cli as cli
import stalegrad.delays as delays
import stalegrad.objectives as objectives
import stalegrad.optimizers as optimizers
import stalegrad.schema as schema
from stalegrad.config import (
    ExperimentConfig,
    apply_override,
    load_document,
    parse_sim_config,
)
from stalegrad.errors import DivergedRunError, InvalidConfigError, StalegradError
from stalegrad.simulation import RUN_FIELDS, TRACE_COLUMNS, config_hash, run, validate_config

MINIMAL_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "minimal.yaml")
BIAS_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "bias_comparison.yaml")

BASE_DOC = {
    "objective": {
        "family": "quadratic",
        "curvature": [1.0, 2.0],
        "minimizer": [1.0, -1.0],
        "noise_sigma": 0.5,
    },
    "optimizer": {"method": "vanilla", "eta": 0.05},
    "delay": {"slow_weight": 0.1},
    "run": {"workers": 2, "iterations": 40, "seed": 3},
}


def write_doc(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return str(path)


# ---------------------------------------------------------------- documents


def test_minimal_example_config_parses():
    doc = load_document(MINIMAL_CONFIG)
    config = parse_sim_config(doc)
    assert config.num_workers == 1
    assert config.total_iterations == 10
    assert config.snapshot_stride is None
    assert config.record_gradients is False
    assert config.x_init is None


def test_unknown_method_lists_choices():
    doc = dict(BASE_DOC)
    doc["optimizer"] = {"method": "adam", "eta": 0.01}
    with pytest.raises(InvalidConfigError) as err:
        parse_sim_config(doc)
    message = str(err.value)
    assert "optimizer.method" in message and "ordered_momentum" in message


def test_grid_axis_must_be_a_list():
    doc = dict(BASE_DOC)
    doc["sweep"] = {"grid": {"optimizer.eta": 0.05}}
    with pytest.raises(InvalidConfigError) as err:
        ExperimentConfig.from_document(doc)
    assert "sweep.grid.optimizer.eta" in str(err.value)
    doc["sweep"] = {"grid": {"optimizer.method": "vanilla"}}
    with pytest.raises(InvalidConfigError):
        ExperimentConfig.from_document(doc)


def test_apply_override_leaves_the_document_alone():
    doc = {"optimizer": {"method": "vanilla", "eta": 0.05}}
    out = apply_override(doc, "optimizer.eta", 0.01)
    assert doc["optimizer"]["eta"] == 0.05
    assert out["optimizer"]["eta"] == 0.01


def test_apply_override_refuses_a_path_through_a_list_and_creates_a_missing_section():
    doc = {"objective": {"family": "mixture", "components": [{"dim": 2}, {"dim": 2}]}}
    with pytest.raises(InvalidConfigError) as err:
        apply_override(doc, "objective.components.0.curvature", 2.0)
    assert err.value.field == "sweep.grid.objective.components.0.curvature"
    out = apply_override(doc, "delay.slow_weight", 0.2)
    assert out["delay"] == {"slow_weight": 0.2} and "delay" not in doc


@pytest.mark.parametrize("text", ["1e-5", "1E-5", "+1e-5", "1.0e-5", "10e-6", ".01e-3"])
def test_exponent_floats_hash_like_decimals(tmp_path, text):
    """YAML 1.1 reads ``1e-5`` as a string; the loader reads it as the float it spells."""
    doc = copy.deepcopy(BASE_DOC)
    doc["optimizer"]["eta"] = "ETA"
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc).replace("ETA", text))
    config = parse_sim_config(load_document(path))
    assert type(config.optimizer["eta"]) is float and config.optimizer["eta"] == 0.00001
    doc["optimizer"]["eta"] = 0.00001
    assert config_hash(config) == config_hash(parse_sim_config(doc))


def test_loader_leaves_other_scalars_alone(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("run: {a: 1e, b: e5, c: 1e5x, d: 10, e: 0.5, f: 1:30}\n")
    expected = {"a": "1e", "b": "e5", "c": "1e5x", "d": 10, "e": 0.5, "f": 90}
    assert load_document(path)["run"] == expected


# ---------------------------------------------------------------- expansion


def test_experiment_defaults_without_sweep():
    experiment = ExperimentConfig.from_document(BASE_DOC)
    assert experiment.grid == ()
    assert experiment.seed_base == 3 and experiment.seed_count == 1
    assert experiment.parallelism == 1
    assert experiment.output_dir == Path("results")  # relative: resolved against the cwd at use time


def test_expansion_is_grid_major_seed_minor():
    doc = dict(BASE_DOC)
    doc["optimizer"] = {"method": "ordered_momentum", "eta": 0.05, "beta": 0.1}
    doc["sweep"] = {
        "grid": {
            "optimizer.eta": [round(0.01 * (i + 1), 4) for i in range(19)],
            "optimizer.beta": [0.1, 0.2, 0.3],
        },
        "seeds": {"base": 3, "count": 7},
    }
    experiment = ExperimentConfig.from_document(doc)
    expanded = experiment.expand()
    assert len(expanded) == 399
    order = [(e.grid_index, e.config.seed) for e in expanded]
    assert order == [(g, 3 + s) for g in range(57) for s in range(7)]
    # the overrides really landed in the expanded configs
    assert expanded[7].config.optimizer["beta"] == 0.2


def test_expansion_shares_the_document_and_leaves_it_alone():
    doc = copy.deepcopy(BASE_DOC)
    doc["objective"]["curvature"] = [[2.0, 0.5], [0.5, 1.0]]
    doc["sweep"] = {"grid": {"optimizer.eta": [0.05, 0.02], "delay.slow_weight": [0.1, 0.2]}, "seeds": {"count": 2}}
    pristine = copy.deepcopy(doc)
    expanded = ExperimentConfig.from_document(doc).expand()
    assert doc == pristine
    assert [e.config.delay["slow_weight"] for e in expanded[::2]] == [0.1, 0.2, 0.1, 0.2]
    assert all(e.config.objective["curvature"] is doc["objective"]["curvature"] for e in expanded)


def test_a_method_axis_gives_each_run_the_keys_its_method_reads(tmp_path):
    """One optimizer section serves every method on the axis; each run keeps what its method reads."""
    doc = load_document(BIAS_CONFIG)
    base = {"method": "ordered_momentum", "eta": 0.004, "beta": 0.01}
    assert parse_sim_config(doc).optimizer == base
    points = {e.grid_index: e.config.optimizer for e in ExperimentConfig.from_document(doc).expand()}
    assert points == {
        0: base,
        1: {"method": "vanilla", "eta": 0.004},
        2: {"method": "delay_filtered", "eta": 0.004, "tau_filter": 7},
        3: {"method": "naive_momentum", "eta": 0.004, "beta": 0.01},
    }
    alone = {section: doc[section] for section in ("objective", "delay", "run")}
    assert config_hash(parse_sim_config(doc)) == config_hash(parse_sim_config(dict(alone, optimizer=base)))
    short = dict(doc, run=dict(doc["run"], iterations=100), sweep=dict(doc["sweep"], seeds={"count": 1}))
    assert cli.main(["run", write_doc(tmp_path, short), "--output-dir", str(tmp_path / "out")]) == 0


#: a method axis on which no method reads the base method's ``beta``
_METHOD_AXIS_DOC = {
    "objective": {"family": "quadratic", "dim": 2},
    "optimizer": {"method": "ordered_momentum", "eta": 0.01, "beta": 0.1},
    "run": {"workers": 2, "iterations": 20},
    "sweep": {"grid": {"optimizer.method": ["vanilla", "delay_filtered"]}},
}


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            _METHOD_AXIS_DOC,
            "optimizer.beta: unknown key; expected one of method, eta (grid point 0: optimizer.method=vanilla)",
        ),
        (
            dict(
                BASE_DOC,
                objective={"family": "quadratic", "dim": 2},
                sweep={"grid": {"optimizer.eta": [0.05], "objective.domain.radius": [1.0, -1.0]}},
            ),
            "objective.domain.radius: must be in (0, 1e+150], got -1.0"
            " (grid point 1: optimizer.eta=0.05; objective.domain.radius=-1.0)",
        ),
    ],
    ids=["optimizer-key", "objective"],
)
def test_a_refused_grid_point_names_its_field_and_its_overrides(tmp_path, capsys, doc, message):
    with pytest.raises(InvalidConfigError) as err:
        ExperimentConfig.from_document(doc).expand()
    assert str(err.value) == message and err.value.field == message.split(":")[0]
    path = write_doc(tmp_path, doc)
    assert cli.main(["sweep", path, "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
    assert cli.main(["run", path, "--output-dir", str(tmp_path / "run")]) == 0  # the document's own run is sound


def test_a_document_without_a_grid_expands_to_its_own_run_and_refuses_it_unnamed():
    doc = dict(BASE_DOC, optimizer={"method": "vanilla"})
    experiment = ExperimentConfig.from_document(doc)  # eta is a run's, checked when it is validated
    with pytest.raises(InvalidConfigError, match=r"^optimizer\.eta: missing$"):
        experiment.expand()
    assert [e.config for e in ExperimentConfig.from_document(BASE_DOC).expand()] == [parse_sim_config(BASE_DOC)]


def test_each_command_walks_the_command_sections_once(tmp_path, monkeypatch):
    walked = collections.Counter()
    walk = schema.walk

    def counted(node, prefix, *args):
        walked[prefix] += 1
        return walk(node, prefix, *args)

    monkeypatch.setattr(schema, "walk", counted)
    grid = {"optimizer.eta": [0.01 * (i + 1) for i in range(7)], "delay.slow_weight": [0.1, 0.2]}
    sweep = write_doc(tmp_path, dict(BASE_DOC, sweep={"grid": grid}))
    commands = ("sweep", "output", "report", "sweep.seeds")
    assert cli.main(["sweep", sweep, "--output-dir", str(tmp_path / "sweep")]) == 0
    assert [walked[prefix] for prefix in commands] == [1, 1, 1, 1]
    walked.clear()
    assert cli.main(["run", write_doc(tmp_path, BASE_DOC, "run.yaml"), "--output-dir", str(tmp_path / "run")]) == 0
    assert [walked[prefix] for prefix in commands] == [1, 1, 1, 1]


# ---------------------------------------------------------------- run command


def _write_trace_csv_row_by_row(trace, path):
    """The trace CSV written one row at a time, converting one cell at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for i in range(len(trace)):
            writer.writerow(
                [
                    int(trace.t[i]),
                    int(trace.worker_id[i]),
                    int(trace.dispatch_iteration[i]),
                    int(trace.tau[i]),
                    trace.component[i],
                    repr(float(trace.loss[i])),
                    repr(float(trace.grad_norm[i])),
                    int(trace.pending_size[i]),
                ]
            )


def _write_snapshot_csv_row_by_row(trace, path):
    """The snapshot CSV written one row at a time, converting one cell at a time."""
    dim = trace.snapshots.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"x{j}" for j in range(dim)])
        for step, row in zip(trace.snapshot_steps, trace.snapshots):
            writer.writerow([int(step)] + [repr(float(v)) for v in row])


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_chunked_trace_csv_matches_a_row_by_row_writer(tmp_path, monkeypatch, extra):
    """Both CSV files, written a chunk of 16 rows at a time, against a row-by-row
    ``csv.writer``; the snapshots hold a negative zero and an exponent-form repr."""
    rows = 16
    doc = copy.deepcopy(BASE_DOC)
    doc["run"].update(workers=4, iterations=rows + extra, snapshot_stride=1, x_init=[-0.0, 1e-300])
    trace = cli.run_simulation(parse_sim_config(doc))
    assert len(trace) == len(trace.snapshot_steps) == rows + extra and set(trace.component) == {"slow", "fast"}
    assert repr(trace.snapshots[0].tolist()) == "[-0.0, 1e-300]"
    writers = [
        (cli._write_trace_csv, _write_trace_csv_row_by_row, len(TRACE_COLUMNS)),
        (cli._write_snapshot_csv, _write_snapshot_csv_row_by_row, 1 + trace.snapshots.shape[1]),
    ]
    for write, write_row_by_row, width in writers:
        monkeypatch.setattr(cli, "_CSV_CHUNK", rows * width)  # cells, so `rows` rows a chunk
        write(trace, tmp_path / "chunked.csv")
        write_row_by_row(trace, tmp_path / "rows.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_run_writes_snapshots_when_strided(tmp_path):
    doc = dict(BASE_DOC)
    doc["run"] = dict(BASE_DOC["run"], snapshot_stride=10)
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--output-dir", str(out)]) == 0
    with open(out / "snapshots_s3.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    assert [int(r[0]) for r in rows[1:]] == [1, 11, 21, 31, 40]


# ---------------------------------------------------------------- sweep command


def sweep_doc(parallelism=1):
    doc = dict(BASE_DOC)
    doc["sweep"] = {
        "grid": {"optimizer.eta": [0.05, 0.02]},
        "seeds": {"base": 3, "count": 2},
        "parallelism": parallelism,
    }
    return doc


def test_sweep_outputs_and_determinism_across_parallelism(tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(["sweep", write_doc(tmp_path, sweep_doc(1), "s.yaml"), "--output-dir", str(serial)]) == 0
    assert cli.main(["sweep", write_doc(tmp_path, sweep_doc(2), "p.yaml"), "--output-dir", str(parallel)]) == 0
    for name in ("runs.csv", "robustness.csv", "summary.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    with open(serial / "runs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["grid_index", "seed", "method", "eta", "diverged"]
    assert [(r[0], r[1]) for r in rows[1:]] == [("0", "3"), ("0", "4"), ("1", "3"), ("1", "4")]

    summary = json.loads((serial / "summary.json").read_text())
    assert summary["runs_total"] == 4
    assert "vanilla_metric_ratio" in summary["acceptance"]


def test_single_point_sweep_matches_run(tmp_path):
    doc = sweep_doc()
    doc["sweep"]["grid"] = {"optimizer.eta": [0.05]}
    path = write_doc(tmp_path, doc)
    run_dir, sweep_dir = tmp_path / "run", tmp_path / "sweep"
    assert cli.main(["run", path, "--output-dir", str(run_dir)]) == 0
    assert cli.main(["sweep", path, "--output-dir", str(sweep_dir)]) == 0

    summary = json.loads((run_dir / "run_summary.json").read_text())
    by_seed = {entry["seed"]: entry["metrics"]["final_loss"] for entry in summary["runs"]}
    with open(sweep_dir / "runs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        assert float(row[5]) == by_seed[int(row[1])]


def _swept_metric(tmp_path, doc) -> str:
    """The metric a sweep of ``doc`` reports, checked to agree across its outputs."""
    out = tmp_path / "out"
    assert cli.main(["sweep", write_doc(tmp_path, doc), "--output-dir", str(out)]) == 0
    metric = json.loads((out / "summary.json").read_text())["metric"]
    with open(out / "robustness.csv", newline="") as fh:
        assert {row["metric"] for row in csv.DictReader(fh)} == {metric}
    return metric


def test_sweep_reports_the_metric_its_report_section_names(tmp_path):
    doc = dict(sweep_doc(), report={"metric": "final_distance"})
    assert _swept_metric(tmp_path, doc) == "final_distance"


def test_nonconvex_sweep_defaults_to_the_gradient_norm_metric(tmp_path):
    # the family has a closed-form f*, so only its own rule keeps final_excess out
    objective = {"family": "nonconvex", "dim": 2, "minimizer": [0.5, -0.5], "noise_sigma": 0.5}
    assert _swept_metric(tmp_path, dict(sweep_doc(), objective=objective)) == "avg_sq_grad_norm"


@pytest.mark.parametrize("metric", ["final_loss", "avg_sq_grad_norm"])
def test_logistic_sweep_reports_the_metrics_that_need_no_optimum(tmp_path, metric):
    objective = {"family": "logistic", "classes": 2, "feature_dim": 2, "samples": 20}
    assert _swept_metric(tmp_path, dict(sweep_doc(), objective=objective, report={"metric": metric})) == metric


def test_a_family_axis_sweeps_under_a_metric_every_family_reports(tmp_path):
    doc = dict(sweep_doc(), objective={"family": "quadratic", "dim": 3}, report={"metric": "final_loss"})
    doc["sweep"] = dict(doc["sweep"], grid={"objective.family": ["quadratic", "logistic"]})
    assert _swept_metric(tmp_path, doc) == "final_loss"


@pytest.mark.parametrize(
    "value",
    ["fast", math.inf, math.nan, 10**400, True, "0.5"],
    ids=["word", "inf", "nan", "huge-int", "bool", "numeral"],
)
@pytest.mark.parametrize(
    "field",
    [
        "optimizer.eta",
        "optimizer.beta",
        "optimizer.gamma",
        "optimizer.tau_filter",
        "delay.slow_weight",
    ],
)
def test_run_rejects_malformed_numbers_before_running(tmp_path, capsys, field, value):
    doc = copy.deepcopy(BASE_DOC)
    section, key = field.split(".")
    doc[section][key] = value
    path = write_doc(tmp_path, doc)
    assert cli.main(["run", path, "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "out").exists()


_QUAD_2D = {"family": "quadratic", "dim": 2}
_MIXTURE_2D = {"family": "mixture", "components": [{"minimizer": [1.0, 0.0]}, {"minimizer": [-1.0, 0.0]}]}
_LOGISTIC = {"family": "logistic"}
_THEORY_MOMENTUM = {"method": "ordered_momentum", "theory": True}
# Theorem 1 needs sigma, which a mixture has only when both curvatures are equal
_UNEQUAL_MIXTURE = dict(
    _MIXTURE_2D, components=[{"minimizer": [1.0, 0.0], "curvature": [1.0, 2.0]}, {"minimizer": [-1.0, 0.0]}]
)
# Theorem 2 needs sigma_l, which the logistic family lacks
_LOGISTIC_BALL = dict(_LOGISTIC, classes=2, feature_dim=2, domain={"center": [0.0] * 4, "radius": 5.0})
_UNIT_BALL_2D = dict(_QUAD_2D, domain={"center": [0.0, 0.0], "radius": 1.0})
_MU2 = {"method": "ordered_mu2", "eta": 0.01}
_ADAPTIVE = {"method": "delay_adaptive"}
_WIDEST = {"family": "quadratic", "dim": schema.MAX_DIM}
_AT_THE_BUDGET = {"workers": schema.MAX_DIM, "iterations": schema.MAX_DIM, "snapshot_stride": 1}
_HUGE_MIXTURE = dict(_MIXTURE_2D, components=[{"minimizer": [1e308, 0.0]}, {"minimizer": [-1.0, 0.0]}])


def _run_from(x_init):
    return dict(BASE_DOC["run"], x_init=x_init)


_FAMILY_AXIS = {
    "objective": {"family": "quadratic", "dim": 3},
    "sweep": {"grid": {"objective.family": ["quadratic", "logistic"]}},
}


@pytest.mark.parametrize(
    "sections, field",
    [
        ({"objective": {"family": "nonconvex", "dim": 2, "squash_scale": math.inf}}, "objective.squash_scale"),
        ({"objective": {"family": "logistic", "classes": 2.5}}, "objective.classes"),
        ({"objective": {"family": "quadratic", "minimizer": [1.0, math.nan]}}, "objective.minimizer"),
        ({"objective": dict(_QUAD_2D, curvture=[5.0, 9.0])}, "objective.curvture"),
        ({"objective": dict(_QUAD_2D, noise_simga=3.0)}, "objective.noise_simga"),
        ({"objective": dict(_QUAD_2D, domain={"center": [0.0], "radius": 1.0})}, "objective.domain"),
        ({"run": {"workers": 2, "iterations": 40, "x_init": [0.0]}}, "run.x_init"),
        ({"optimizer": {"method": "vanilla", "eta": 0.05, "theory": True}}, "optimizer.theory"),
        ({"optimizer": {"method": "vanilla", "eta": 0.05, "beta": 0.5, "gamma": 0.3, "tau_filter": 2}}, "optimizer.beta"),
        ({"report": {"metric": "accuracy"}, "sweep": {"grid": {"optimizer.eta": [0.05]}}}, "report.metric"),
        (
            {"objective": _LOGISTIC, "report": {"metric": "final_excess"}, "sweep": {"grid": {"optimizer.eta": [0.05]}}},
            "report.metric",
        ),
        (
            {"objective": _LOGISTIC, "report": {"metric": "final_distance"}, "sweep": {"grid": {"optimizer.eta": [0.05]}}},
            "report.metric",
        ),
        ({"sweep": {"grid": {"run.seed": [1, 2, 3]}}}, "sweep.grid.run.seed"),
        (_FAMILY_AXIS, "sweep.grid.objective.family"),
        (dict(_FAMILY_AXIS, report={"metric": "final_excess"}), "report.metric"),
        ({"objective": dict(_MIXTURE_2D, weights=[0.1, 0.9])}, "objective.weights"),
        ({"objective": dict(_MIXTURE_2D, components=_MIXTURE_2D["components"] * 2)}, "objective.components"),
        ({"objective": {"family": "quadratic", "matrix": 2.0, "minimizer": [1.0, -1.0]}}, "objective.matrix"),
        ({"objective": dict(_LOGISTIC, separation=2.0)}, "objective.separation"),
        ({"objective": dict(_LOGISTIC, data_seed=0)}, "objective.data_seed"),
        ({"optimizer": {"method": "vanilla", "eta": 0.05, "bound_constant": 1}}, "optimizer.bound_constant"),
        ({"optimizer": {"method": "delay_adaptive", "lipschitz": 2.0}}, "optimizer.lipschitz"),
        ({"optimizer": {"method": "delay_adaptive", "delta_gap": 2.0}}, "optimizer.delta_gap"),
        ({"optimizer": {"method": "delay_adaptive", "sigma": 2.0}}, "optimizer.sigma"),
        ({"objective": _LOGISTIC, "optimizer": {"method": "delay_adaptive"}}, "optimizer.method"),
        ({"delay": {"slow_weight": 0.1, "arrival_probs": [0.5, 0.5]}}, "delay.arrival_probs"),
        ({"sweep": {"grid": {"optimizer.eta": [0.05]}, "write_traces": False}}, "sweep.write_traces"),
        ({"objective": {"family": "quadratic", "dim": True}}, "objective.dim"),
        ({"objective": dict(_LOGISTIC, feature_dim=True)}, "objective.feature_dim"),
        ({"objective": dict(_LOGISTIC, feature_dim=0)}, "objective.feature_dim"),
        ({"output": {"dir": 5}}, "output.dir"),
        ({"run": {"workers": 2, "iterations": 10**9}}, "run.iterations"),
        ({"run": {"workers": "x"}}, "run.workers"),  # one pass in table order: workers before iterations
        (
            {"objective": _QUAD_2D, "run": {"workers": 2, "iterations": 9_000_000, "record_gradients": True}},
            "run.iterations",
        ),
        ({"objective": {"family": "quadratic", "minimizer": [[1.0, 2.0], [3.0, 4.0]]}}, "objective.minimizer"),
        ({"objective": {"family": "quadratic", "minimizer": []}}, "objective.minimizer"),
        ({"objective": {"family": "quadratic", "offset": [[1.0], [2.0]]}}, "objective.offset"),
        ({"objective": {"family": "quadratic", "offset": []}}, "objective.offset"),
        (
            {"objective": dict(_MIXTURE_2D, components=[{"minimizer": [[1.0, 0.0]]}, {"minimizer": [-1.0, 0.0]}])},
            "objective.components.0.minimizer",
        ),
        ({"objective": dict(_MIXTURE_2D, components=[{"dim": 2}, {"offset": []}])}, "objective.components.1.offset"),
        ({"objective": {"family": "quadratic", "curvature": 1.0e308, "minimizer": [1.0e308, 1.0]}}, "objective.minimizer"),
        ({"sweep": {"grid": {"report.metric": ["final_loss", "final_excess"]}}}, "sweep.grid.report.metric"),
        ({"sweep": {"grid": {"sweep.parallelism": [1, 2]}}}, "sweep.grid.sweep.parallelism"),
        ({"sweep": {"grid": {"optimiser.eta": [0.1]}}}, "sweep.grid.optimiser.eta"),
        ({"sweep": {"grid": {"seed": [1, 2]}}}, "sweep.grid.seed"),
        ({"objective": dict(_QUAD_2D, family=["quadratic"])}, "objective.family"),
        ({"objective": dict(_MIXTURE_2D, components=5)}, "objective.components"),
        ({"objective": dict(_MIXTURE_2D, components=[_MIXTURE_2D["components"][0], 3])}, "objective.components.1"),
        ({"objective": dict(_QUAD_2D, domain={"center": [[0.0, 0.0]], "radius": 1})}, "objective.domain.center"),
        ({"objective": dict(_LOGISTIC, samples=1)}, "objective.samples"),
        ({"objective": _LOGISTIC, "optimizer": _THEORY_MOMENTUM}, "optimizer.theory"),
        ({"objective": _UNEQUAL_MIXTURE, "optimizer": _THEORY_MOMENTUM}, "optimizer.theory"),
        ({"objective": _LOGISTIC_BALL, "optimizer": {"method": "ordered_mu2", "theory": True}}, "optimizer.theory"),
        # finite but huge: refused, not warned about (a warning fails the test)
        ({"objective": _UNIT_BALL_2D, "optimizer": _MU2, "run": _run_from([1e308, 0.0])}, "run.x_init"),
        ({"objective": dict(_QUAD_2D, domain={"center": [1e308, 0.0], "radius": 1.0}), "optimizer": _MU2}, "run.x_init"),
        ({"objective": {"family": "nonconvex", "minimizer": [1e308, 0.0]}, "optimizer": _THEORY_MOMENTUM}, "objective.minimizer"),
        ({"objective": {"family": "quadratic", "minimizer": [1e308, 0.0]}, "optimizer": _ADAPTIVE}, "objective.minimizer"),
        ({"objective": _HUGE_MIXTURE, "optimizer": _THEORY_MOMENTUM}, "objective.components"),
        ({"optimizer": _THEORY_MOMENTUM, "run": _run_from([1e308, 0.0])}, "run.x_init"),
        ({"optimizer": _ADAPTIVE, "run": _run_from([1e308, 0.0])}, "run.x_init"),
        ({"objective": _QUAD_2D, "optimizer": _ADAPTIVE}, "optimizer.method"),
        ({"optimizer": {"method": "vanilla", "eta": True}}, "optimizer.eta"),
        ({"delay": {"slow_weight": "0.1"}}, "delay.slow_weight"),
        ({"objective": {"family": "quadratic", "minimizer": ["1.5", True]}}, "objective.minimizer"),
        ({"objective": dict(_QUAD_2D, domain={"center": [0.0, 0.0], "radius": 1e300}), "optimizer": _MU2}, "objective.domain.radius"),
        ({"objective": dict(_MIXTURE_2D, components=[{"minimizer": [1.0, 0.0]}, {"minimizer": [1.0, 0.0, 2.0]}])}, "objective.components"),
        ({"sweep": {"grid": {"optimizer..eta": [0.1]}}}, "sweep.grid.optimizer..eta"),
        ({"objective": {"family": "quadratic", "curvature": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], "minimizer": [1.0, -1.0]}}, "objective.curvature"),
        # MAX_DIM² floats at most in snapshots; validated only, so none is allocated
        ({"objective": _WIDEST, "run": dict(_AT_THE_BUDGET, workers=2, iterations=schema.MAX_DIM + 1)}, "run.snapshot_stride"),
        # MAX_DIM strided rows and the row of step T
        ({"objective": _WIDEST, "run": dict(_AT_THE_BUDGET, workers=2, iterations=2 * schema.MAX_DIM, snapshot_stride=2)}, "run.snapshot_stride"),
    ],
    ids=[
        "inf-squash", "half-class", "nan-minimizer", "misspelt-curvature", "misspelt-noise",
        "domain-dim", "x_init-length", "theory-unsupported", "unread-optimizer-keys", "unknown-metric",
        "logistic-excess", "logistic-distance", "seed-axis", "family-axis", "family-axis-excess",
        "weights", "three-components", "matrix", "separation", "data_seed", "bound_constant",
        "lipschitz", "delta_gap", "sigma", "adaptive-unsupported", "arrival_probs", "write_traces",
        "dim-true", "feature_dim-true", "feature_dim-zero", "output-dir-number", "iterations-cap",
        "bad-workers-before-missing-iterations", "recorded-iterations-cap",
        "nested-minimizer", "empty-minimizer", "nested-offset", "empty-offset",
        "nested-component-minimizer", "empty-component-offset", "overflowing-minimizer",
        "report-axis", "sweep-axis", "misspelt-section-axis", "sectionless-axis", "family-list",
        "components-number", "component-number", "nested-center", "one-sample",
        "theory-logistic", "theory-unequal-curvatures", "theory-mu2-logistic",
        "huge-x_init-in-ball", "huge-center", "huge-nonconvex-minimizer-theory",
        "huge-minimizer-adaptive", "huge-component-minimizer-theory", "huge-x_init-theory",
        "huge-x_init-adaptive", "adaptive-noise-free", "bool-eta", "string-slow_weight",
        "string-and-bool-minimizer", "huge-radius", "component-dimensions", "empty-grid-segment",
        "non-square-curvature", "snapshots-budget", "snapshots-budget-last-row",
    ],
)
def test_run_rejects_bad_objective_fields_before_running(tmp_path, capsys, sections, field):
    """Fields refused while a command prepares its runs fail it before anything is written."""
    doc = dict(copy.deepcopy(BASE_DOC), **sections)
    command = "sweep" if "sweep" in doc else "run"
    path = write_doc(tmp_path, doc)
    assert cli.main([command, path, "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "out").exists()


def test_a_run_at_the_memory_budget_validates():
    """MAX_DIM workers and MAX_DIM snapshots of MAX_DIM floats each: one more is refused (above)."""
    validate_config(parse_sim_config(dict(BASE_DOC, objective=_WIDEST, run=_AT_THE_BUDGET)))


_FAMILY_SPECS = {
    "quadratic": _QUAD_2D,
    "mixture": {"family": "mixture", "components": [{"dim": 2}, {"dim": 2}]},
    "nonconvex": {"family": "nonconvex", "dim": 2},
    "logistic": {"family": "logistic", "classes": 2, "feature_dim": 1, "samples": 20},  # dim 2, as the ball
}


def _sweep_document(family: str, path: str, method: str = "naive_mu2") -> dict:
    """A valid sweep document of ``family`` and ``method``, with a grid axis other than ``path``."""
    axis = {"delay.slow_weight": [0.1]} if path == "run.snapshot_stride" else {"run.snapshot_stride": [5]}
    optimizer = {"method": method, "eta": 0.05, "beta": 0.5, "gamma": 0.5, "tau_filter": 2.0}
    return copy.deepcopy(
        {
            "objective": dict(_FAMILY_SPECS[family], domain={"center": [0.0, 0.0], "radius": 1.0}),
            "optimizer": {key: value for key, value in optimizer.items() if key in schema.names("optimizer", method)},
            "delay": {"slow_weight": 0.1},
            "run": {"workers": 2, "iterations": 20, "seed": 3},
            "sweep": {"grid": axis, "seeds": {"count": 1}},
        }
    )


def _document_reading(key: schema.Key, path: str) -> dict:
    """A valid sweep document whose runs read ``key`` at ``path`` (in a mixture, below
    ``objective.components``); a grid axis elsewhere."""
    if path.startswith("objective.components."):
        return _sweep_document("mixture", path)
    if path.startswith("optimizer.") and key.readers:
        return _sweep_document("quadratic", path, key.readers[0])
    return _sweep_document(key.readers[0] if path.startswith("objective.") else "quadratic", path)


def _setting(doc: dict, path: str, value) -> dict:
    """``doc`` with ``value`` at the dotted ``path`` (a number indexes a list); ``value`` itself at ''."""
    if not path:
        return value
    *parents, name = path.split(".")
    node = doc
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    node[int(name) if isinstance(node, list) else name] = value
    return doc


def _assert_sweep_refuses(tmp_path, capsys, doc, start: str):
    """``stalegrad sweep`` fails on ``doc`` with an error that begins ``start``, before making its output directory."""
    path = write_doc(tmp_path, doc)
    assert cli.main(["sweep", path, "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {start}")
    assert not (tmp_path / "out").exists()


def _refused(key: schema.Key) -> dict:
    """The values ``key``'s kind refuses, by name: the wrong types (a numeral string, and a
    whole float where an integer is due), the far side of each end of its range, too large
    for a float, a list longer than MAX_DIM or with an entry of a wrong type, and null
    where the key has a default."""
    kind = key.kind
    out = {"bool": True, "string": "x", "numeral": "0.5", "nested-list": [[1.0, 2.0]]}
    out.update({"nan": math.nan, "inf": math.inf, "-inf": -math.inf})
    if key.default is not None:
        out["null"] = None
    if isinstance(kind, schema.Of):
        if kind.type is bool:
            out.update(bool=1, string="true")
        elif kind.type is str:
            out["string"] = ""
            del out["numeral"]  # a valid path
    elif isinstance(kind, schema.Integer):
        out.update({"fraction": 2.5, "whole-float": 3.0, "below": kind.low - 1})
        if kind.high is not None:
            out["above"] = kind.high + 1
    elif isinstance(kind, schema.Number):
        out.update(below=math.nextafter(kind.low, -math.inf) if kind.low_closed else kind.low)
        out["float-overflow"] = 10**400
        if math.isfinite(kind.high):
            out["above"] = math.nextafter(kind.high, math.inf) if kind.high_closed else kind.high
    elif isinstance(kind, schema.Numbers):
        out.update({"empty": [], "nan-entry": [1.0, math.nan], "null-entry": [None, 1.0], "float-overflow": [10**400]})
        out.update({"bool-entry": [1.0, True], "string-entry": [1.0, "x"], "numeral-entry": [1.0, "0.5"]})
        out["too-long"] = [0.0] * (schema.MAX_DIM + 1)
        if kind.matrix:
            out["nested-list"] = [[[1.0]]]
    return out


#: where each key is read: at its own path, and at the first mixture component's if a component reads it
_PLACES = [(key.path, key) for key in schema.KEYS] + [
    ("objective.components.0." + key.path.rsplit(".", 1)[1], key) for key in schema.KEYS if schema.COMPONENT in key.readers
]
_REFUSALS = [(path, key, name, value) for path, key in _PLACES for name, value in _refused(key).items()]


def test_the_table_lists_the_32_settable_keys_once():
    paths = [key.path for key in schema.KEYS]
    assert len(paths) == len(set(paths)) == 32
    assert {key.path for _, key, _, _ in _REFUSALS} == set(paths)


@pytest.mark.parametrize("key", schema.KEYS, ids=lambda key: key.path)
def test_each_key_refuses_from_a_valid_sweep_document(key):
    assert len(_prepare_sweep(_document_reading(key, key.path))) == 1


@pytest.mark.parametrize("path, key, name, value", _REFUSALS, ids=[f"{path}-{name}" for path, _, name, _ in _REFUSALS])
def test_each_key_refuses_what_its_kind_refuses(tmp_path, capsys, path, key, name, value):
    message = "an entry is null, not a number" if name == "null-entry" else ""
    _assert_sweep_refuses(tmp_path, capsys, _setting(_document_reading(key, path), path, value), f"{path}: {message}")


#: the path of each mapping the table describes ('' is the document), and a mixture component
_MAPPINGS = sorted(
    {".".join(key.path.split(".")[:depth]) for key in schema.KEYS for depth in range(key.path.count(".") + 1)}
) + ["objective.components.0"]


@pytest.mark.parametrize("case", ["unknown-key", "not-a-mapping"])
@pytest.mark.parametrize("mapping", _MAPPINGS, ids=lambda path: path or "document")
def test_each_mapping_refuses_an_unknown_key_and_a_non_mapping(tmp_path, capsys, mapping, case):
    doc = _sweep_document("mixture" if mapping.startswith("objective.components") else "quadratic", mapping)
    if case == "unknown-key":
        path = f"{mapping}.unknown_key".lstrip(".")
        _assert_sweep_refuses(tmp_path, capsys, _setting(doc, path, 1), f"{path}: unknown key")
    else:
        start = f"{mapping}: must be a mapping" if mapping else "config document must be a mapping"
        _assert_sweep_refuses(tmp_path, capsys, _setting(doc, mapping, 5), start)


def test_blame_names_the_field_of_a_raw_error():
    """No document reaches this guard (the table refuses first), but a raw error while building gets a field path."""
    with pytest.raises(InvalidConfigError, match=r"^objective: malformed entry: ValueError\('bad'\)$"):
        with schema.blame("objective"):
            raise ValueError("bad")


def test_the_readme_key_block_names_the_32_keys_of_the_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config documents", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    table = {key.path for key in schema.KEYS}

    def paths(node, prefix=""):
        for name, value in node.items():
            path = prefix + name
            if isinstance(value, dict) and path not in table:
                yield from paths(value, path + ".")
            else:
                yield path

    assert sorted(paths(yaml.safe_load(block))) == sorted(table)

    # each integer's range, in the comment of the line that sets it; a rule raises iterations' low end
    shown, lows = {schema.MAX_DIM: "4096", schema.MAX_DIM**2: "4096²"}, {"run.iterations": "workers"}
    for key in schema.KEYS:
        if isinstance(key.kind, schema.Integer):
            low = lows.get(key.path, key.kind.low)
            expected = f">= {low}" if key.kind.high is None else f"{low}..{shown[key.kind.high]}"
            name = key.path.rsplit(".", 1)[1]
            [line] = [line for line in block.splitlines() if re.search(rf"\b{name}:", line.split("#")[0])]
            assert re.search(rf"(?<!\S){re.escape(expected)}(?![\d²])", line.split("#", 1)[1]), key.path


@pytest.mark.parametrize(
    "doc",
    [
        dict(BASE_DOC, objective={"dim": 2}, sweep={"grid": {"objective.family": ["quadratic", "nonconvex"]}},
             report={"metric": "final_loss"}),
        dict(BASE_DOC, optimizer={"method": "vanilla"}, sweep={"grid": {"optimizer.eta": [0.05, 0.02]}}),
    ],
    ids=["family-from-the-grid", "eta-from-the-grid"],
)
def test_a_grid_axis_supplies_a_key_the_base_leaves_out(doc):
    assert len(_prepare_sweep(doc)) == 2


@pytest.mark.parametrize(
    "objective",
    [_QUAD_2D, _MIXTURE_2D, {"family": "nonconvex", "dim": 2}, _LOGISTIC],
    ids=["quadratic", "mixture", "nonconvex", "logistic"],
)
def test_default_metric_is_the_excess_where_the_family_has_a_closed_form_optimum(objective):
    metric = cli._select_metric({}, objective["family"])
    has_f_star = objectives.from_spec(objective, 0.1).theory_constants().f_star is not None
    if objective["family"] == "nonconvex":  # judged by its gradient norm despite its f*
        assert has_f_star and metric == "avg_sq_grad_norm"
    else:
        assert metric == ("final_excess" if has_f_star else "avg_sq_grad_norm")


def test_commands_build_each_objective_only_to_validate_and_to_run(tmp_path, monkeypatch):
    builds = []
    build = objectives.from_spec

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(objectives, "from_spec", counted)
    assert cli.main(["sweep", write_doc(tmp_path, sweep_doc()), "--output-dir", str(tmp_path / "sweep")]) == 0
    assert len(builds) == 2 + 4  # each of 2 grid points validated once, then 2 × 2 seeds run
    builds.clear()
    doc = dict(BASE_DOC, sweep={"seeds": {"count": 2}})
    assert cli.main(["run", write_doc(tmp_path, doc, "run.yaml"), "--output-dir", str(tmp_path / "run")]) == 0
    assert len(builds) == 1 + 2  # the base config validated once, then 2 seeds run


def test_run_frees_each_seed_trace_before_the_next_seed_runs(tmp_path):
    """With ``record_gradients`` a trace holds three T×d arrays (3 MiB here); a
    two-seed run must not hold the first seed's while the second runs."""
    doc = dict(
        BASE_DOC,
        objective={"family": "quadratic", "dim": 64, "noise_sigma": 0.5},
        run={"workers": 2, "iterations": 2000, "seed": 3, "record_gradients": True},
    )
    peaks = []
    for count in (1, 2):
        path = write_doc(tmp_path, dict(doc, sweep={"seeds": {"count": count}}), f"run{count}.yaml")
        tracemalloc.start()
        try:
            assert cli.main(["run", path, "--output-dir", str(tmp_path / f"out{count}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def test_commands_hash_a_config_only_where_the_hash_is_written(tmp_path, monkeypatch):
    hashes = []

    def counted(config):
        hashes.append(config)
        return config_hash(config)

    monkeypatch.setattr("stalegrad.simulation.config_hash", counted)
    monkeypatch.setattr(cli, "config_hash", counted)
    assert cli.main(["sweep", write_doc(tmp_path, sweep_doc()), "--output-dir", str(tmp_path / "sweep")]) == 0
    assert hashes == []  # 2 grid points × 2 seeds, and a sweep writes no hash
    doc = dict(BASE_DOC, sweep={"seeds": {"count": 2}})
    assert cli.main(["run", write_doc(tmp_path, doc, "run.yaml"), "--output-dir", str(tmp_path / "run")]) == 0
    assert len(hashes) == 1  # one hash for the summary and both seeds' entries


THEORY_DOC = dict(BASE_DOC, optimizer={"method": "ordered_momentum", "eta": 0.05, "beta": 0.2})


@pytest.mark.parametrize(
    "field, value",
    [
        ("run.workers", 2.5),
        ("run.workers", True),
        ("run.workers", "2"),
        ("run.iterations", 40.0),
        ("run.seed", "3"),
        ("run.seed", 1.5),
        ("run.seed", True),
        ("run.snapshot_stride", "5"),
        ("run.snapshot_stride", 2.5),
        ("run.record_gradients", "no"),
        ("run.x_init", "12"),
        ("optimizer.theory", "false"),
        ("optimizer.etta", 0.05),
        ("optimizer.gamma", 0.5),  # a key ordered momentum does not read
        ("optimizer.tau_filter", 2.0),
        ("delay.slow_weight", 0.0),
        ("delay.slow_weight", 1.0),
        ("delay.slow_weight", math.nan),
    ],
)
def test_malformed_run_fields_name_their_path(field, value):
    """A SimConfig built in code skips ExperimentConfig.from_document; constructing it must still refuse it
    (before the run, whose delay model checks the slow weight again)."""
    section, key = field.split(".")
    valid = parse_sim_config(THEORY_DOC)
    with pytest.raises(InvalidConfigError) as err:
        if section in ("optimizer", "delay"):
            dataclasses.replace(valid, **{section: dict(getattr(valid, section), **{key: value})})
        else:
            dataclasses.replace(valid, **{RUN_FIELDS.get(key, key): value})
    assert err.value.field == field


_SMALL_RUN = {"workers": 3, "iterations": 20, "seed": 1}
_VALID_DOCS = [
    dict(BASE_DOC, run={"workers": 2, "iterations": 20, "seed": 3}),
    dict(BASE_DOC, optimizer={"method": "ordered_momentum", "theory": True}, run=_SMALL_RUN),
    {
        "objective": {
            "family": "quadratic",
            "curvature": [1.0, 1.0],
            "minimizer": [0.5, 0.0],
            "noise_sigma": 1.0,
            "domain": {"center": [0.0, 0.0], "radius": 1.0},
        },
        "optimizer": {"method": "ordered_mu2", "eta": 0.01},
        "delay": {"slow_weight": 0.1},
        "run": dict(_SMALL_RUN, x_init=[0.5, 0.0], snapshot_stride=4, record_gradients=True),
    },
    {
        "objective": {
            "family": "mixture",
            "components": [{"minimizer": [1.0, 0.0]}, {"minimizer": [-1.0, 0.0]}],
            "noise_sigma": 0.6,
        },
        "optimizer": {"method": "naive_mu2", "eta": 0.01, "beta": 0.5, "gamma": 0.5},
        "delay": {"slow_weight": 0.1},
        "run": _SMALL_RUN,
    },
    {
        "objective": {
            "family": "nonconvex",
            "dim": 3,
            "minimizer": [0.5, -0.5, 1.0],
            "squash_scale": 2.0,
            "noise_sigma": 0.5,
        },
        "optimizer": {"method": "delay_adaptive"},
        "delay": {"slow_weight": 0.2},
        "run": _SMALL_RUN,
    },
    {
        "objective": {"family": "logistic", "classes": 2, "feature_dim": 2, "samples": 20},
        "optimizer": {"method": "delay_filtered", "eta": 0.05, "tau_filter": 2},
        "delay": {"slow_weight": 0.1},
        "run": _SMALL_RUN,
    },
]


@pytest.mark.parametrize("doc", _VALID_DOCS, ids=lambda doc: doc["optimizer"]["method"])
def test_mutation_base_documents_run(doc):
    """Each base document runs unmutated, so its mutations test more than the failure path."""
    trace = run(parse_sim_config(doc))
    assert len(trace) == doc["run"]["iterations"]


def _paths(node, prefix=()):
    """Every key path in a document, sections included."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield prefix + (key,)
            yield from _paths(child, prefix + (key,))


# Floats are unbounded (±1e308, subnormals, −0.0).  Integers are small, or
# past every sizing key's ceiling and too large for a float: iterations: 10**7
# is valid and runs for minutes, and dim: 4000 is valid and builds a 4000×4000
# eigendecomposition, but 2**31 is refused on every key that sizes a run.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=20),
    st.sampled_from([2**31, 2**64, 10**400]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=4),
    st.lists(st.one_of(st.floats(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.sampled_from(["radius", "center", "dim", "minimizer"]), st.integers(-1, 3), max_size=2),
)


def _mutated(data, docs) -> dict:
    """One of ``docs`` with one key deleted or set to junk."""
    doc = copy.deepcopy(data.draw(st.sampled_from(docs)))
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=str)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JUNK)
    return doc


def _run_or_name_a_field(doc) -> str:
    """How ``doc`` ended: it ran, it diverged, or it was refused with a field path."""
    try:
        run(parse_sim_config(doc))
    except InvalidConfigError as exc:
        assert exc.field, f"{exc} names no field"
        return "refused"
    except DivergedRunError:
        return "diverged"  # a run that blows up still ran
    return "ran"


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_run_or_name_a_field(data):
    _run_or_name_a_field(_mutated(data, _VALID_DOCS))


def test_a_mutated_document_that_diverges_raises_without_a_warning():
    """The derandomized examples above diverge nowhere; this one does.  The suite turns
    every warning into an error, so an overflow warning would fail it before the raise."""
    doc = copy.deepcopy(_VALID_DOCS[0])
    doc["optimizer"]["eta"] = 1e308
    assert _run_or_name_a_field(doc) == "diverged"


_SWEEP_DOCS = [
    dict(
        _VALID_DOCS[2],
        sweep={
            "grid": {"optimizer.method": ["ordered_mu2", "vanilla"], "objective.domain.radius": [1.0, 2.0]},
            "seeds": {"base": 1, "count": 2},
            "parallelism": 2,
        },
        report={"metric": "final_excess"},
        output={"dir": "out/mutated"},
    ),
    dict(_VALID_DOCS[3], sweep={"grid": {"delay.slow_weight": [0.1, 0.3]}}, report={"metric": "final_distance"}),
    dict(_VALID_DOCS[5], sweep={"grid": {"optimizer.tau_filter": [1, 2]}, "seeds": {"count": 2}}, report={}),
]


def _prepare_sweep(doc) -> list:
    """What ``stalegrad sweep`` does before it runs anything: expand, validate, pick the metric."""
    experiment = ExperimentConfig.from_document(doc)
    expanded = experiment.expand()
    for item in expanded:
        validate_config(item.config)
    cli._select_metric(experiment.report, expanded[0].config.objective.get("family"))
    return expanded


def test_sweep_mutation_base_documents_expand():
    assert [len(_prepare_sweep(doc)) for doc in _SWEEP_DOCS] == [8, 2, 4]


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_sweep_documents_expand_or_name_a_field(data):
    try:
        _prepare_sweep(_mutated(data, _SWEEP_DOCS))
    except InvalidConfigError as exc:
        assert exc.field, f"{exc} names no field"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("given", ["flag", "document"])
def test_an_output_path_that_is_a_file_is_refused(tmp_path, capsys, monkeypatch, command, given):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    doc = sweep_doc() if command == "sweep" else dict(BASE_DOC)
    argv = [command]
    if given == "flag":
        argv += [write_doc(tmp_path, doc), "--output-dir", str(taken)]
    else:
        argv += [write_doc(tmp_path, dict(doc, output={"dir": str(taken)}))]
    runs = []
    monkeypatch.setattr(cli, "run_simulation", runs.append)
    assert cli.main(argv) == 1
    assert runs == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: output.dir: ")
    assert taken.read_text() == "not a directory\n"


def test_sweep_without_grid_is_an_error(tmp_path, capsys):
    path = write_doc(tmp_path, BASE_DOC)
    assert cli.main(["sweep", path, "--output-dir", str(tmp_path / "out")]) == 1
    assert "sweep.grid" in capsys.readouterr().err


# ---------------------------------------------------------------- report command


def test_report_and_check(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["sweep", write_doc(tmp_path, sweep_doc()), "--output-dir", str(out)]) == 0
    assert cli.main(["report", str(out)]) == 0
    assert (out / "report.txt").exists()
    assert cli.main(["report", str(out), "--check"]) == 0
    assert "CHECK PASS" in capsys.readouterr().out


def test_report_check_catches_tampering(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["sweep", write_doc(tmp_path, sweep_doc()), "--output-dir", str(out)]) == 0
    pristine = (out / "runs.csv").read_text()
    summary = json.loads((out / "summary.json").read_text())
    best = {info["best"]["grid_index"] for info in summary["methods"].values()}

    def nudge_first_row(rows):  # one cell of the aggregated metric
        rows[1][6] = repr(float(rows[1][6]) + 1.0)

    def scale_non_best_row(rows):  # a grid point that no best configuration reads
        row = next(r for r in rows[1:] if int(r[0]) not in best)
        row[6] = repr(float(row[6]) * 1.5)

    for tamper in (nudge_first_row, scale_non_best_row):
        rows = list(csv.reader(pristine.splitlines()))
        tamper(rows)
        with open(out / "runs.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert cli.main(["report", str(out), "--check"]) == 2, tamper.__name__
        assert "CHECK FAIL" in capsys.readouterr().out

    (out / "runs.csv").write_text(pristine)
    robustness = (out / "robustness.csv").read_text()
    rows = list(csv.reader(robustness.splitlines()))
    rows[1][3] = "999.0"  # the first row's mean
    with open(out / "robustness.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert cli.main(["report", str(out), "--check"]) == 2
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("CHECK")] == [
        "CHECK FAIL: robustness.csv does not reproduce from runs.csv"
    ]
    (out / "robustness.csv").write_text(robustness)
    pristine_summary = (out / "summary.json").read_text()
    vanilla, point = summary["methods"]["vanilla"], summary["grid_points"][0]
    low, ratio = vanilla["robustness"][0], summary["acceptance"]["vanilla_metric_ratio"]
    other_eta = next(p["eta"] for p in summary["grid_points"] if p["eta"] != vanilla["best"]["eta"])
    # each row: the path of one value of summary.json, its tampered value, and the CHECK lines
    for keys, value, *failures in (
        (("methods", "naive_momentum"), vanilla, "methods.naive_momentum missing from runs.csv"),
        (("methods", "vanilla", "best"), None, "methods.vanilla.best: None in summary.json, {"),
        (
            ("methods", "vanilla", "best", "mean"),
            vanilla["best"]["mean"] * 1.01,
            f"methods.vanilla.best.mean: {vanilla['best']['mean'] * 1.01!r} in summary.json, {vanilla['best']['mean']!r} in runs.csv",
        ),
        (
            ("methods", "vanilla", "best", "eta"),
            other_eta,
            f"methods.vanilla.best.eta: {other_eta!r} in summary.json, {vanilla['best']['eta']!r} in runs.csv",
        ),
        (
            ("methods", "vanilla", "best", "sd"),
            vanilla["best"]["sd"] * 2,
            f"methods.vanilla.best.sd: {vanilla['best']['sd'] * 2!r} in summary.json, {vanilla['best']['sd']!r} in runs.csv",
        ),
        (
            ("methods", "vanilla", "robustness", 0, "mean"),
            low["mean"] * 2,
            f"methods.vanilla.robustness[0].mean: {low['mean'] * 2!r} in summary.json, {low['mean']!r} in runs.csv",
        ),
        (
            ("acceptance", "vanilla_unstable_gt_10"),
            False,
            "acceptance.vanilla_unstable_gt_10: False in summary.json, True in runs.csv",
        ),
        (
            ("acceptance", "vanilla_metric_ratio"),
            ratio * 2,
            f"acceptance.vanilla_metric_ratio: {ratio * 2!r} in summary.json, {ratio!r} in runs.csv",
        ),
        (
            ("acceptance",),
            {},
            "acceptance.vanilla_metric_ratio missing from summary.json",
            "acceptance.vanilla_unstable_gt_10 missing from summary.json",
        ),
        (("grid_points",), summary["grid_points"][:1], "grid_points[1] missing from summary.json"),
        (("grid_points", 0, "eta"), 0.5, f"grid_points[0].eta: 0.5 in summary.json, {point['eta']!r} in runs.csv"),
        (
            ("grid_points", 0, "method"),
            "naive_momentum",
            "grid_points[0].method: 'naive_momentum' in summary.json, 'vanilla' in runs.csv",
        ),
        (("grid_points", 0, "seeds"), [*point["seeds"], 99], "grid_points[0].seeds[2] missing from runs.csv"),
        (("grid_points", 0, "errors"), 2, "grid_points[0].errors: 2 in summary.json, 0 in runs.csv"),
        (("runs_total",), 3, "runs_total: 3 in summary.json, 4 in runs.csv"),
        (("diverged_total",), 1, "diverged_total: 1 in summary.json, 0 in runs.csv"),
        (("error_total",), 3, "error_total: 3 in summary.json, 0 in runs.csv"),
    ):
        tampered = json.loads(pristine_summary)
        *parents, last = keys
        node = tampered
        for key in parents:
            node = node[key]
        node[last] = value
        (out / "summary.json").write_text(json.dumps(tampered))
        assert cli.main(["report", str(out), "--check"]) == 2, failures
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("CHECK")]
        assert len(lines) == len(failures), lines
        assert all(line.startswith(f"CHECK FAIL: {failure}") for line, failure in zip(lines, failures)), lines
    (out / "summary.json").write_text(pristine_summary)
    assert cli.main(["report", str(out), "--check"]) == 0

    # a method deleted from summary.json with its grid point and runs: each deletion is named
    doc = dict(BASE_DOC, optimizer=dict(BASE_DOC["optimizer"], beta=0.5), sweep={"grid": {"optimizer.method": ["vanilla", "naive_momentum"]}})
    assert cli.main(["sweep", write_doc(tmp_path, doc), "--output-dir", str(out)]) == 0
    both = json.loads((out / "summary.json").read_text())
    del both["methods"]["naive_momentum"]
    both.update(grid_points=both["grid_points"][:1], runs_total=1)
    (out / "summary.json").write_text(json.dumps(both))
    capsys.readouterr()
    assert cli.main(["report", str(out), "--check"]) == 2
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("CHECK")] == [
        "CHECK FAIL: grid_points[1] missing from summary.json",
        "CHECK FAIL: methods.naive_momentum missing from summary.json",
        "CHECK FAIL: runs_total: 1 in summary.json, 2 in runs.csv",
    ]

    # runs.csv has no error column: a run with no metric that did not diverge failed with an error
    doc["sweep"]["seeds"] = {"count": 2}
    assert cli.main(["sweep", write_doc(tmp_path, doc), "--output-dir", str(out)]) == 0
    both = json.loads((out / "summary.json").read_text())
    both["error_total"], both["grid_points"][0]["errors"] = 3, 2
    (out / "summary.json").write_text(json.dumps(both))
    capsys.readouterr()
    assert cli.main(["report", str(out), "--check"]) == 2
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("CHECK")] == [
        "CHECK FAIL: error_total: 3 in summary.json, 0 in runs.csv",
        "CHECK FAIL: grid_points[0].errors: 2 in summary.json, 0 in runs.csv",
    ]


@pytest.mark.parametrize(
    "document",
    [
        "configs/bias_comparison.yaml",
        "configs/robustness_window.yaml",
        "bench/configs/window_sweep.yaml",
        "bench/configs/logistic_battery.yaml",
    ],
)
def test_an_untampered_sweep_of_a_shipped_document_passes_the_audit(tmp_path, capsys, document):
    doc = load_document(Path(__file__).resolve().parent.parent / document)
    for path, value in make_golden._SHORT_SWEEP.items():
        doc = apply_override(doc, path, value)
    out = tmp_path / "out"
    assert cli.main(["sweep", write_doc(tmp_path, doc), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    cli.main(["report", str(out), "--check"])
    # a false flag is a statistical outcome of the seed; the benchmark's output check skips it too
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("CHECK FAIL")]
    assert [line for line in failures if not re.fullmatch(r"CHECK FAIL: acceptance flag \S+ is false", line)] == []


@pytest.mark.parametrize(
    "text, message", [(None, "No such file"), ("objective: [unclosed\n", "not valid YAML")], ids=["missing", "not-yaml"]
)
def test_a_document_that_cannot_be_read_is_refused(tmp_path, capsys, text, message):
    path = tmp_path / "config.yaml"
    if text is not None:
        path.write_text(text)
    assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["{not json\n", "[]\n"], ids=["not-json", "not-a-summary"])
def test_report_refuses_a_file_that_is_not_a_sweep_summary(tmp_path, capsys, text):
    (tmp_path / "summary.json").write_text(text)
    assert cli.main(["report", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "summary.json" in err[0]
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("damage", ["missing", "columns"])
def test_report_check_refuses_a_missing_or_malformed_runs_table(tmp_path, capsys, damage):
    out = tmp_path / "out"
    assert cli.main(["sweep", write_doc(tmp_path, sweep_doc()), "--output-dir", str(out)]) == 0
    if damage == "missing":
        (out / "runs.csv").unlink()
    else:  # the first three columns only
        lines = (out / "runs.csv").read_text().splitlines()
        (out / "runs.csv").write_text("".join(",".join(line.split(",")[:3]) + "\n" for line in lines))
    capsys.readouterr()
    assert cli.main(["report", str(out), "--check"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "runs.csv" in err[0]
    assert (out / "report.txt").exists() == (damage == "columns")  # a missing table is found first


def test_report_check_refuses_a_sweep_without_its_robustness_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["sweep", write_doc(tmp_path, sweep_doc()), "--output-dir", str(out)]) == 0
    (out / "robustness.csv").unlink()
    capsys.readouterr()
    assert cli.main(["report", str(out), "--check"]) == 1
    assert capsys.readouterr().err == f"error: no robustness.csv under {out}\n"
    assert not (out / "report.txt").exists()


def test_diverged_runs_are_counted_and_reported(tmp_path, capsys):
    doc = sweep_doc()
    doc["sweep"] = dict(doc["sweep"], grid={"optimizer.eta": [0.05, 1e100]})
    out = tmp_path / "sweep"
    assert cli.main(["sweep", write_doc(tmp_path, doc), "--output-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged_total"] == 2
    assert summary["acceptance"]["vanilla_unstable_gt_10"] is True
    # a diverged grid point keeps the eta its runs used, in every output
    assert [point["eta"] for point in summary["grid_points"]] == [0.05, 1e100]
    assert [row["eta"] for row in summary["methods"]["vanilla"]["robustness"]] == [0.05, 1e100]
    runs = list(csv.DictReader((out / "runs.csv").read_text().splitlines()))
    assert [row["eta"] for row in runs] == ["0.05", "0.05", "1e+100", "1e+100"]
    assert (out / "robustness.csv").read_text().splitlines()[-1] == "vanilla,1e+100,final_excess,,,2"
    assert cli.main(["report", str(out), "--check"]) == 0
    assert "CHECK PASS" in capsys.readouterr().out


def test_a_method_that_diverges_at_every_grid_point_has_no_best(tmp_path, capsys):
    doc = sweep_doc()
    doc["sweep"] = dict(doc["sweep"], grid={"optimizer.eta": [1e100, 1e200]})
    out = tmp_path / "sweep"
    assert cli.main(["sweep", write_doc(tmp_path, doc), "--output-dir", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "  vanilla: no convergent grid point"
    assert cli.main(["report", str(out)]) == 0
    best_row = capsys.readouterr().out.split("best configuration per method\n", 1)[1].splitlines()[1]
    assert best_row.split() == ["vanilla", "-", "diverged", "-"]


def test_a_run_that_fails_is_counted_in_its_grid_point(tmp_path, monkeypatch, capsys):
    """A run refused while it runs is the run's error, and its grid point's, not the sweep's."""
    simulate = cli.run_simulation

    def refuse_the_smaller_eta(config):
        if config.optimizer["eta"] == 0.02:
            raise InvalidConfigError("refused while running", field="optimizer.eta")
        return simulate(config)

    monkeypatch.setattr(cli, "run_simulation", refuse_the_smaller_eta)
    doc = sweep_doc()
    failed = cli._sweep_worker(ExperimentConfig.from_document(doc).expand()[2])
    assert failed["error"] == "optimizer.eta: refused while running" and failed["metrics"] is None
    out = tmp_path / "sweep"
    assert cli.main(["sweep", write_doc(tmp_path, doc), "--output-dir", str(out)]) == 0
    assert capsys.readouterr().out.startswith("4 runs (0 diverged, 2 failed)")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error_total"] == 2
    assert [(point["errors"], point["mean"] is None) for point in summary["grid_points"]] == [(0, False), (2, True)]
    assert cli.main(["report", str(out), "--check"]) == 0  # the errors reproduce from runs.csv
    assert "CHECK PASS" in capsys.readouterr().out


def test_a_diverging_run_names_its_step_in_the_summary(tmp_path, capsys):
    """The run's floats overflow on the way; a warning would fail the test."""
    doc = dict(BASE_DOC, optimizer={"method": "vanilla", "eta": 50.0}, run=dict(BASE_DOC["run"], iterations=400))
    out = tmp_path / "run"
    assert cli.main(["run", write_doc(tmp_path, doc), "--output-dir", str(out)]) == 1  # every seed diverged
    [entry] = json.loads((out / "run_summary.json").read_text())["runs"]
    assert entry["diverged"] is True and 1 <= entry["diverged_step"] <= 400
    assert f"seed 3: DIVERGED at t={entry['diverged_step']}" in capsys.readouterr().out


# ---------------------------------------------------------------- validate command


@pytest.mark.parametrize("check", [check for _, check in checks.CHECKS], ids=[name for name, _ in checks.CHECKS])
def test_validate_check_holds(check):
    check()


def test_validate_runs_its_24_checks_in_order():
    assert [name for name, _ in checks.CHECKS] == [
        "gradient_finite_difference", "smoothness_bound", "gradient_norm_lemma", "mixture_minimizer",
        "projection_properties", "noise_second_moment", "noise_pairing", "arrival_probabilities",
        "threshold_formula", "waiting_time_support", "distribution_preservation", "waiting_time_gof",
        "staleness_separation", "ordered_weight_properties", "zero_rule", "unrolled_equivalence",
        "pending_bound", "sync_momentum_equivalence", "sync_mu2_equivalence", "mu2_identity_contraction",
        "theorem_parameter_values", "replay_determinism", "config_hash_properties", "f1_scores",
    ]


def test_validate_prints_a_line_per_check_and_the_tally(monkeypatch, capsys):
    def drifts():
        raise checks.Failure("drifted")

    def raises():
        raise InvalidConfigError("bad", field="delay.slow_weight")

    monkeypatch.setattr(checks, "CHECKS", (("holds", lambda: None), ("also_holds", lambda: None)))
    assert cli.main(["validate"]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS holds", "PASS also_holds", "2/2 invariants hold"]
    monkeypatch.setattr(checks, "CHECKS", (("drifts", drifts), ("raises", raises)))
    assert cli.main(["validate"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "FAIL drifts: drifted",
        "FAIL raises: unexpected error: delay.slow_weight: bad",
        "0/2 invariants hold",
    ]


def _up(value, field):
    """``value``, a dataclass, with ``field`` one ulp higher."""
    return dataclasses.replace(value, **{field: math.nextafter(getattr(value, field), math.inf)})


def _late_tickets(draw_ticket, *args):  # every wait one step longer: the support misses 1
    wait, tag = draw_ticket(*args)
    return wait + 1, tag


def _lenient_replay(replay_check, *args):  # a replay it cannot compare reads as a mismatch
    try:
        return replay_check(*args)
    except StalegradError:
        return False


# (owner, attribute, mutant(original, *args), the check that must fail, its message)
_MUTANTS = {
    "ordered-weight-is-beta": (optimizers, "ordered_weight", lambda f, beta, tau: beta, "unrolled_equivalence", "direct sum"),
    "halved-thresholds": (delays, "delay_threshold", lambda f, q1, p: 0.5 * f(q1, p), "distribution_preservation", "slow fraction"),
    # drift below the tolerances these checks had before (an absolute 1e-15, scaling by 1 + ||m||)
    "small-weights-drift": (
        optimizers, "ordered_weight", lambda f, beta, tau: f(beta, tau) * (1 + 1.5e-12 * (f(beta, tau) < 1e-3)),
        "ordered_weight_properties", "tau=50",
    ),
    "buffers-drift": (
        checks, "run_simulation", lambda f, config: dataclasses.replace(trace := f(config), buffers=trace.buffers * (1 + 1.5e-9)),
        "unrolled_equivalence", "direct sum",
    ),
    # one row for each unit test deleted as the twin of a check
    "theorem1-eta-ulp": (optimizers, "theorem1_params", lambda f, *a: _up(f(*a), "eta"), "theorem_parameter_values", "sigma branch"),
    "theorem2-eta_min-ulp": (optimizers, "theorem2_step_window", lambda f, *a: _up(f(*a), "eta_min"), "theorem_parameter_values", "eta_min"),
    "theorem2-ordered-window": (
        optimizers, "theorem2_step_window", lambda f, *a: optimizers.StepWindow(*sorted(dataclasses.astuple(f(*a)))),
        "theorem_parameter_values", "noise-free",
    ),
    "threshold-ulp": (delays, "delay_threshold", lambda f, *a: math.nextafter(f(*a), math.inf), "threshold_formula", "p=1/4"),
    "uniform-arrivals": (delays, "default_arrival_probs", lambda f, m: np.full(m, 1.0 / m), "arrival_probabilities", "p_i"),
    "late-tickets": (delays.DelayModel, "draw_ticket", _late_tickets, "waiting_time_support", "include 1"),
    # every threshold 0, the one worker's too: all tickets slow
    "zero-thresholds": (
        delays.DelayModel, "build", lambda f, workers, q1: dataclasses.replace(f(workers, q1), thresholds=(0.0,) * workers),
        "waiting_time_support", "infinite",
    ),
    "macro-f1-ulp": (analysis, "f1_scores", lambda f, *a: _up(f(*a), "macro"), "f1_scores", "macro score"),
    # a weight for any beta, in (0, 1) or not
    "unchecked-beta": (optimizers, "ordered_weight", lambda f, beta, tau: beta * (1.0 - beta) ** tau, "ordered_weight_properties", "rejected"),
    "lenient-replay": (checks, "replay_check", _lenient_replay, "replay_determinism", "different experiment"),
}


@pytest.mark.parametrize("owner, name, mutant, check, message", _MUTANTS.values(), ids=_MUTANTS)
def test_each_check_fails_on_its_mutant(monkeypatch, owner, name, mutant, check, message):
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: mutant(original, *args))
    with pytest.raises(checks.Failure, match=message):
        dict(checks.CHECKS)[check]()
