"""Config documents, grid expansion, and the four CLI subcommands."""

import copy
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stalegrad.cli as cli
import stalegrad.objectives as objectives
from stalegrad.config import (
    RUN_FIELDS,
    ExperimentConfig,
    apply_override,
    check_document,
    load_document,
    parse_sim_config,
)
from stalegrad.errors import DivergedRunError, InvalidConfigError
from stalegrad.simulation import TRACE_COLUMNS, config_hash, run, validate_config

MINIMAL_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "minimal.yaml")

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


def test_unknown_section_is_named():
    doc = dict(BASE_DOC)
    doc["objektive"] = {}
    with pytest.raises(InvalidConfigError) as err:
        check_document(doc)
    assert "objektive" in str(err.value)


def test_unknown_run_key_is_named():
    doc = dict(BASE_DOC)
    doc["run"] = dict(BASE_DOC["run"], warmup=5)
    with pytest.raises(InvalidConfigError) as err:
        check_document(doc)
    assert "run.warmup" in str(err.value)


def test_unknown_method_lists_choices():
    doc = dict(BASE_DOC)
    doc["optimizer"] = {"method": "adam", "eta": 0.01}
    with pytest.raises(InvalidConfigError) as err:
        parse_sim_config(doc)
    message = str(err.value)
    assert "optimizer.method" in message and "ordered_momentum" in message


def test_run_counts_reject_bools_and_strings():
    doc = dict(BASE_DOC)
    doc["run"] = dict(BASE_DOC["run"], workers=True)
    with pytest.raises(InvalidConfigError):
        parse_sim_config(doc)
    doc["run"] = dict(BASE_DOC["run"], iterations="many")
    with pytest.raises(InvalidConfigError):
        parse_sim_config(doc)


def test_grid_axis_must_be_a_list():
    doc = dict(BASE_DOC)
    doc["sweep"] = {"grid": {"optimizer.eta": 0.05}}
    with pytest.raises(InvalidConfigError) as err:
        check_document(doc)
    assert "sweep.grid.optimizer.eta" in str(err.value)
    doc["sweep"] = {"grid": {"optimizer.method": "vanilla"}}
    with pytest.raises(InvalidConfigError):
        check_document(doc)


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
    order = [(e.grid_index, e.seed_index) for e in expanded]
    assert order == [(g, s) for g in range(57) for s in range(7)]
    assert all(e.config.seed == 3 + e.seed_index for e in expanded)
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


# ---------------------------------------------------------------- run command


def test_run_writes_golden_trace(tmp_path):
    out = tmp_path / "a"
    assert cli.main(["run", MINIMAL_CONFIG, "--output-dir", str(out)]) == 0
    with open(out / "run_s0.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRACE_COLUMNS
    assert len(rows) == 11  # header + ten iterations
    for row in rows[1:]:
        assert row[4] in ("slow", "fast")
        float(row[5]), float(row[6])  # loss and grad_norm round-trip
    assert int(rows[1][0]) == 1 and int(rows[-1][0]) == 10

    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["seed_count"] == 1 and summary["diverged_total"] == 0
    assert summary["runs"][0]["csv"] == "run_s0.csv"


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


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_chunked_trace_csv_matches_a_row_by_row_writer(tmp_path, monkeypatch, extra):
    chunk = 16
    monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
    doc = copy.deepcopy(BASE_DOC)
    doc["run"].update(workers=4, iterations=chunk + extra)
    trace = cli.run_simulation(parse_sim_config(doc))
    assert len(trace) == chunk + extra and set(trace.component) == {"slow", "fast"}
    cli._write_trace_csv(trace, tmp_path / "chunked.csv")
    _write_trace_csv_row_by_row(trace, tmp_path / "rows.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_run_rejects_bad_slow_weight(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["delay"] = {"slow_weight": 1.2}
    path = write_doc(tmp_path, doc)
    assert cli.main(["run", path, "--output-dir", str(tmp_path / "out")]) == 1
    assert "delay.slow_weight" in capsys.readouterr().err


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


@pytest.mark.parametrize("value", ["fast", math.inf, math.nan, 10**400], ids=["word", "inf", "nan", "huge-int"])
@pytest.mark.parametrize(
    "field",
    [
        "optimizer.eta",
        "optimizer.beta",
        "optimizer.gamma",
        "optimizer.tau_filter",
        "delay.slow_weight",
        "objective.noise_sigma",
        "run.x_init",
    ],
)
def test_run_rejects_malformed_numbers_before_running(tmp_path, capsys, field, value):
    doc = copy.deepcopy(BASE_DOC)
    section, key = field.split(".")
    doc[section][key] = [0.0, value] if key == "x_init" else value
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
        ({"output": {"dirr": "elsewhere"}}, "output.dirr"),
        ({"report": {"metrik": "final_loss"}}, "report.metrik"),
        ({"sweep": {"grid": {"optimizer.eta": [0.05]}, "seeds": {"cout": 3}}}, "sweep.seeds.cout"),
        ({"output": 5}, "output"),
        ({"report": [1]}, "report"),
        ({"output": {"dir": 5}}, "output.dir"),
        ({"run": {"workers": 2, "iterations": 10**9}}, "run.iterations"),
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
        pytest.param(
            {"objective": {"family": "quadratic", "curvature": 1.0e308, "minimizer": [1.0e308, 1.0]}},
            "objective.minimizer",
            marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
        ),
        ({"sweep": {"grid": {"report.metric": ["final_loss", "final_excess"]}}}, "sweep.grid.report.metric"),
        ({"sweep": {"grid": {"sweep.parallelism": [1, 2]}}}, "sweep.grid.sweep.parallelism"),
        ({"sweep": {"grid": {"optimiser.eta": [0.1]}}}, "sweep.grid.optimiser.eta"),
        ({"sweep": {"grid": {"seed": [1, 2]}}}, "sweep.grid.seed"),
        ({"objective": dict(_QUAD_2D, family=["quadratic"])}, "objective.family"),
        ({"objective": dict(_MIXTURE_2D, components=5)}, "objective.components"),
        ({"objective": dict(_MIXTURE_2D, components=[_MIXTURE_2D["components"][0], 3])}, "objective.components.1"),
        ({"objective": dict(_QUAD_2D, domain=5)}, "objective.domain"),
        ({"objective": dict(_QUAD_2D, domain={"center": [[0.0, 0.0]], "radius": 1})}, "objective.domain.center"),
        ({"objective": dict(_LOGISTIC, samples=1)}, "objective.samples"),
        ({"objective": _LOGISTIC, "optimizer": _THEORY_MOMENTUM}, "optimizer.theory"),
        ({"objective": _UNEQUAL_MIXTURE, "optimizer": _THEORY_MOMENTUM}, "optimizer.theory"),
        ({"objective": _LOGISTIC_BALL, "optimizer": {"method": "ordered_mu2", "theory": True}}, "optimizer.theory"),
    ],
    ids=[
        "inf-squash", "half-class", "nan-minimizer", "misspelt-curvature", "misspelt-noise",
        "domain-dim", "x_init-length", "theory-unsupported", "unknown-metric",
        "logistic-excess", "logistic-distance", "seed-axis", "family-axis", "family-axis-excess",
        "weights", "three-components", "matrix", "separation", "data_seed", "bound_constant",
        "lipschitz", "delta_gap", "sigma", "adaptive-unsupported", "arrival_probs", "write_traces",
        "dim-true", "feature_dim-true", "feature_dim-zero", "output-key", "report-key", "seeds-key",
        "output-scalar", "report-list", "output-dir-number", "iterations-cap", "recorded-iterations-cap",
        "nested-minimizer", "empty-minimizer", "nested-offset", "empty-offset",
        "nested-component-minimizer", "empty-component-offset", "overflowing-minimizer",
        "report-axis", "sweep-axis", "misspelt-section-axis", "sectionless-axis", "family-list",
        "components-number", "component-number", "domain-number", "nested-center", "one-sample",
        "theory-logistic", "theory-unequal-curvatures", "theory-mu2-logistic",
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
    assert len(builds) == 2 * 4  # 2 grid points × 2 seeds, each validated then run
    builds.clear()
    doc = dict(BASE_DOC, sweep={"seeds": {"count": 2}})
    assert cli.main(["run", write_doc(tmp_path, doc, "run.yaml"), "--output-dir", str(tmp_path / "run")]) == 0
    assert len(builds) == 1 + 2  # the base config validated once, then 2 seeds run


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
    ],
)
def test_malformed_run_fields_name_their_path(field, value):
    section, key = field.split(".")
    doc = copy.deepcopy(THEORY_DOC)
    doc.setdefault(section, {})[key] = value
    with pytest.raises(InvalidConfigError) as err:
        parse_sim_config(doc)
    assert err.value.field == field
    # A SimConfig built in code skips check_document; constructing it must still refuse it.
    valid = parse_sim_config(THEORY_DOC)
    with pytest.raises(InvalidConfigError) as err:
        if section == "optimizer":
            dataclasses.replace(valid, optimizer=dict(valid.optimizer, **{key: value}))
        else:
            dataclasses.replace(valid, **{RUN_FIELDS[key]: value})
    assert err.value.field == field


def test_sweep_seed_default_is_checked_as_run_seed():
    doc = copy.deepcopy(THEORY_DOC)
    doc["run"]["seed"] = "3"
    doc["sweep"] = {"grid": {"optimizer.eta": [0.01, 0.05]}, "seeds": {"count": 2}}
    with pytest.raises(InvalidConfigError) as err:
        ExperimentConfig.from_document(doc)
    assert err.value.field == "run.seed"


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


# Floats are unbounded (±1e308, subnormals, −0.0).  Integers stay small
# because integer fields size the run: iterations: 10**7 is valid and runs
# for minutes, and dim: 4000 is valid and builds a 4000×4000 eigendecomposition.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=20),
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


# a diverging run (say, eta: 1e308) warns of overflow before it raises
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_run_or_name_a_field(data):
    doc = _mutated(data, _VALID_DOCS)
    try:
        run(parse_sim_config(doc))
    except InvalidConfigError as exc:
        assert exc.field, f"{exc} names no field"
    except DivergedRunError:
        pass  # a run that blows up still ran


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


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    """A module imported in a fresh interpreter loads only what it needs."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for module, unloaded in [
        ("stalegrad.cli", "scipy.stats"),
        ("stalegrad.objectives", "yaml"),
        ("stalegrad.simulation", "yaml"),
    ]:
        probe = f"import sys, {module}; print({unloaded!r} in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False", module


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverged_runs_are_counted_and_reported(tmp_path, capsys):
    doc = sweep_doc()
    doc["sweep"] = dict(doc["sweep"], grid={"optimizer.eta": [0.05, 1e100]})
    out = tmp_path / "sweep"
    assert cli.main(["sweep", write_doc(tmp_path, doc), "--output-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged_total"] == 2
    assert summary["acceptance"]["vanilla_unstable_gt_10"] is True
    assert cli.main(["report", str(out), "--check"]) == 0
    assert "CHECK PASS" in capsys.readouterr().out

    path = write_doc(tmp_path, dict(BASE_DOC, optimizer={"method": "vanilla", "eta": 1e100}), "run.yaml")
    assert cli.main(["run", path, "--output-dir", str(tmp_path / "run")]) == 1  # every seed diverged


# ---------------------------------------------------------------- validate command


def test_validate_passes_on_the_pristine_build(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "24/24 invariants hold" in out
    assert "FAIL" not in out


def test_validate_catches_a_mutated_ordered_weight(monkeypatch, capsys):
    monkeypatch.setattr("stalegrad.optimizers.ordered_weight", lambda beta, tau: beta)
    assert cli.main(["validate"]) == 2
    out = capsys.readouterr().out
    assert "FAIL unrolled_equivalence" in out


def test_validate_catches_mutated_thresholds(monkeypatch, capsys):
    import stalegrad.delays as delays

    original = delays.delay_threshold
    monkeypatch.setattr(
        "stalegrad.delays.delay_threshold", lambda q1, p: 0.5 * original(q1, p)
    )
    assert cli.main(["validate"]) == 2
    out = capsys.readouterr().out
    assert "FAIL distribution_preservation" in out


def test_checks_catch_drift_below_their_old_tolerances(monkeypatch):
    """Drift that an absolute floor of 1e-15, or scaling by 1 + ||m||, let through."""
    from stalegrad import checks, optimizers

    named = dict(checks.CHECKS)
    weight, run_simulation = optimizers.ordered_weight, checks.run_simulation

    def drift_small_weights(beta, tau):  # 1.5e-12 relative, where the weight is below 1e-3
        w = weight(beta, tau)
        return w * (1 + 1.5e-12) if w < 1e-3 else w

    monkeypatch.setattr(optimizers, "ordered_weight", drift_small_weights)
    with pytest.raises(checks.Failure, match="tau=50"):
        named["ordered_weight_properties"]()
    monkeypatch.undo()

    def drift_buffers(config):
        trace = run_simulation(config)
        return dataclasses.replace(trace, buffers=trace.buffers * (1 + 1.5e-9))

    monkeypatch.setattr(checks, "run_simulation", drift_buffers)
    with pytest.raises(checks.Failure, match="direct sum"):
        named["unrolled_equivalence"]()
