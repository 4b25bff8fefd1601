"""Config documents, grid expansion, and the four CLI subcommands."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

import stalegrad.cli as cli
from stalegrad.config import (
    ExperimentConfig,
    apply_override,
    check_document,
    load_document,
    parse_sim_config,
)
from stalegrad.errors import InvalidConfigError

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
    doc = load_document("configs/minimal.yaml")
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
        check_document(doc)
    message = str(err.value)
    assert "optimizer.method" in message and "ordered_momentum" in message


def test_run_counts_reject_bools_and_strings():
    doc = dict(BASE_DOC)
    doc["run"] = dict(BASE_DOC["run"], workers=True)
    with pytest.raises(InvalidConfigError):
        check_document(doc)
    doc["run"] = dict(BASE_DOC["run"], iterations="many")
    with pytest.raises(InvalidConfigError):
        check_document(doc)


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


# ---------------------------------------------------------------- expansion


def test_experiment_defaults_without_sweep():
    experiment = ExperimentConfig.from_document(BASE_DOC)
    assert experiment.grid == ()
    assert experiment.seed_base == 3 and experiment.seed_count == 1
    assert experiment.parallelism == 1
    assert experiment.output_dir == Path("results")  # relative: resolved against the cwd at use time


def test_output_dir_env_override(monkeypatch, tmp_path):
    doc = dict(BASE_DOC)
    doc["output"] = {"dir": "elsewhere"}
    monkeypatch.setenv("STALEGRAD_OUTPUT_DIR", str(tmp_path / "forced"))
    experiment = ExperimentConfig.from_document(doc)
    assert experiment.output_dir == tmp_path / "forced"


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
    assert experiment.grid_size == 57
    expanded = experiment.expand()
    assert len(expanded) == 399
    order = [(e.grid_index, e.seed_index) for e in expanded]
    assert order == [(g, s) for g in range(57) for s in range(7)]
    assert expanded[0].run_id == "g0000_s3"
    assert expanded[-1].run_id == "g0056_s9"
    assert all(e.config.seed == 3 + e.seed_index for e in expanded)
    # the overrides really landed in the expanded configs
    assert expanded[7].config.optimizer["beta"] == 0.2


# ---------------------------------------------------------------- run command


def test_run_writes_golden_trace(tmp_path):
    out = tmp_path / "a"
    assert cli.main(["run", "configs/minimal.yaml", "--output-dir", str(out)]) == 0
    with open(out / "run_s0.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == cli.TRACE_COLUMNS
    assert len(rows) == 11  # header + ten iterations
    for row in rows[1:]:
        assert row[4] in ("slow", "fast")
        float(row[5]), float(row[6])  # loss and grad_norm round-trip
    assert int(rows[1][0]) == 1 and int(rows[-1][0]) == 10

    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["seed_count"] == 1 and summary["diverged_total"] == 0
    assert summary["runs"][0]["csv"] == "run_s0.csv"


def test_run_is_byte_identical_across_executions(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "configs/minimal.yaml", "--output-dir", str(out_a)]) == 0
    assert cli.main(["run", "configs/minimal.yaml", "--output-dir", str(out_b)]) == 0
    assert (out_a / "run_s0.csv").read_bytes() == (out_b / "run_s0.csv").read_bytes()
    assert (out_a / "run_summary.json").read_bytes() == (out_b / "run_summary.json").read_bytes()


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


@pytest.mark.parametrize("value", ["fast", math.inf, math.nan], ids=["word", "inf", "nan"])
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


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, stalegrad.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


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
    with open(out / "runs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][6] = repr(float(rows[1][6]) + 1.0)  # nudge one cell of the aggregated metric
    with open(out / "runs.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert cli.main(["report", str(out), "--check"]) == 2
    assert "CHECK FAIL" in capsys.readouterr().out


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
