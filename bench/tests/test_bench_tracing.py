"""Self-time arithmetic, patch bookkeeping and span counts of the tracer.

    python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > b [2,3];  root > a [5,6];  root > c [7,9]
    names = ["root", "a", "b", "c"]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 5.0, 6.0, 0), (3, 7.0, 9.0, 0)]
    ids, starts, ends, parents = zip(*spans)
    out = tracing.self_times(names, ids, starts, ends, parents)
    assert out == {"root": (1, 4.0), "a": (2, 3.0), "b": (1, 1.0), "c": (1, 2.0)}
    assert sum(self_s for _, self_s in out.values()) == pytest.approx(10.0)


def test_tracer_records_nesting_from_its_clock():
    tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.5, 4.0]))
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.self_times() == {"outer": (1, 2.5), "inner": (1, 1.5)}


def test_same_name_calls_roll_into_the_outer_span():
    tracer = tracing.Tracer()

    def countdown(n):
        return 0 if n == 0 else traced(n - 1)

    traced = tracer.wrap(countdown, "layer")
    traced(3)
    assert tracer.self_times()["layer"][0] == 1


def test_caller_filter_opens_only_for_the_named_caller():
    tracer = tracing.Tracer()

    def direct():
        return filtered()

    def other():
        return filtered()

    filtered = tracer.wrap(lambda: None, "filtered", caller=direct.__code__)
    direct()
    other()
    filtered()
    assert tracer.self_times()["filtered"][0] == 1


def test_install_wraps_every_binding_and_uninstall_restores_it():
    from stalegrad import cli, config, objectives, simulation

    originals = {
        "run": simulation.run,
        "validate": simulation.validate_config,
        "load": config.load_document,
        "from_document": vars(config.ExperimentConfig)["from_document"],
        "loss": vars(objectives.Mixture)["loss"],
        "oracle": objectives.Quadratic.stochastic_grad,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert simulation.run is not originals["run"]
        assert cli.run_simulation is simulation.run
        assert cli.validate_config is simulation.validate_config
        assert cli.load_document is config.load_document
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert simulation.run is originals["run"] and cli.run_simulation is originals["run"]
    assert cli.validate_config is originals["validate"]
    assert cli.load_document is config.load_document is originals["load"]
    assert vars(config.ExperimentConfig)["from_document"] is originals["from_document"]
    assert vars(objectives.Mixture)["loss"] is originals["loss"]
    assert objectives.Quadratic.stochastic_grad is originals["oracle"]


def _traced(name, tmp_path, iterations):
    path = workloads.write_inputs(name, 3, tmp_path, serial=True, iterations=iterations)
    runs = workloads.setup(name, path)
    tracer = tracing.Tracer()
    root = tracer.open("bench")
    tracer.install()
    try:
        workloads.execute(name, path, runs, tmp_path / "out")
    finally:
        tracer.uninstall()
    tracer.close(root)
    return runs, tracer


def test_window_sweep_spans_count_every_step(tmp_path):
    T = 30
    runs, tracer = _traced("window_sweep", tmp_path, T)
    layers = tracer.self_times()
    M, n = runs[0].num_workers, len(runs)
    projected = sum(r.optimizer["method"] == "ordered_mu2" for r in runs)
    assert layers["simulation.run"][0] == n
    assert layers["delays.draw_ticket"][0] == n * (T + M)
    assert layers["objectives.oracle"][0] == n * (T + M)
    assert layers["objectives.monitor"][0] == n * 2 * T
    assert layers["optimizers.step"][0] == n * T
    assert layers["objectives.project"][0] == projected * T
    assert layers["analysis.metrics"][0] == n
    assert layers["cli"][0] == 1
    assert layers["config.expand"][0] == 1
    assert layers["simulation.validate"][0] == n
    assert tracer.counters["applied"] == n * T
    assert all(self_s >= 0 for _, self_s in layers.values())


def test_bias_run_spans_count_writes(tmp_path):
    T = 40
    runs, tracer = _traced("bias_run", tmp_path, T)
    layers = tracer.self_times()
    assert layers["cli.write"][0] == 2 * len(runs)
    written = sum(p.stat().st_size for p in (tmp_path / "out").glob("*.csv"))
    assert tracer.counters["cli.write.bytes"] == written
    assert layers["objectives.monitor"][0] == 2 * T * len(runs)


def test_logistic_battery_monitor_excludes_nested_component_calls(tmp_path):
    T = 30
    runs, tracer = _traced("logistic_battery", tmp_path, T)
    layers = tracer.self_times()
    assert layers["objectives.monitor"][0] == 2 * T * len(runs)
    assert layers["objectives.oracle"][0] == len(runs) * (T + runs[0].num_workers)
    assert "cli" not in layers
