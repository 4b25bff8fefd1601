"""Event loop: exactly-once arrivals, pending bookkeeping, replay, snapshots."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import yaml

from stalegrad import cli, reference
from stalegrad.errors import (
    DivergedRunError,
    InvalidConfigError,
    ReplayDivergenceError,
)
from stalegrad.objectives import Logistic, Mixture, Quadratic
from stalegrad.optimizers import theorem1_params
from stalegrad.simulation import (
    TRACE_COLUMNS,
    SimConfig,
    _all_finite,
    config_hash,
    replay_check,
    replay_compare,
    run,
    validate_config,
)

QUAD_SPEC = {
    "family": "quadratic",
    "curvature": [1.0, 2.0],
    "minimizer": [1.0, -1.0],
    "noise_sigma": 0.5,
}


def momentum_config(**overrides):
    base = dict(
        objective=QUAD_SPEC,
        optimizer={"method": "ordered_momentum", "eta": 0.05, "beta": 0.1},
        total_iterations=100,
        num_workers=4,
        delay={"slow_weight": 0.1},
        seed=0,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_single_worker_has_no_staleness():
    trace = run(momentum_config(num_workers=1, total_iterations=50))
    assert np.all(trace.tau == 0)
    assert np.all(trace.pending_size == 0)
    assert np.array_equal(trace.dispatch_iteration, trace.t)
    assert np.all(trace.waiting_time == 1)


def test_exactly_once_delivery():
    trace = run(momentum_config(total_iterations=200, seed=3))
    later = trace.dispatch_iteration[trace.dispatch_iteration >= 2]
    assert len(set(later.tolist())) == later.size  # k ≥ 2 applied exactly once
    assert np.all(trace.dispatch_iteration <= trace.t)
    assert np.all(trace.tau == trace.t - trace.dispatch_iteration)


def test_iterations_must_cover_the_initial_broadcast():
    with pytest.raises(InvalidConfigError) as err:
        run(momentum_config(total_iterations=3, num_workers=4))
    assert "run.iterations" in str(err.value)


@pytest.mark.parametrize("name", [*TRACE_COLUMNS, "waiting_time"])
def test_tampered_trace_raises_divergence(name):
    """One changed cell of any compared column is found at its own step."""
    config = momentum_config(seed=11)
    trace = run(config)
    row = 36
    if name == "component":
        swap = {"slow": "fast", "fast": "slow"}
        column = tuple(swap[tag] if i == row else tag for i, tag in enumerate(trace.component))
    else:
        column = getattr(trace, name).copy()
        column[row] += 1e-9 if column.dtype.kind == "f" else 1
    doctored = dataclasses.replace(trace, **{name: column})
    assert replay_compare(doctored, config) == row + 1 == trace.t[row]
    with pytest.raises(ReplayDivergenceError) as err:
        replay_check(doctored, config)
    assert err.value.first_index == row + 1


def test_diverged_run_error_carries_context():
    config = momentum_config(
        optimizer={"method": "vanilla", "eta": 1e100}, total_iterations=50, seed=2
    )
    with pytest.raises(DivergedRunError) as err:
        run(config)
    assert 1 <= err.value.step <= 50
    assert np.all(np.isfinite(err.value.last_iterate))
    assert err.value.resolved_params == {"method": "vanilla", "eta": 1e100}


def test_a_loss_that_overflows_at_a_finite_iterate_diverges(tmp_path):
    """η = 3 on unit curvature doubles the distance to the minimizer each step: the loss
    overflows near step 512 while the iterate stays finite (about 2⁸⁰⁰ at T = 800).
    The run diverges there, with no overflow warning, and a sweep counts it."""
    objective = {"family": "quadratic", "curvature": [1.0, 1.0], "minimizer": [1.0, -1.0], "noise_sigma": 0.5}
    optimizer = {"method": "vanilla", "eta": 3.0}
    config = SimConfig(objective=objective, optimizer=optimizer, total_iterations=800, num_workers=1, seed=3)
    with pytest.raises(DivergedRunError) as err:
        run(config)
    assert 1 <= err.value.step <= 800
    assert np.all(np.isfinite(err.value.last_iterate))

    doc = {
        "objective": objective,
        "optimizer": optimizer,
        "run": {"workers": 1, "iterations": 800, "seed": 3},
        "sweep": {"grid": {"optimizer.eta": [0.05, 3.0]}, "seeds": {"count": 2}},
    }
    (tmp_path / "sweep.yaml").write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert cli.main(["sweep", str(tmp_path / "sweep.yaml"), "--output-dir", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["diverged_total"] == 2
    assert cli.main(["report", str(out), "--check"]) == 0


def test_numpy_scalars_hash_and_run_like_python_numbers():
    plain = momentum_config(optimizer={"method": "vanilla", "eta": 0.01})
    scalar = momentum_config(optimizer={"method": "vanilla", "eta": np.float64(0.01)})
    assert config_hash(scalar) == config_hash(plain)
    trace = run(plain)
    assert replay_compare(trace, scalar) is None
    assert np.array_equal(run(scalar).final_iterate, trace.final_iterate)


@pytest.mark.parametrize(
    "T, stride, workers",
    [(1, 1, 1), (20, 1, 4), (20, 20, 4), (20, 50, 4), (51, 10, 4), (55, 10, 4)],
    ids=["one-step", "stride-1", "stride-T", "stride-past-T", "T-on-the-stride", "T-off-the-stride"],
)
def test_snapshot_stride(T, stride, workers):
    trace = run(momentum_config(total_iterations=T, num_workers=workers, snapshot_stride=stride, record_gradients=True))
    assert trace.snapshot_steps.tolist() == sorted(set(range(1, T + 1, stride)) | {T})
    assert trace.snapshots.shape == (len(trace.snapshot_steps), 2)
    # snapshots hold the pre-update iterate of the recorded step
    for row, step in enumerate(trace.snapshot_steps):
        assert np.array_equal(trace.snapshots[row], trace.pre_iterates[step - 1])


@pytest.mark.parametrize("stride", [None, 2])
def test_a_run_allocates_only_the_records_it_is_asked_for(stride):
    """d = 4096, T = 500: without a stride a run keeps no snapshot, and with one
    it peaks at its snapshot block plus 2 MiB.  Row copies stacked after the
    loop peaked at 31.8 MiB without a stride and 16.2 MiB with stride 2."""
    config = momentum_config(
        objective={"family": "quadratic", "dim": 4096, "noise_sigma": 0.5},
        optimizer={"method": "vanilla", "eta": 0.05},
        total_iterations=500,
        snapshot_stride=stride,
    )
    tracemalloc.start()
    try:
        trace = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if stride is None:
        assert trace.snapshots is None and trace.snapshot_steps is None and peak < 2 * 2**20
    else:
        assert trace.snapshots.shape == (251, 4096) and peak < trace.snapshots.nbytes + 2 * 2**20
    assert trace.gradients is None and trace.descent_iterates is None


def test_a_noise_free_single_worker_mu2_run_is_the_reference_method():
    spec = {"family": "quadratic", "curvature": [1.0, 2.0], "offset": [1.0, -1.0]}
    config = SimConfig(
        objective=dict(spec, domain={"center": [0.0, 0.0], "radius": 2.0}),
        optimizer={"method": "ordered_mu2", "eta": 0.05},
        total_iterations=100,
        num_workers=1,
        seed=4,
        record_gradients=True,
    )
    trace = run(config)
    oracle = reference.anytime_storm(
        np.diag(spec["curvature"]), np.array(spec["offset"]), np.zeros(2), 2.0, np.zeros(2),
        eta=0.05, sigma=0.0, steps=100, seed=4,
    )
    ours = np.vstack([trace.pre_iterates, trace.final_iterate])
    assert np.max(np.abs(ours - oracle)) <= 1e-12


def test_x_init_defaults_to_zero():
    trace = run(momentum_config(record_gradients=True, total_iterations=10))
    assert np.array_equal(trace.pre_iterates[0], np.zeros(2))
    shifted = run(momentum_config(record_gradients=True, total_iterations=10, x_init=[1.0, 1.0]))
    assert np.array_equal(shifted.pre_iterates[0], np.array([1.0, 1.0]))


def test_theory_resolution_matches_the_formulas():
    spec = dict(QUAD_SPEC)
    config = momentum_config(
        objective=spec,
        optimizer={"method": "ordered_momentum", "theory": True},
        total_iterations=500,
        seed=5,
    )
    trace = run(config)
    from stalegrad.objectives import from_spec

    constants = from_spec(spec, 0.1).theory_constants(np.zeros(2))
    params = theorem1_params(
        constants.lipschitz, constants.delta_gap, constants.sigma, 500, 4
    )
    assert trace.resolved_params["beta"] == params.beta
    assert trace.resolved_params["eta"] == params.eta


def test_mu2_records_window_in_resolved_params():
    spec = {
        "family": "quadratic",
        "curvature": [1.0, 1.0],
        "minimizer": [0.5, 0.0],
        "noise_sigma": 1.0,
        "domain": {"center": [0.0, 0.0], "radius": 1.0},
    }
    config = momentum_config(
        objective=spec,
        optimizer={"method": "ordered_mu2", "theory": True},
        total_iterations=200,
        seed=1,
    )
    trace = run(config)
    assert trace.resolved_params["eta"] == trace.resolved_params["eta_max"]
    assert trace.resolved_params["eta_min"] < trace.resolved_params["eta_max"]


def test_mu2_requires_a_domain():
    config = momentum_config(optimizer={"method": "ordered_mu2", "eta": 0.01})
    with pytest.raises(InvalidConfigError) as err:
        validate_config(config)
    assert "objective.domain" in str(err.value)


def test_unknown_method_is_named():
    with pytest.raises(InvalidConfigError) as err:
        momentum_config(optimizer={"method": "adamw", "eta": 0.01})
    assert "optimizer.method" in str(err.value)


@pytest.mark.parametrize(
    "optimizer, message",
    [
        ({"method": "delay_adaptive", "eta": 0.05}, "optimizer.eta: unknown key; expected one of method"),
        ({"method": "vanilla", "beta": 0.5}, "optimizer.beta: unknown key; expected one of method, eta"),
        (
            {"method": "vanilla", "eta": 0.05, "beta": 0.5, "gamma": 0.3, "tau_filter": 2},
            "optimizer.beta: unknown key; expected one of method, eta",
        ),
        ({"method": "naive_mu2", "eta": 0.05, "theory": True}, "optimizer.theory: unknown key; expected one of method, eta, beta, gamma"),
    ],
    ids=["adaptive-eta", "vanilla-beta", "vanilla-every-key", "naive-theory"],
)
def test_a_key_the_method_does_not_read_is_refused(optimizer, message):
    with pytest.raises(InvalidConfigError) as err:
        momentum_config(optimizer=optimizer)
    assert str(err.value) == message


def test_filtered_runs_mark_skipped_updates():
    config = momentum_config(
        optimizer={"method": "delay_filtered", "eta": 0.02, "tau_filter": 1.0},
        num_workers=7,
        total_iterations=300,
        seed=4,
    )
    trace = run(config)
    skipped = ~trace.applied
    assert skipped.any()
    assert np.all(trace.tau[skipped] > 1)


def test_logistic_run_evaluates_each_point_once(monkeypatch):
    """Monitoring re-uses the softmax the last dispatch computed: one per new point."""
    calls = []
    original = Logistic._log_softmax

    def counting(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(Logistic, "_log_softmax", counting)
    T = 60
    run(
        momentum_config(
            objective={"family": "logistic", "classes": 3, "feature_dim": 4, "noise_sigma": 0.1},
            optimizer={"method": "vanilla", "eta": 0.05},
            total_iterations=T,
        )
    )
    assert 0 < len(calls) <= T + 1


def test_quadratic_run_evaluates_each_point_once(monkeypatch):
    """A quadratic keeps no memo: each step evaluates the monitored point and its
    paired dispatch's two points, and each of the M initial dispatches two: 3T+2M."""
    calls = _count_calls(monkeypatch, Quadratic, "grad")
    T, M = 80, 4
    run(
        momentum_config(
            objective=dict(QUAD_SPEC, domain={"center": [0.0, 0.0], "radius": 3.0}),
            optimizer={"method": "ordered_mu2", "eta": 0.01},
            total_iterations=T,
            num_workers=M,
        )
    )
    assert len(calls) == 3 * T + 2 * M == 248


LOGISTIC_SPEC = {
    "family": "logistic",
    "classes": 3,
    "feature_dim": 4,
    "noise_sigma": 0.1,
    "domain": {"center": [0.0] * 12, "radius": 5.0},
}
MIXTURE_SPEC = {
    "family": "mixture",
    "components": [
        {"minimizer": [1.0, 0.0], "curvature": 1.0},
        {"minimizer": [-1.0, 0.0], "curvature": [1.0, 2.0]},
    ],
    "noise_sigma": 0.3,
    "domain": {"center": [0.0, 0.0], "radius": 2.0},
}


def _count_calls(monkeypatch, cls, name, calls=None) -> list:
    """Patch ``cls.name`` to append to ``calls`` (a new list by default) once per call."""
    calls = [] if calls is None else calls
    original = getattr(cls, name)

    def counting(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


@pytest.mark.parametrize("method", ["vanilla", "ordered_mu2"])
def test_logistic_run_takes_two_group_gradients_per_step(monkeypatch, method):
    """The monitor's ``grad`` reuses the group gradient the last dispatch took at
    its point, so each new point costs the two groups once: x_1…x_T both, x_{T+1}
    (dispatched after the last step) one.  A paired dispatch's x_prev is the
    monitored point, still in the one-entry memo."""
    softmaxes = _count_calls(monkeypatch, Logistic, "_log_softmax")
    group_grads = _count_calls(monkeypatch, Logistic, "_group_grad")
    T = 60
    run(
        momentum_config(
            objective=LOGISTIC_SPEC, optimizer={"method": method, "eta": 0.05}, total_iterations=T
        )
    )
    assert 0 < len(softmaxes) <= T + 1
    assert 0 < len(group_grads) <= 2 * T + 1


def test_trace_carries_the_objective_built_from_the_delay_weight():
    config = momentum_config(objective=MIXTURE_SPEC, delay={"slow_weight": 0.3}, total_iterations=10)
    assert run(config).objective.weights == (0.3, 0.7)


def _count_mixture_gradients(monkeypatch) -> list:
    """Count the components' and the mixture mean's ``grad`` calls in one list."""
    calls = _count_calls(monkeypatch, Quadratic, "grad")
    return _count_calls(monkeypatch, Mixture, "grad", calls)


def test_unpaired_mixture_run_evaluates_each_point_once_per_quadratic(monkeypatch):
    """The mean quadratic takes the T monitored points, and a component one point
    per dispatch: T after the steps and the M initial ones, 2T+M in all."""
    calls = _count_mixture_gradients(monkeypatch)
    T, M = 200, 4
    run(
        momentum_config(
            objective=MIXTURE_SPEC,
            optimizer={"method": "ordered_momentum", "eta": 0.05, "beta": 0.1},
            total_iterations=T,
            num_workers=M,
            seed=3,
        )
    )
    assert len(calls) == 2 * T + M == 404


def test_paired_mixture_run_reuses_x_prev_after_a_same_component_dispatch(monkeypatch):
    """No quadratic keeps a memo, so a paired dispatch evaluates x_prev again:
    T monitored points on the mean quadratic, and two component gradients per
    dispatch, T after the steps and the M initial ones, 3T+2M in all."""
    calls = _count_mixture_gradients(monkeypatch)
    T, M = 200, 4
    run(
        momentum_config(
            objective=MIXTURE_SPEC,
            optimizer={"method": "ordered_mu2", "eta": 0.01},
            total_iterations=T,
            num_workers=M,
            seed=3,
        )
    )
    assert len(calls) == 3 * T + 2 * M == 608


@pytest.mark.parametrize(
    "entries, finite",
    [
        ([0.5, -2.0], True),
        ([], True),
        ([1e200, -1e200], True),
        ([1.7e308, 1.0], True),
        ([1.0, math.nan], False),
        ([math.inf, 0.0], False),
        ([0.0, -math.inf], False),
        ([1e200, math.nan], False),
        ([math.inf, -math.inf], False),
    ],
)
def test_finiteness_fast_path_is_exact(entries, finite):
    v = np.array(entries, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _all_finite(v) is finite
    assert finite == bool(np.isfinite(v).all())
