"""Event loop: exactly-once arrivals, pending bookkeeping, replay, snapshots."""

import dataclasses
import math

import numpy as np
import pytest

from stalegrad.errors import (
    DivergedRunError,
    InvalidConfigError,
    ReplayDivergenceError,
)
from stalegrad.objectives import Logistic, Quadratic
from stalegrad.optimizers import theorem1_params
from stalegrad.simulation import (
    SimConfig,
    _all_finite,
    replay_check,
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


def test_tampered_trace_raises_divergence():
    config = momentum_config(seed=11)
    trace = run(config)
    doctored = dataclasses.replace(trace, loss=trace.loss + 1e-9)
    with pytest.raises(ReplayDivergenceError) as err:
        replay_check(doctored, config)
    assert err.value.first_index == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverged_run_error_carries_context():
    config = momentum_config(
        optimizer={"method": "vanilla", "eta": 1e100}, total_iterations=50, seed=2
    )
    with pytest.raises(DivergedRunError) as err:
        run(config)
    assert 1 <= err.value.step <= 50
    assert np.all(np.isfinite(err.value.last_iterate))


def test_snapshot_stride():
    trace = run(momentum_config(total_iterations=55, snapshot_stride=10, record_gradients=True))
    assert trace.snapshot_steps.tolist() == [1, 11, 21, 31, 41, 51, 55]
    # snapshots hold the pre-update iterate of the recorded step
    for row, step in enumerate(trace.snapshot_steps):
        assert np.array_equal(trace.snapshots[row], trace.pre_iterates[step - 1])


def test_default_stride_covers_long_runs():
    trace = run(momentum_config(total_iterations=2500))
    assert trace.snapshot_steps[0] == 1
    assert trace.snapshot_steps[-1] == 2500
    assert trace.snapshots.shape[0] == len(trace.snapshot_steps)
    assert len(trace.snapshot_steps) <= 1002


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
    """The paired method's monitor and x_prev gradients reuse the memo: T+1 in all."""
    calls = []
    original = Quadratic._evaluate_grad

    def counting(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(Quadratic, "_evaluate_grad", counting)
    T = 80
    run(
        momentum_config(
            objective=dict(QUAD_SPEC, domain={"center": [0.0, 0.0], "radius": 3.0}),
            optimizer={"method": "ordered_mu2", "eta": 0.01},
            total_iterations=T,
        )
    )
    assert 0 < len(calls) <= T + 1


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
