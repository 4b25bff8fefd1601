"""Event loop: exactly-once arrivals, pending bookkeeping, replay, snapshots."""

import dataclasses

import numpy as np
import pytest

from stalegrad.errors import (
    ContractViolationError,
    DivergedRunError,
    InvalidConfigError,
    ReplayDivergenceError,
)
from stalegrad.objectives import Logistic
from stalegrad.optimizers import theorem1_params
from stalegrad.simulation import SimConfig, config_hash, replay_check, replay_compare, run, validate_config

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


def test_pending_bounded_by_workers_minus_one():
    trace = run(momentum_config(num_workers=4, total_iterations=100))
    assert trace.pending_size.max() <= 3
    assert trace.tau.max() >= 1  # with 4 workers some gradient must arrive late


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


def test_replay_same_seed_reproduces():
    config = momentum_config(seed=11)
    trace = run(config)
    assert replay_check(trace, config) is True
    assert replay_compare(trace, config) is None


def test_replay_other_seed_differs():
    config = momentum_config(seed=11)
    trace = run(config)
    other = dataclasses.replace(config, seed=12)
    first = replay_compare(trace, other)
    assert first is not None and first <= 3  # the fresh noise shows almost immediately
    assert replay_check(trace, other) is False


def test_replay_different_experiment_is_rejected():
    trace = run(momentum_config(seed=11))
    tweaked = momentum_config(seed=11, optimizer={"method": "ordered_momentum", "eta": 0.04, "beta": 0.1})
    with pytest.raises(ContractViolationError):
        replay_compare(trace, tweaked)


def test_tampered_trace_raises_divergence():
    config = momentum_config(seed=11)
    trace = run(config)
    doctored = dataclasses.replace(trace, loss=trace.loss + 1e-9)
    with pytest.raises(ReplayDivergenceError) as err:
        replay_check(doctored, config)
    assert err.value.first_index == 1


def test_config_hash_shape_and_seed_exclusion():
    config = momentum_config(seed=11)
    digest = config_hash(config)
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert config_hash(dataclasses.replace(config, seed=99)) == digest
    assert config_hash(dataclasses.replace(config, total_iterations=101)) != digest
    assert trace_hash_matches(config)


def trace_hash_matches(config):
    return run(config).config_hash == config_hash(config)


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
    config = momentum_config(optimizer={"method": "adamw", "eta": 0.01})
    with pytest.raises(InvalidConfigError) as err:
        validate_config(config)
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
