"""Analysis layer: pending sets, bias decomposition, metrics, F1, GOF, unrolled-sum oracle."""

import dataclasses
import math

import numpy as np
import pytest

from stalegrad import reference
from stalegrad.analysis import (
    _chi2_tail,
    confusion_counts,
    convergence_metrics,
    delay_separation,
    error_decomposition_series,
    f1_from_confusion,
    f1_scores,
    pending_sets,
    verify_trace_invariants,
    waiting_time_gof,
)
from stalegrad.errors import ContractViolationError
from stalegrad.objectives import BallDomain, from_spec, make_logistic
from stalegrad.simulation import SimConfig, run

MIX_SPEC = {
    "family": "mixture",
    "components": [{"minimizer": [1.0, 0.0]}, {"minimizer": [-1.0, 0.0]}],
    "noise_sigma": 0.6,
}


def recorded_run(method="ordered_momentum", seed=13, workers=4, iters=300, **opt):
    options = {"method": method, "eta": 0.003, "beta": 0.05}
    options.update(opt)
    spec = dict(MIX_SPEC)
    if method == "ordered_mu2":
        spec["domain"] = {"center": [0.0, 0.0], "radius": 3.0}
        options = {"method": method, "eta": options["eta"]}
    config = SimConfig(
        objective=spec,
        optimizer=options,
        total_iterations=iters,
        num_workers=workers,
        delay={"slow_weight": 0.1},
        seed=seed,
        record_gradients=True,
    )
    return config, run(config)


# ---------------------------------------------------------------- pending sets


@pytest.mark.parametrize("workers", [1, 2, 4, 7, 16])
def test_pending_sets_match_recorded_sizes(workers):
    _, trace = recorded_run(workers=workers)
    sets = pending_sets(trace)
    assert len(sets) == len(trace)
    for pend, size in zip(sets, trace.pending_size):
        assert len(pend) == size


def test_pending_sets_match_an_independent_reconstruction():
    _, trace = recorded_run(workers=7, seed=21)
    current = {1}
    for i, pend in enumerate(pending_sets(trace)):
        current.discard(int(trace.dispatch_iteration[i]))
        assert pend == frozenset(current)
        current.add(int(trace.t[i]) + 1)


# ---------------------------------------------------------------- unrolled sum


def test_unrolled_single_step():
    _, trace = recorded_run(iters=4, workers=4)
    beta = 0.05
    direct = reference.unrolled_direct_sum(trace.dispatch_iteration, trace.gradients, beta)
    assert np.allclose(direct[0], beta * trace.gradients[0], atol=1e-15)


def test_unrolled_single_worker_is_plain_ema():
    _, trace = recorded_run(workers=1, seed=2, iters=100)
    direct = reference.unrolled_direct_sum(trace.dispatch_iteration, trace.gradients, 0.05)
    m = np.zeros(2)
    for i in range(len(trace)):
        m = 0.05 * trace.gradients[i] + 0.95 * m
        assert np.allclose(direct[i], m, rtol=1e-12, atol=1e-15)


def test_unrolled_needs_recorded_gradients():
    # the decomposition reads the recorded buffers, which a plain run lacks
    config, trace = recorded_run(iters=20)
    plain = run(dataclasses.replace(config, record_gradients=False))
    with pytest.raises(ContractViolationError, match="did not record buffers and iterates"):
        error_decomposition_series(plain, from_spec(config.objective, 0.1))
    # and the recorded β, which a run of a method without one lacks
    no_beta = dataclasses.replace(trace, resolved_params={"method": "vanilla", "eta": 0.003})
    with pytest.raises(ContractViolationError, match="no momentum parameter"):
        error_decomposition_series(no_beta, from_spec(config.objective, 0.1))


# ---------------------------------------------------------------- decomposition


def test_bias_bound_and_identity():
    config, trace = recorded_run(workers=7, seed=3)
    objective = from_spec(config.objective, 0.1)
    series = error_decomposition_series(trace, objective)
    beta = 0.05
    for i, decomp in enumerate(series):
        grad_norm = np.linalg.norm(objective.grad(trace.pre_iterates[i]))
        assert np.linalg.norm(decomp.bias) <= 6 * beta * grad_norm * (1 + 1e-12)
        assert np.array_equal(decomp.epsilon_hat, decomp.epsilon - decomp.bias)
        assert np.allclose(decomp.epsilon, decomp.epsilon_hat + decomp.bias, rtol=1e-12, atol=1e-15)


def test_bias_vanishes_without_pending_gradients():
    config, trace = recorded_run(workers=1, seed=4, iters=50)
    objective = from_spec(config.objective, 0.1)
    for decomp in error_decomposition_series(trace, objective):
        assert np.all(decomp.bias == 0.0)


# ---------------------------------------------------------------- metrics


def test_metrics_at_the_minimizer_are_zero():
    spec = {"family": "quadratic", "curvature": [1.0, 2.0], "minimizer": [1.0, -1.0]}
    config = SimConfig(
        objective=spec,
        optimizer={"method": "vanilla", "eta": 0.1},
        total_iterations=20,
        num_workers=1,
        delay={"slow_weight": 0.1},
        seed=0,
        x_init=[1.0, -1.0],
    )
    trace = run(config)
    metrics = convergence_metrics(trace, from_spec(spec, 0.1))
    assert np.allclose(metrics.avg_sq_grad_norm, 0.0, atol=1e-24)
    assert metrics.final_excess == pytest.approx(0.0, abs=1e-15)
    assert metrics.final_distance == pytest.approx(0.0, abs=1e-12)


def test_mixture_excess_at_the_minimizer_is_exactly_zero():
    # a mixture's f* sums its component losses while loss() goes through the
    # mean quadratic; the excess must not carry that rounding difference
    config = SimConfig(
        objective=MIX_SPEC,
        optimizer={"method": "vanilla", "eta": 0.01},
        total_iterations=20,
        num_workers=2,
        delay={"slow_weight": 0.1},
    )
    objective = from_spec(MIX_SPEC, 0.1)
    minimizer = objective.theory_constants().minimizer
    trace = dataclasses.replace(run(config), final_iterate=minimizer)
    assert convergence_metrics(trace, objective).final_excess == 0.0


def test_metrics_single_deterministic_step():
    spec = {"family": "quadratic", "curvature": [1.0, 1.0], "offset": [0.0, 0.0]}
    config = SimConfig(
        objective=spec,
        optimizer={"method": "vanilla", "eta": 0.5},
        total_iterations=1,
        num_workers=1,
        delay={"slow_weight": 0.1},
        seed=0,
        x_init=[1.0, 0.0],
    )
    trace = run(config)
    metrics = convergence_metrics(trace, from_spec(spec, 0.1))
    assert trace.loss[0] == 0.5
    assert metrics.avg_sq_grad_norm[0] == 1.0
    assert metrics.final_loss == 0.125  # x moves to (0.5, 0)
    assert metrics.final_excess == 0.125
    assert metrics.final_distance == 0.5
    assert metrics.final_avg_sq_grad_norm == 1.0


def test_confusion_counts_split_by_group():
    objective = make_logistic(num_classes=3, feature_dim=4, num_samples=60, slow_weight=0.1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(objective.dim)
    counts = confusion_counts(objective, x)
    assert set(counts) == {"slow", "fast", "pooled"}
    assert counts["pooled"].shape == (3, 3)
    assert np.array_equal(counts["slow"] + counts["fast"], counts["pooled"])
    assert counts["pooled"].sum() == 60


# ---------------------------------------------------------------- F1


def test_f1_macro_one_iff_diagonal():
    diag = np.diag([3, 2, 5])
    assert f1_from_confusion(diag).macro == 1.0
    off = diag.copy()
    off[0, 1] = 1
    assert f1_from_confusion(off).macro < 1.0
    # a empty class breaks perfection even with zero off-diagonals
    degenerate = np.diag([3, 0, 5])
    assert f1_from_confusion(degenerate).macro < 1.0


@pytest.mark.parametrize(
    "counts, message",
    [
        (([1, 2], [0, 1], [1]), "count vectors must share one shape"),
        (([[1, 2]], [[0, 1]], [[1, 0]]), "count vectors must share one shape"),
        (([1, 2], [0, -1], [1, 0]), "counts must be nonnegative"),
    ],
    ids=["shapes", "not-vectors", "negative"],
)
def test_f1_scores_refuse_counts_they_cannot_score(counts, message):
    with pytest.raises(ContractViolationError, match=message):
        f1_scores(*counts)


# ---------------------------------------------------------------- GOF / separation


def test_gof_accepts_true_geometric():
    rng = np.random.default_rng(4)
    waits = rng.geometric(0.3, size=3000)
    result = waiting_time_gof(waits, 0.3)
    assert result.pvalue >= 0.05
    assert result.dof >= 1


def test_gof_rejects_degenerate_waits():
    result = waiting_time_gof(np.ones(3000, dtype=np.int64), 0.5)
    assert result.pvalue < 1e-6


def test_gof_needs_enough_mass_for_cells():
    with pytest.raises(ContractViolationError, match="too few samples"):
        waiting_time_gof(np.array([1, 1, 2]), 0.99)


def test_chi2_tail_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for k in range(1, 301):
        xs = np.linspace(0.0, 3 * k + 30, 101)
        got = [_chi2_tail(x, k) for x in xs.tolist()]
        np.testing.assert_allclose(got, stats.chi2.sf(xs, k), rtol=1e-12, atol=0.0, err_msg=f"k={k}")


def test_chi2_tail_with_two_dof_is_the_exponential():
    for x in np.linspace(0.0, 1500.0, 301).tolist():
        assert _chi2_tail(x, 2) == math.exp(-x / 2)


def test_delay_separation_on_a_real_trace():
    _, single = recorded_run(method="vanilla", workers=1, iters=50)  # all fast updates
    with pytest.raises(ContractViolationError, match="lacks one of the component groups"):
        delay_separation(single)


# ---------------------------------------------------------------- invariants


def test_invariants_catch_doctored_traces():
    config, trace = recorded_run(workers=7, seed=3)
    objective = from_spec(config.objective, 0.1)

    bad_tau = dataclasses.replace(trace, tau=trace.tau + 1)
    failures = verify_trace_invariants(bad_tau, objective)
    assert any("staleness" in f for f in failures)

    bad_pending = dataclasses.replace(trace, pending_size=trace.pending_size + 1)
    failures = verify_trace_invariants(bad_pending, objective)
    assert any("pending" in f for f in failures)

    for config_change, message in (
        ({"total_iterations": len(trace) + 1}, "record count differs from the configured iteration count"),
        ({"num_workers": 2}, "pending set exceeded M-1 = 1"),
    ):
        doctored = dataclasses.replace(trace, config=dataclasses.replace(trace.config, **config_change))
        assert verify_trace_invariants(doctored, objective) == [message]
    steep = dataclasses.replace(trace, grad_norm=10.0 * trace.grad_norm + 1.0)
    assert verify_trace_invariants(steep, objective) == ["gradient-norm bound 2L(f - f*) violated"]

    config, trace = recorded_run(method="ordered_mu2", workers=4, iters=200)
    objective = from_spec(config.objective, 0.1)
    assert verify_trace_invariants(trace, objective) == []
    nudged = np.array(trace.descent_iterates)
    nudged[100] += 1e-3
    bad_identity = dataclasses.replace(trace, descent_iterates=nudged)
    failures = verify_trace_invariants(bad_identity, objective)
    assert "weighted-average identity violated" in failures
    tiny_ball = BallDomain(center=np.zeros(2), radius=1e-9)  # no step of the run fits its diameter
    failures = verify_trace_invariants(trace, objective, domain=tiny_ball)
    assert failures == ["successive-query contraction bound violated"]


def test_recorded_naive_mu2_trace_verifies_clean():
    # the weighted-average identity belongs to ordered_mu2, whose query is the average
    config, trace = recorded_run(method="naive_mu2", workers=4, iters=200, gamma=0.5)
    assert trace.descent_iterates is not None
    assert verify_trace_invariants(trace, from_spec(config.objective, 0.1)) == []
