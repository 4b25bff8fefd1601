"""Update rules: ordered methods, the five baselines, and theory parameters."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stalegrad import optimizers
from stalegrad.errors import InvalidConfigError, ProtocolError
from stalegrad.objectives import BallDomain
from stalegrad.optimizers import (
    METHOD_TABLE,
    METHODS,
    AdaptiveConstants,
    BaselineState,
    DelayedGradientReport,
    OrderedMomentumState,
    OrderedMu2State,
    delay_adaptive_step_size,
    ordered_weight,
    step_baseline,
    step_ordered_momentum,
    step_ordered_mu2,
    theorem1_params,
    theorem2_step_window,
)


def report(g, k, tau, pair=None):
    return DelayedGradientReport(
        gradient=np.atleast_1d(np.asarray(g, dtype=float)),
        dispatch_iteration=k,
        delay=tau,
        paired_gradient=None if pair is None else np.atleast_1d(np.asarray(pair, dtype=float)),
    )


# ---------------------------------------------------------------- weights


@given(
    beta=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    tau=st.integers(min_value=0, max_value=200),
)
def test_ordered_weight_restores_ema_weight(beta, tau):
    # applying at delay tau then decaying s more steps equals the weight of
    # an on-time gradient decayed tau+s steps — the defining property
    assert math.isclose(
        ordered_weight(beta, tau) * (1 - beta) ** 3,
        ordered_weight(beta, tau + 3) / (1 - beta) ** 0,
        rel_tol=1e-12,
    )


def test_ordered_weight_validation():
    with pytest.raises(InvalidConfigError):
        ordered_weight(0.0, 1)
    with pytest.raises(InvalidConfigError):
        ordered_weight(1.0, 1)
    with pytest.raises(InvalidConfigError):
        ordered_weight(0.5, -1)


# ---------------------------------------------------------------- ordered momentum


def test_momentum_hand_unroll():
    state = OrderedMomentumState.initial(np.zeros(1), step_size=1.0, momentum_param=0.5)
    state = step_ordered_momentum(state, report(1.0, k=1, tau=0))
    assert state.momentum[0] == 0.5  # β·g
    assert state.iterate[0] == -0.5
    state = step_ordered_momentum(state, report(2.0, k=2, tau=1))
    # β(1−β)^1·2 + (1−β)·0.5 = 0.25·2 + 0.25 = 0.75
    assert state.momentum[0] == 0.75
    assert state.iterate[0] == -1.25
    assert state.steps_done == 2


def test_momentum_delay_and_dispatch_are_independent_fields():
    # the step consumes report.delay for the weight even when it disagrees
    # with t − k; the protocol owns that relationship, not the update rule
    state = OrderedMomentumState.initial(np.zeros(1), step_size=1.0, momentum_param=0.5)
    state = step_ordered_momentum(state, report(1.0, k=1, tau=0))
    odd = step_ordered_momentum(state, report(1.0, k=3, tau=2))
    assert odd.momentum[0] == ordered_weight(0.5, 2) * 1.0 + 0.5 * 0.5


def test_momentum_validation():
    with pytest.raises(InvalidConfigError):
        OrderedMomentumState.initial(np.zeros(1), step_size=0.0, momentum_param=0.5)
    with pytest.raises(InvalidConfigError):
        OrderedMomentumState.initial(np.zeros(1), step_size=0.1, momentum_param=1.0)


# ---------------------------------------------------------------- ordered mu2


BALL = BallDomain(center=np.zeros(1), radius=10.0)


def test_mu2_first_step_needs_no_pair():
    state = OrderedMu2State.initial(np.zeros(1), step_size=0.5, domain=BALL)
    state = step_ordered_mu2(state, report(2.0, k=1, tau=0))
    # s₁ = 1·g, w₂ = 0 − 0.5·2 = −1, x₂ = x₁ + (2/3)(w₂ − x₁)
    assert state.weighted_momentum[0] == 2.0
    assert state.descent_iterate[0] == -1.0
    assert state.averaged_iterate[0] == pytest.approx(-2.0 / 3.0, rel=1e-15)


def test_mu2_weighted_average_identity_by_hand():
    state = OrderedMu2State.initial(np.zeros(1), step_size=0.5, domain=BALL)
    ws = [state.descent_iterate[0]]
    state = step_ordered_mu2(state, report(2.0, k=1, tau=0))
    ws.append(state.descent_iterate[0])
    state = step_ordered_mu2(state, report(1.0, k=2, tau=0, pair=3.0))
    ws.append(state.descent_iterate[0])
    want = (1 * ws[0] + 2 * ws[1] + 3 * ws[2]) / 6.0
    assert state.averaged_iterate[0] == pytest.approx(want, rel=1e-12)


def test_mu2_missing_pair_is_a_protocol_error():
    state = OrderedMu2State.initial(np.zeros(1), step_size=0.5, domain=BALL)
    state = step_ordered_mu2(state, report(2.0, k=1, tau=0))
    with pytest.raises(ProtocolError):
        step_ordered_mu2(state, report(1.0, k=2, tau=0))


def test_mu2_projects_the_descent_iterate():
    tight = BallDomain(center=np.zeros(1), radius=0.25)
    state = OrderedMu2State.initial(np.zeros(1), step_size=1.0, domain=tight)
    state = step_ordered_mu2(state, report(5.0, k=1, tau=0))
    assert abs(state.descent_iterate[0]) <= 0.25
    assert abs(state.averaged_iterate[0]) <= 0.25


def test_mu2_initial_iterate_must_be_inside():
    with pytest.raises(InvalidConfigError) as err:
        OrderedMu2State.initial(np.array([20.0]), step_size=0.5, domain=BALL)
    assert "run.x_init" in str(err.value)


# ---------------------------------------------------------------- baselines


def test_methods_tuple():
    assert METHODS == (
        "ordered_momentum",
        "ordered_mu2",
        "vanilla",
        "delay_adaptive",
        "delay_filtered",
        "naive_momentum",
        "naive_mu2",
    )


MINIMAL_VALUES = {
    "eta": 0.1,
    "beta": 0.5,
    "gamma": 0.5,
    "tau_filter": 3.0,
    "domain": BallDomain(center=np.zeros(2), radius=1.0),
    "adaptive": AdaptiveConstants(
        lipschitz=1.0, num_workers=2, delta_gap=1.0, sigma=1.0, total_iterations=10
    ),
}


@pytest.mark.parametrize("method", METHODS)
def test_method_table_row_matches_its_state_and_step(method):
    row = METHOD_TABLE[method]
    state = row.build(np.zeros(2), *(MINIMAL_VALUES[name] for name in row.takes))
    for attr in (row.query, row.applied, row.buffer, row.descent):
        if attr is not None:
            assert isinstance(getattr(state, attr), (np.ndarray, int)), attr
    step = getattr(optimizers, row.step)
    unpaired = DelayedGradientReport(gradient=np.ones(2), dispatch_iteration=2, delay=1)
    try:
        step(state, unpaired)
    except ProtocolError:
        refused = True
    else:
        refused = False
    assert refused == row.paired


def test_vanilla_step():
    state = BaselineState.vanilla(np.array([1.0]), step_size=0.2)
    state = step_baseline(state, report(1.0, k=1, tau=0))
    assert state.iterate[0] == pytest.approx(0.8, rel=1e-15)
    assert state.applied_updates == 1


def test_delay_adaptive_step_size_examples():
    constants = AdaptiveConstants(
        lipschitz=1.0, num_workers=4, delta_gap=1.0, sigma=1.0, total_iterations=1
    )
    assert delay_adaptive_step_size(constants, 0) == 0.25
    assert delay_adaptive_step_size(constants, 10) == 0.1
    assert delay_adaptive_step_size(constants, 2) == 0.25  # 1/(Lτ)=0.5 not binding


def test_delay_adaptive_uses_per_report_delay():
    constants = AdaptiveConstants(
        lipschitz=1.0, num_workers=4, delta_gap=1.0, sigma=1.0, total_iterations=1
    )
    state = BaselineState.delay_adaptive(np.array([1.0]), constants)
    state = step_baseline(state, report(1.0, k=1, tau=10))
    assert state.iterate[0] == pytest.approx(0.9, rel=1e-15)


def test_adaptive_constants_validation():
    with pytest.raises(InvalidConfigError):
        AdaptiveConstants(lipschitz=0.0, num_workers=4, delta_gap=1.0, sigma=1.0, total_iterations=1)
    with pytest.raises(InvalidConfigError):
        AdaptiveConstants(lipschitz=1.0, num_workers=4, delta_gap=1.0, sigma=-1.0, total_iterations=1)


def test_delay_filtered_drops_stale_reports():
    state = BaselineState.delay_filtered(np.array([1.0]), step_size=0.5, filter_threshold=7.0)
    stale = step_baseline(state, report(1.0, k=1, tau=9))
    assert stale.iterate[0] == 1.0
    assert stale.steps_done == 1 and stale.applied_updates == 0
    fresh = step_baseline(stale, report(1.0, k=2, tau=7))  # 7 is not > 7
    assert fresh.iterate[0] == 0.5
    assert fresh.applied_updates == 1


def test_naive_momentum_ignores_delay():
    state = BaselineState.naive_momentum(np.zeros(1), step_size=1.0, momentum_param=0.5)
    a = step_baseline(state, report(2.0, k=1, tau=0)).momentum[0]
    b = step_baseline(state, report(2.0, k=1, tau=12)).momentum[0]
    assert a == b == 1.0  # βg either way — no ordered discount


def test_naive_mu2_recursion():
    state = BaselineState.naive_mu2(
        np.zeros(1), step_size=0.5, momentum_param=0.25, query_momentum=0.5
    )
    state = step_baseline(state, report(2.0, k=1, tau=0, pair=2.0))
    # d₁ = g + (1−β)(0 − g̃) = 2 + 0.75·(−2) = 0.5; w = −0.25; x = γw
    assert state.correction[0] == 0.5
    assert state.descent_iterate[0] == -0.25
    assert state.iterate[0] == -0.125
    with pytest.raises(ProtocolError):
        step_baseline(state, report(1.0, k=2, tau=0))


def test_baseline_validation():
    with pytest.raises(InvalidConfigError):
        BaselineState.vanilla(np.zeros(1), step_size=0.0)
    with pytest.raises(InvalidConfigError):
        BaselineState.delay_filtered(np.zeros(1), step_size=0.1, filter_threshold=0.0)
    with pytest.raises(InvalidConfigError):
        BaselineState.naive_momentum(np.zeros(1), step_size=0.1, momentum_param=1.5)
    with pytest.raises(InvalidConfigError):
        BaselineState.naive_mu2(np.zeros(1), step_size=0.1, momentum_param=0.5, query_momentum=0.0)


# ---------------------------------------------------------------- theory params


def test_theorem1_sigma_dominated_branch():
    params = theorem1_params(
        lipschitz=1.0, delta_gap=1.0, sigma=1.0, total_iterations=10**6, num_workers=2
    )
    assert params.beta == 2.23606797749979e-03  # √5/1000
    assert params.eta == 7.905694150420948e-04  # √5/(2√(2·10⁶))


def test_theorem1_worker_dominated_branch():
    params = theorem1_params(
        lipschitz=1.0, delta_gap=1.0, sigma=1.0, total_iterations=1, num_workers=2
    )
    assert params.beta == 1.0 / 16.0
    assert math.isclose(params.eta, 1.0 / (32 * math.sqrt(2)), rel_tol=1e-15)


def test_theorem1_single_worker_drops_worker_branches():
    params = theorem1_params(
        lipschitz=1.0, delta_gap=1.0, sigma=1.0, total_iterations=100, num_workers=1
    )
    assert math.isclose(params.beta, math.sqrt(5) / 10, rel_tol=1e-15)
    assert math.isclose(params.eta, math.sqrt(5) / (2 * math.sqrt(200)), rel_tol=1e-15)


def test_theorem1_validation():
    with pytest.raises(InvalidConfigError):
        theorem1_params(lipschitz=0.0, delta_gap=1.0, sigma=1.0, total_iterations=10, num_workers=2)
    with pytest.raises(InvalidConfigError):
        theorem1_params(lipschitz=1.0, delta_gap=1.0, sigma=1.0, total_iterations=0, num_workers=2)


def test_theorem2_window_values():
    window = theorem2_step_window(
        lipschitz=1.0, sigma=1.0, sigma_l=0.0, diameter=1.0, total_iterations=10**4, num_workers=4
    )
    assert window.eta_max == 2.5e-05  # 1/(4LT)
    assert window.eta_min == 9.615384615384615e-07  # 1/(T·(σ/D·√T + LM))
    assert window.ratio == pytest.approx(26.0, rel=1e-12)


def test_theorem2_degenerate_window_is_allowed():
    # zero noise with one worker: the "min" formula lands above the "max";
    # the window reports what the formulas say rather than inventing an order
    window = theorem2_step_window(
        lipschitz=1.0, sigma=0.0, sigma_l=0.0, diameter=1.0, total_iterations=100, num_workers=1
    )
    assert window.eta_max == 1.0 / 400.0
    assert window.eta_min == 0.01
    grid = window.grid(5)
    assert grid[0] == window.eta_min and grid[-1] == window.eta_max


def test_window_grid_hits_endpoints_exactly():
    window = theorem2_step_window(
        lipschitz=1.0, sigma=8.0, sigma_l=0.0, diameter=2.0, total_iterations=10**4, num_workers=4
    )
    assert window.eta_min == 2.4752475247524754e-07
    grid = window.grid(7)
    assert grid[0] == window.eta_min
    assert grid[-1] == window.eta_max
    assert np.all(np.diff(grid) > 0)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)  # geometric spacing


def test_window_grid_validation():
    window = theorem2_step_window(
        lipschitz=1.0, sigma=1.0, sigma_l=0.0, diameter=1.0, total_iterations=100, num_workers=2
    )
    with pytest.raises(InvalidConfigError):
        window.grid(1)
