"""Update rules: ordered methods, the five baselines, and theory parameters."""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stalegrad import optimizers
from stalegrad.errors import ContractViolationError, InvalidConfigError
from stalegrad.objectives import BallDomain
from stalegrad.optimizers import (
    METHOD_TABLE,
    METHODS,
    AdaptiveConstants,
    Params,
    State,
    delay_adaptive_step_size,
    ordered_weight,
    step_baseline,
    step_ordered_momentum,
    step_ordered_mu2,
    theorem1_params,
    theorem2_step_window,
)
from stalegrad.simulation import SimConfig, validate_config


def start(method, x1, **values):
    """``method``'s params from ``values`` and its state at ``x1``."""
    return Params(method, **values), METHOD_TABLE[method].initial(np.asarray(x1, dtype=float))


def vec(v):
    return np.atleast_1d(np.asarray(v, dtype=float))


# ---------------------------------------------------------------- weights


@given(
    beta=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    tau=st.integers(min_value=0, max_value=200),
)
def test_ordered_weight_restores_ema_weight(beta, tau):
    # applying at delay tau then decaying s more steps equals the weight of
    # an on-time gradient decayed tau+s steps — the defining property.
    # Subnormal weights carry too few digits for a relative comparison.
    assume(ordered_weight(beta, tau + 3) >= sys.float_info.min)
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
    params, state = start("ordered_momentum", np.zeros(1), eta=1.0, beta=0.5)
    state = step_ordered_momentum(params, state, vec(1.0), 1, 1, 0, None)
    assert state.buffer[0] == 0.5  # β·g
    assert state.query[0] == -0.5
    state = step_ordered_momentum(params, state, vec(2.0), 2, 2, 1, None)
    # β(1−β)^1·2 + (1−β)·0.5 = 0.25·2 + 0.25 = 0.75
    assert state.buffer[0] == 0.75
    assert state.query[0] == -1.25


def test_momentum_delay_and_dispatch_are_independent_fields():
    # the step consumes the delay for the weight even when it disagrees
    # with t − k; the protocol owns that relationship, not the update rule
    params, state = start("ordered_momentum", np.zeros(1), eta=1.0, beta=0.5)
    state = step_ordered_momentum(params, state, vec(1.0), 1, 1, 0, None)
    odd = step_ordered_momentum(params, state, vec(1.0), 2, 3, 2, None)
    assert odd.buffer[0] == ordered_weight(0.5, 2) * 1.0 + 0.5 * 0.5


def _configured(method, values):
    """A config of ``method`` with the optimizer ``values``; the config table checks their ranges."""
    objective = {"family": "quadratic", "dim": 1}
    return SimConfig(objective, dict(values, method=method), total_iterations=10, num_workers=1)


def test_momentum_validation():
    with pytest.raises(InvalidConfigError):
        _configured("ordered_momentum", {"eta": 0.0, "beta": 0.5})
    with pytest.raises(InvalidConfigError):
        _configured("ordered_momentum", {"eta": 0.1, "beta": 1.0})


# ---------------------------------------------------------------- ordered mu2


BALL = BallDomain(center=np.zeros(1), radius=10.0)


def test_mu2_first_step_needs_no_pair():
    params, state = start("ordered_mu2", np.zeros(1), eta=0.5, domain=BALL)
    state = step_ordered_mu2(params, state, vec(2.0), 1, 1, 0, None)
    # s₁ = 1·g, w₂ = 0 − 0.5·2 = −1, x₂ = x₁ + (2/3)(w₂ − x₁)
    assert state.buffer[0] == 2.0
    assert state.descent[0] == -1.0
    assert state.query[0] == pytest.approx(-2.0 / 3.0, rel=1e-15)


def test_mu2_weighted_average_identity_by_hand():
    params, state = start("ordered_mu2", np.zeros(1), eta=0.5, domain=BALL)
    ws = [state.descent[0]]
    state = step_ordered_mu2(params, state, vec(2.0), 1, 1, 0, None)
    ws.append(state.descent[0])
    state = step_ordered_mu2(params, state, vec(1.0), 2, 2, 0, vec(3.0))
    ws.append(state.descent[0])
    want = (1 * ws[0] + 2 * ws[1] + 3 * ws[2]) / 6.0
    assert state.query[0] == pytest.approx(want, rel=1e-12)


def test_mu2_missing_pair_is_a_protocol_error():
    params, state = start("ordered_mu2", np.zeros(1), eta=0.5, domain=BALL)
    state = step_ordered_mu2(params, state, vec(2.0), 1, 1, 0, None)
    with pytest.raises(ContractViolationError, match="same-sample gradient"):
        step_ordered_mu2(params, state, vec(1.0), 2, 2, 0, None)


def test_mu2_projects_the_descent_iterate():
    tight = BallDomain(center=np.zeros(1), radius=0.25)
    params, state = start("ordered_mu2", np.zeros(1), eta=1.0, domain=tight)
    state = step_ordered_mu2(params, state, vec(5.0), 1, 1, 0, None)
    assert abs(state.descent[0]) <= 0.25
    assert abs(state.query[0]) <= 0.25


def test_mu2_initial_iterate_must_be_inside():
    config = SimConfig(
        objective={"family": "quadratic", "dim": 1, "domain": {"center": [0.0], "radius": 10.0}},
        optimizer={"method": "ordered_mu2", "eta": 0.5},
        total_iterations=10,
        num_workers=1,
        x_init=(20.0,),
    )
    with pytest.raises(InvalidConfigError) as err:
        validate_config(config)
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


def _shape(row, state):
    """Which optional vectors ``state`` carries, as the row names them."""
    return (state.buffer is not None, state.descent is not None) == (row.buffer, row.descent)


@pytest.mark.parametrize("method", METHODS)
def test_method_table_row_matches_its_state_and_step(method):
    row = METHOD_TABLE[method]
    params = Params(method, **{name: MINIMAL_VALUES[name] for name in row.takes})
    x1 = np.array([0.25, -0.5])
    state = row.initial(x1)
    assert _shape(row, state)
    assert np.array_equal(state.query, x1)
    if row.buffer:
        assert np.array_equal(state.buffer, np.zeros(2))
    if row.descent:
        assert np.array_equal(state.descent, x1)
    step = getattr(optimizers, row.step)
    after = step(params, state, np.ones(2), 1, 1, 0, np.ones(2))
    assert isinstance(after, State) and after is not state
    with pytest.raises(AttributeError):
        after.query = x1
    assert _shape(row, after)
    if row.paired:
        with pytest.raises(ContractViolationError, match="same-sample gradient"):
            step(params, after, np.ones(2), 3, 2, 1, None)
    else:
        step(params, after, np.ones(2), 3, 2, 1, None)


def test_step_names_are_the_ones_the_bench_tracer_wraps():
    # bench/tracing.py wraps each step function by name; a renamed or split
    # step would silently drop its optimizers.step spans
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    wrapped = {
        node.value
        for node in ast.walk(ast.parse(tracer.read_text()))
        if isinstance(node, ast.Constant) and str(node.value).startswith("step_")
    }
    assert {row.step for row in METHOD_TABLE.values()} == wrapped


def test_vanilla_step():
    params, state = start("vanilla", np.array([1.0]), eta=0.2)
    state = step_baseline(params, state, vec(1.0), 1, 1, 0, None)
    assert state.query[0] == pytest.approx(0.8, rel=1e-15)


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
    params, state = start("delay_adaptive", np.array([1.0]), adaptive=constants)
    state = step_baseline(params, state, vec(1.0), 11, 1, 10, None)
    assert state.query[0] == pytest.approx(0.9, rel=1e-15)


def test_delay_filtered_drops_stale_reports():
    params, state = start("delay_filtered", np.array([1.0]), eta=0.5, tau_filter=7.0)
    stale = step_baseline(params, state, vec(1.0), 10, 1, 9, None)
    assert stale is state  # dropped: the state it was given
    fresh = step_baseline(params, stale, vec(1.0), 9, 2, 7, None)  # 7 is not > 7
    assert fresh.query[0] == 0.5


def test_naive_momentum_ignores_delay():
    params, state = start("naive_momentum", np.zeros(1), eta=1.0, beta=0.5)
    a = step_baseline(params, state, vec(2.0), 1, 1, 0, None).buffer[0]
    b = step_baseline(params, state, vec(2.0), 13, 1, 12, None).buffer[0]
    assert a == b == 1.0  # βg either way — no ordered discount


def test_naive_mu2_recursion():
    params, state = start("naive_mu2", np.zeros(1), eta=0.5, beta=0.25, gamma=0.5)
    state = step_baseline(params, state, vec(2.0), 1, 1, 0, vec(2.0))
    # d₁ = g + (1−β)(0 − g̃) = 2 + 0.75·(−2) = 0.5; w = −0.25; x = γw
    assert state.buffer[0] == 0.5
    assert state.descent[0] == -0.25
    assert state.query[0] == -0.125
    with pytest.raises(ContractViolationError, match="same-sample gradient"):
        step_baseline(params, state, vec(1.0), 2, 2, 0, None)


def test_step_baseline_refuses_a_method_with_its_own_step():
    params, state = start("ordered_momentum", np.zeros(1), eta=0.1, beta=0.5)
    with pytest.raises(InvalidConfigError, match="unknown baseline 'ordered_momentum'") as err:
        step_baseline(params, state, vec(1.0), 1, 1, 0, None)
    assert err.value.field == "optimizer.method"


def test_baseline_validation():
    cases = [
        ("vanilla", {"eta": 0.0}, "optimizer.eta"),
        ("delay_filtered", {"eta": 0.1, "tau_filter": 0.0}, "optimizer.tau_filter"),
        ("naive_momentum", {"eta": 0.1, "beta": 1.5}, "optimizer.beta"),
        ("naive_mu2", {"eta": 0.1, "beta": 0.5, "gamma": 0.0}, "optimizer.gamma"),
        # ranges are checked in table order: eta before beta before gamma
        ("naive_mu2", {"eta": -1.0, "beta": 2.0, "gamma": 0.0}, "optimizer.eta"),
    ]
    for method, values, field in cases:
        with pytest.raises(InvalidConfigError) as err:
            _configured(method, values)
        assert err.value.field == field


# ---------------------------------------------------------------- theory params


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


@pytest.mark.parametrize(
    "change, message",
    [
        ({"lipschitz": 0.0}, "lipschitz must be positive"),
        ({"diameter": -1.0}, "diameter must be positive"),
        ({"sigma": -1.0}, "noise levels must be nonnegative"),
        ({"sigma_l": -1.0}, "noise levels must be nonnegative"),
        ({"total_iterations": 0}, "iteration and worker counts must be positive"),
        ({"num_workers": 0}, "iteration and worker counts must be positive"),
    ],
    ids=["lipschitz", "diameter", "sigma", "sigma_l", "iterations", "workers"],
)
def test_theorem2_window_validation(change, message):
    values = {"lipschitz": 1.0, "sigma": 1.0, "sigma_l": 0.0, "diameter": 2.0, "total_iterations": 10, "num_workers": 2}
    with pytest.raises(InvalidConfigError, match=message):
        theorem2_step_window(**{**values, **change})


def test_window_grid_hits_endpoints_exactly():
    window = theorem2_step_window(
        lipschitz=1.0, sigma=8.0, sigma_l=0.0, diameter=2.0, total_iterations=10**4, num_workers=4
    )
    assert window.eta_min == 2.4752475247524754e-07
    grid = np.geomspace(window.eta_min, window.eta_max, 7)
    assert grid[0] == window.eta_min
    assert grid[-1] == window.eta_max
    assert np.all(np.diff(grid) > 0)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)  # geometric spacing

