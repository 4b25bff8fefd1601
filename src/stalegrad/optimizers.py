"""Update rules as pure step functions over immutable state.

Every rule consumes a :class:`DelayedGradientReport` and returns a fresh
state object; nothing is mutated, so trajectories can be replayed and
golden-traced.  The report's ``delay`` and ``dispatch_iteration`` are
treated as independent facts: the staleness discount uses the delay, the
first-dispatch zero rule keys on the dispatch index, and neither is ever
recomputed from the other.

States stay immutable (frozen, slotted dataclasses), and each rule builds
the next one directly with its constructor rather than through
``dataclasses.replace``, which costs several times more on a path taken
once per iteration.

Rules
-----
* ``ordered_momentum`` — momentum where an arriving gradient enters with
  weight β(1−β)^τ, exactly the weight it would carry in the delay-free
  exponential moving average; duplicate arrivals of the initial dispatch
  contribute zero.
* ``ordered_mu2`` — projected descent on a running weighted average with a
  same-sample correction term: s_k = α_k·g(x_k) − α_{k−1}·g̃(x_{k−1}),
  α_t = t, accumulated into q_t and applied as w ← Π(w − ηq), with the
  query point the α-weighted average of the w's.
* baselines — vanilla SGD, delay-adaptive step sizes, delay filtering,
  naive momentum, and the naive (uncorrected-averaging) variant of the
  correction method.

A method is one state class, one step rule and one row of
:data:`METHOD_TABLE` (see :class:`Method`), which is all the simulation
knows of it; the five baselines share :class:`BaselineState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import InvalidConfigError, ProtocolError
from .objectives import BallDomain

Array = np.ndarray


def require_in_range(value, field: str, upper: float = math.inf, closed: bool = True):
    """``value`` if in (0, upper], or (0, upper) unless ``closed``; else InvalidConfigError on ``field``."""
    if value is None or not (0.0 < value and (value <= upper if closed else value < upper)):
        span = "positive" if upper == math.inf else f"in (0,{upper:g}{']' if closed else ')'}"
        raise InvalidConfigError(f"must be {span}, got {value!r}", field=field)
    return value


@dataclass(frozen=True, slots=True)
class DelayedGradientReport:
    """What a worker hands back: a gradient plus its provenance.

    ``paired_gradient`` is the same-sample gradient at the previous query
    point, present only when the dispatching method asked for it.
    """

    gradient: Array
    dispatch_iteration: int
    delay: int
    paired_gradient: Array | None = None


def ordered_weight(beta: float, tau: int) -> float:
    """β(1−β)^τ — the discount restoring a late gradient's original weight."""
    require_in_range(beta, "optimizer.beta", 1.0, closed=False)
    if tau < 0:
        raise InvalidConfigError("delay must be nonnegative")
    return beta * (1.0 - beta) ** tau


@dataclass(frozen=True, slots=True)
class OrderedMomentumState:
    iterate: Array
    momentum: Array
    step_size: float
    momentum_param: float
    steps_done: int = 0

    @classmethod
    def initial(cls, x1: Array, step_size: float, momentum_param: float) -> "OrderedMomentumState":
        require_in_range(step_size, "optimizer.eta")
        require_in_range(momentum_param, "optimizer.beta", 1.0, closed=False)
        x1 = np.asarray(x1, dtype=np.float64)
        return cls(x1, np.zeros_like(x1), step_size, momentum_param)


def step_ordered_momentum(
    state: OrderedMomentumState, report: DelayedGradientReport
) -> OrderedMomentumState:
    """m ← β(1−β)^τ·g + (1−β)·m, then x ← x − η·m.

    After the very first update, any further report carrying dispatch
    index 1 is a duplicate of the initial dispatch and its gradient is
    replaced by zero.
    """
    t = state.steps_done + 1
    beta = state.momentum_param
    if report.dispatch_iteration == 1 and t > 1:
        weighted = np.zeros_like(state.momentum)
    else:
        weighted = ordered_weight(beta, report.delay) * report.gradient
    momentum = weighted + (1.0 - beta) * state.momentum
    return OrderedMomentumState(
        iterate=state.iterate - state.step_size * momentum,
        momentum=momentum,
        step_size=state.step_size,
        momentum_param=beta,
        steps_done=t,
    )


@dataclass(frozen=True, slots=True)
class OrderedMu2State:
    """State of the projected, averaged correction method.

    ``averaged_iterate`` is the query point x_t (what workers differentiate
    at); ``descent_iterate`` is w_t; ``weighted_momentum`` holds
    q_{t−1} = α_{t−1}·d_{t−1}.
    """

    descent_iterate: Array
    averaged_iterate: Array
    weighted_momentum: Array
    step_size: float
    domain: BallDomain
    steps_done: int = 0

    @classmethod
    def initial(cls, x1: Array, step_size: float, domain: BallDomain) -> "OrderedMu2State":
        require_in_range(step_size, "optimizer.eta")
        x1 = np.asarray(x1, dtype=np.float64)
        if not domain.contains(x1):
            raise InvalidConfigError("initial iterate must lie in the domain", field="run.x_init")
        return cls(x1, x1, np.zeros_like(x1), step_size, domain)


def step_ordered_mu2(state: OrderedMu2State, report: DelayedGradientReport) -> OrderedMu2State:
    """Accumulate s_k = α_k·g − α_{k−1}·g̃, project, and re-average.

    The α₀ = 0 convention makes the first dispatch's increment just g₁, so
    a missing pair is tolerated only for dispatch index 1.
    """
    k = report.dispatch_iteration
    if report.paired_gradient is None and k >= 2:
        raise ProtocolError(
            "the update needs the same-sample gradient at the previous query point"
        )
    increment = float(k) * report.gradient
    if k >= 2:
        increment = increment - float(k - 1) * report.paired_gradient
    weighted_momentum = state.weighted_momentum + increment
    descent = state.domain.project(
        state.descent_iterate - state.step_size * weighted_momentum
    )
    t = state.steps_done + 1
    alpha_next = float(t + 1)
    alpha_cumulative = (t + 1) * (t + 2) / 2.0
    averaged = state.averaged_iterate + (alpha_next / alpha_cumulative) * (
        descent - state.averaged_iterate
    )
    return OrderedMu2State(
        descent_iterate=descent,
        averaged_iterate=averaged,
        weighted_momentum=weighted_momentum,
        step_size=state.step_size,
        domain=state.domain,
        steps_done=t,
    )


@dataclass(frozen=True)
class AdaptiveConstants:
    """Problem constants the delay-adaptive step-size rule consumes."""

    lipschitz: float
    num_workers: int
    delta_gap: float
    sigma: float
    total_iterations: int

    def __post_init__(self):
        for name in ("lipschitz", "delta_gap", "sigma"):
            require_in_range(getattr(self, name), f"optimizer.{name}")
        if self.num_workers < 1 or self.total_iterations < 1:
            raise InvalidConfigError("worker and iteration counts must be positive")


@dataclass(frozen=True, slots=True)
class BaselineState:
    """One state type for the five baselines, tagged by ``method``.

    Buffers irrelevant to the tagged method stay ``None``.
    """

    method: str
    iterate: Array
    step_size: float | None = None
    momentum: Array | None = None
    momentum_param: float | None = None
    query_momentum: float | None = None  # γ of the naive averaged variant
    descent_iterate: Array | None = None
    correction: Array | None = None  # d_{t-1} of the naive averaged variant
    filter_threshold: float | None = None
    adaptive: AdaptiveConstants | None = None
    steps_done: int = 0
    applied_updates: int = 0

    @classmethod
    def vanilla(cls, x1: Array, step_size: float) -> "BaselineState":
        require_in_range(step_size, "optimizer.eta")
        return cls(method="vanilla", iterate=np.asarray(x1, dtype=np.float64), step_size=step_size)

    @classmethod
    def delay_adaptive(cls, x1: Array, constants: AdaptiveConstants) -> "BaselineState":
        return cls(
            method="delay_adaptive", iterate=np.asarray(x1, dtype=np.float64), adaptive=constants
        )

    @classmethod
    def delay_filtered(cls, x1: Array, step_size: float, filter_threshold: float) -> "BaselineState":
        require_in_range(step_size, "optimizer.eta")
        require_in_range(filter_threshold, "optimizer.tau_filter")
        return cls(
            method="delay_filtered",
            iterate=np.asarray(x1, dtype=np.float64),
            step_size=step_size,
            filter_threshold=filter_threshold,
        )

    @classmethod
    def naive_momentum(cls, x1: Array, step_size: float, momentum_param: float) -> "BaselineState":
        require_in_range(step_size, "optimizer.eta")
        require_in_range(momentum_param, "optimizer.beta", 1.0, closed=False)
        x1 = np.asarray(x1, dtype=np.float64)
        return cls(
            method="naive_momentum",
            iterate=x1,
            step_size=step_size,
            momentum=np.zeros_like(x1),
            momentum_param=momentum_param,
        )

    @classmethod
    def naive_mu2(
        cls, x1: Array, step_size: float, momentum_param: float, query_momentum: float
    ) -> "BaselineState":
        require_in_range(step_size, "optimizer.eta")
        require_in_range(momentum_param, "optimizer.beta", 1.0, closed=False)
        require_in_range(query_momentum, "optimizer.gamma", 1.0)
        x1 = np.asarray(x1, dtype=np.float64)
        return cls(
            method="naive_mu2",
            iterate=x1,
            step_size=step_size,
            momentum_param=momentum_param,
            query_momentum=query_momentum,
            descent_iterate=x1,
            correction=np.zeros_like(x1),
        )


def delay_adaptive_step_size(constants: AdaptiveConstants, delay: int) -> float:
    """min{1/(Lτ), 1/(LM), √(Δ/(Lσ²T))}; a zero delay drops the first term."""
    c = constants
    candidates = [
        1.0 / (c.lipschitz * c.num_workers),
        math.sqrt(c.delta_gap / (c.lipschitz * c.sigma**2 * c.total_iterations)),
    ]
    if delay > 0:
        candidates.append(1.0 / (c.lipschitz * delay))
    return min(candidates)


def _advance(
    state: BaselineState,
    iterate: Array,
    applied: bool,
    momentum: Array | None = None,
    descent_iterate: Array | None = None,
    correction: Array | None = None,
) -> BaselineState:
    """The next baseline state; buffers the method does not carry stay ``None``."""
    return BaselineState(
        state.method,
        iterate,
        state.step_size,
        momentum,
        state.momentum_param,
        state.query_momentum,
        descent_iterate,
        correction,
        state.filter_threshold,
        state.adaptive,
        state.steps_done + 1,
        state.applied_updates + applied,
    )


def step_baseline(state: BaselineState, report: DelayedGradientReport) -> BaselineState:
    """Advance whichever baseline the state is tagged with."""
    method = state.method
    if method == "vanilla":
        return _advance(state, state.iterate - state.step_size * report.gradient, True)
    if method == "delay_adaptive":
        eta = delay_adaptive_step_size(state.adaptive, report.delay)
        return _advance(state, state.iterate - eta * report.gradient, True)
    if method == "delay_filtered":
        if report.delay > state.filter_threshold:
            return _advance(state, state.iterate, False)
        return _advance(state, state.iterate - state.step_size * report.gradient, True)
    if method == "naive_momentum":
        momentum = state.momentum_param * report.gradient + (1.0 - state.momentum_param) * state.momentum
        return _advance(state, state.iterate - state.step_size * momentum, True, momentum=momentum)
    if method == "naive_mu2":
        if report.paired_gradient is None:
            raise ProtocolError(
                "the update needs the same-sample gradient at the previous query point"
            )
        correction = report.gradient + (1.0 - state.momentum_param) * (
            state.correction - report.paired_gradient
        )
        descent = state.descent_iterate - state.step_size * correction
        gamma = state.query_momentum
        return _advance(
            state,
            gamma * descent + (1.0 - gamma) * state.iterate,
            True,
            descent_iterate=descent,
            correction=correction,
        )
    raise InvalidConfigError(f"unknown baseline {state.method!r}", field="optimizer.method")


@dataclass(frozen=True)
class Theorem1Params:
    beta: float
    eta: float


def theorem1_params(
    lipschitz: float, delta_gap: float, sigma: float, total_iterations: int, num_workers: int
) -> Theorem1Params:
    """Theory-driven (β, η) for the ordered-momentum method.

    β = min{1/(16(M−1)), √(5LΔ)/(σ√T)} and
    η = min{1/(32√2·L(M−1)), √(5Δ)/(2σ√(2LT))}; with a single worker the
    M-dependent branches are vacuous and only the σ-dependent ones apply.
    """
    for name, value in (("lipschitz", lipschitz), ("delta_gap", delta_gap), ("sigma", sigma)):
        if not value > 0:
            raise InvalidConfigError(f"{name} must be positive")
    if total_iterations < 1 or num_workers < 1:
        raise InvalidConfigError("iteration and worker counts must be positive")
    beta = math.sqrt(5.0 * lipschitz * delta_gap) / (sigma * math.sqrt(total_iterations))
    eta = math.sqrt(5.0 * delta_gap) / (
        2.0 * sigma * math.sqrt(2.0 * lipschitz * total_iterations)
    )
    if num_workers >= 2:
        beta = min(beta, 1.0 / (16.0 * (num_workers - 1)))
        eta = min(eta, 1.0 / (32.0 * math.sqrt(2.0) * lipschitz * (num_workers - 1)))
    return Theorem1Params(beta=beta, eta=eta)


@dataclass(frozen=True)
class StepWindow:
    """The step-size interval over which the averaged method is guaranteed stable."""

    eta_min: float
    eta_max: float

    @property
    def ratio(self) -> float:
        return self.eta_max / self.eta_min

    def grid(self, points: int) -> np.ndarray:
        """Log-spaced grid spanning the window, endpoints included."""
        if points < 2:
            raise InvalidConfigError("a grid needs at least two points")
        return np.geomspace(self.eta_min, self.eta_max, points)


def theorem2_step_window(
    lipschitz: float,
    sigma: float,
    sigma_l: float,
    diameter: float,
    total_iterations: int,
    num_workers: int,
) -> StepWindow:
    """η_max = 1/(4LT); η_min = 1/(T·((σ/D + σ_L)√T + LM)).

    The stability bound's upper end hides a constant, taken here as 1:
    only the window's ratio matters for the robustness checks.
    """
    for name, value in (("lipschitz", lipschitz), ("diameter", diameter)):
        if not value > 0:
            raise InvalidConfigError(f"{name} must be positive")
    if sigma < 0 or sigma_l < 0:
        raise InvalidConfigError("noise levels must be nonnegative")
    if total_iterations < 1 or num_workers < 1:
        raise InvalidConfigError("iteration and worker counts must be positive")
    eta_max = 1.0 / (4.0 * lipschitz * total_iterations)
    envelope = (sigma / diameter + sigma_l) * math.sqrt(total_iterations) + lipschitz * num_workers
    eta_min = 1.0 / (total_iterations * envelope)
    return StepWindow(eta_min=eta_min, eta_max=eta_max)


def _resolve_theorem1(constants, domain, T: int, M: int) -> dict:
    """η and β from Theorem 1; needs closed-form σ and Δ."""
    for name in ("sigma", "delta_gap"):
        if getattr(constants, name) is None:
            raise InvalidConfigError(
                f"objective lacks closed-form {name}; give eta/beta explicitly",
                field="optimizer.theory",
            )
    params = theorem1_params(constants.lipschitz, constants.delta_gap, constants.sigma, T, M)
    return {"eta": params.eta, "beta": params.beta}


def _resolve_theorem2(constants, domain, T: int, M: int) -> dict:
    """η at the top of Theorem 2's stable window; needs closed-form σ and σ_L."""
    if constants.sigma is None or constants.sigma_l is None:
        raise InvalidConfigError(
            "objective lacks closed-form noise constants; give eta explicitly",
            field="optimizer.theory",
        )
    window = theorem2_step_window(
        constants.lipschitz, constants.sigma, constants.sigma_l, domain.diameter, T, M
    )
    return {"eta": window.eta_max, "eta_min": window.eta_min, "eta_max": window.eta_max}


@dataclass(frozen=True)
class Method:
    """One row of :data:`METHOD_TABLE`.

    ``build(x1, *values)`` makes the initial state from the values named in
    ``takes`` (``eta``, ``beta``, ``gamma``, ``tau_filter``, ``domain``, or
    ``adaptive`` for an :class:`AdaptiveConstants`).  ``step`` names the step
    function, looked up in this module when a run is prepared.  ``query``,
    ``applied``, ``buffer`` and ``descent`` name state attributes; the
    defaults fit :class:`BaselineState`.  The ordered rules apply every
    update, so ``steps_done`` is their applied count.
    """

    build: Callable[..., Any]
    takes: tuple[str, ...]
    step: str = "step_baseline"
    query: str = "iterate"
    applied: str = "applied_updates"
    buffer: str | None = None
    descent: str | None = None
    paired: bool = False  # needs the same-sample gradient at the previous query
    theory: Callable[..., dict] | None = None  # (constants, domain, T, M) -> params


METHOD_TABLE: dict[str, Method] = {
    "ordered_momentum": Method(
        OrderedMomentumState.initial, ("eta", "beta"), "step_ordered_momentum",
        applied="steps_done", buffer="momentum", theory=_resolve_theorem1,
    ),
    "ordered_mu2": Method(
        OrderedMu2State.initial, ("eta", "domain"), "step_ordered_mu2", query="averaged_iterate",
        applied="steps_done", buffer="weighted_momentum", descent="descent_iterate",
        paired=True, theory=_resolve_theorem2,
    ),
    "vanilla": Method(BaselineState.vanilla, ("eta",)),
    "delay_adaptive": Method(BaselineState.delay_adaptive, ("adaptive",)),
    "delay_filtered": Method(BaselineState.delay_filtered, ("eta", "tau_filter")),
    "naive_momentum": Method(BaselineState.naive_momentum, ("eta", "beta"), buffer="momentum"),
    "naive_mu2": Method(
        BaselineState.naive_mu2, ("eta", "beta", "gamma"), buffer="correction", paired=True
    ),
}

METHODS = tuple(METHOD_TABLE)
