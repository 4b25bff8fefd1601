"""Update rules as pure step functions over one immutable state type.

Every rule is ``step(params, state, g, t, k, tau, g_prev)``: the run's
constants, the current :class:`State`, the arriving gradient ``g``, the
iteration ``t`` it is applied at, its dispatch index ``k``, its delay
``tau`` and, for the paired rules, the same-sample gradient ``g_prev`` at
the previous query point.  It returns a fresh state, or the state it was
given when the rule drops the report; nothing is mutated, so trajectories
can be replayed and golden-traced.  The iteration, the delay and the
dispatch index are treated as independent facts: the caller owns the
iteration count, the staleness discount uses the delay, the first-dispatch
zero rule keys on the dispatch index, and none is ever recomputed from the
others.

The state stays immutable (a named tuple), and each rule builds the next
one directly with its positional constructor: on a path taken once per
iteration, that costs about half of what a frozen dataclass's does.

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

A method is one step rule over :class:`State` and one row of
:data:`METHOD_TABLE` (see :class:`Method`), which is all the simulation
knows of it; the five baselines share :func:`step_baseline`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

import numpy as np

from .errors import ContractViolationError, InvalidConfigError

if TYPE_CHECKING:  # objectives imports the config table, which reads this module's methods
    from .objectives import BallDomain

Array = np.ndarray


def ordered_weight(beta: float, tau: int) -> float:
    """β(1−β)^τ — the discount restoring a late gradient's original weight."""
    if not 0.0 < beta < 1.0 or tau < 0:
        raise InvalidConfigError(f"needs beta in (0, 1) and a nonnegative delay, got {beta!r} and {tau!r}")
    return beta * (1.0 - beta) ** tau


@dataclass(frozen=True)
class AdaptiveConstants:
    """Problem constants of the delay-adaptive step size, checked where a run derives them."""

    lipschitz: float
    num_workers: int
    delta_gap: float
    sigma: float
    total_iterations: int


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


class State(NamedTuple):
    """What every rule carries from one update to the next.

    ``query`` is the point workers differentiate at.  ``buffer`` is the
    rule's one running vector (momentum, q_{t−1} = α_{t−1}·d_{t−1}, or the
    naive correction d_{t−1}) and ``descent`` its descent iterate w_t; each
    is ``None`` for a rule without one.
    """

    query: Array
    buffer: Array | None
    descent: Array | None


@dataclass(frozen=True, slots=True)
class Params:
    """The constants of one run's rule; those the method does not take stay ``None``.

    ``gamma`` is the query momentum of the naive averaged variant.
    """

    method: str
    eta: float | None = None
    beta: float | None = None
    gamma: float | None = None
    tau_filter: float | None = None
    domain: BallDomain | None = None
    adaptive: AdaptiveConstants | None = None


def step_ordered_momentum(
    params: Params, state: State, g: Array, t: int, k: int, tau: int, g_prev: Array | None
) -> State:
    """m ← β(1−β)^τ·g + (1−β)·m, then x ← x − η·m.

    After the very first update, any further report carrying dispatch
    index 1 is a duplicate of the initial dispatch and its gradient is
    replaced by zero.
    """
    beta = params.beta
    if k == 1 and t > 1:
        weighted = np.zeros_like(state.buffer)
    else:
        weighted = ordered_weight(beta, tau) * g
    momentum = weighted + (1.0 - beta) * state.buffer
    return State(state.query - params.eta * momentum, momentum, None)


def step_ordered_mu2(
    params: Params, state: State, g: Array, t: int, k: int, tau: int, g_prev: Array | None
) -> State:
    """Accumulate s_k = α_k·g − α_{k−1}·g̃, project, and re-average.

    The α₀ = 0 convention makes the first dispatch's increment just g₁, so
    a missing pair is tolerated only for dispatch index 1.
    """
    if g_prev is None and k >= 2:
        raise ContractViolationError("the update needs the same-sample gradient at the previous query point")
    increment = float(k) * g
    if k >= 2:
        increment = increment - float(k - 1) * g_prev
    weighted_momentum = state.buffer + increment
    descent = params.domain.project(state.descent - params.eta * weighted_momentum)
    alpha_next = float(t + 1)
    alpha_cumulative = (t + 1) * (t + 2) / 2.0
    averaged = state.query + (alpha_next / alpha_cumulative) * (descent - state.query)
    return State(averaged, weighted_momentum, descent)


def step_baseline(
    params: Params, state: State, g: Array, t: int, k: int, tau: int, g_prev: Array | None
) -> State:
    """Advance whichever baseline ``params.method`` names.

    ``delay_filtered`` drops a report older than ``tau_filter`` by returning
    ``state`` itself.
    """
    method = params.method
    if method == "vanilla":
        return State(state.query - params.eta * g, None, None)
    if method == "delay_adaptive":
        eta = delay_adaptive_step_size(params.adaptive, tau)
        return State(state.query - eta * g, None, None)
    if method == "delay_filtered":
        if tau > params.tau_filter:
            return state
        return State(state.query - params.eta * g, None, None)
    if method == "naive_momentum":
        momentum = params.beta * g + (1.0 - params.beta) * state.buffer
        return State(state.query - params.eta * momentum, momentum, None)
    if method == "naive_mu2":
        if g_prev is None:
            raise ContractViolationError("the update needs the same-sample gradient at the previous query point")
        correction = g + (1.0 - params.beta) * (state.buffer - g_prev)
        descent = state.descent - params.eta * correction
        gamma = params.gamma
        query = gamma * descent + (1.0 - gamma) * state.query
        return State(query, correction, descent)
    raise InvalidConfigError(f"unknown baseline {method!r}", field="optimizer.method")


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

    ``takes`` names the constants of the method's :class:`Params`
    (``eta``, ``beta``, ``gamma``, ``tau_filter``, ``domain``, or
    ``adaptive`` for an :class:`AdaptiveConstants`).  ``step`` names the
    step function, looked up in this module when a run is prepared.
    ``buffer`` and ``descent`` say whether the rule's :class:`State`
    carries those vectors.
    """

    takes: tuple[str, ...]
    step: str = "step_baseline"
    buffer: bool = False
    descent: bool = False
    paired: bool = False  # needs the same-sample gradient at the previous query
    theory: Callable[..., dict] | None = None  # (constants, domain, T, M) -> params

    def initial(self, x1: Array) -> State:
        """The state before the first update: buffer at zero, descent iterate at x₁."""
        x1 = np.asarray(x1, dtype=np.float64)
        return State(x1, np.zeros_like(x1) if self.buffer else None, x1 if self.descent else None)


METHOD_TABLE: dict[str, Method] = {
    "ordered_momentum": Method(
        ("eta", "beta"), "step_ordered_momentum", buffer=True, theory=_resolve_theorem1
    ),
    "ordered_mu2": Method(
        ("eta", "domain"), "step_ordered_mu2", buffer=True, descent=True, paired=True,
        theory=_resolve_theorem2,
    ),
    "vanilla": Method(("eta",)),
    "delay_adaptive": Method(("adaptive",)),
    "delay_filtered": Method(("eta", "tau_filter")),
    "naive_momentum": Method(("eta", "beta"), buffer=True),
    "naive_mu2": Method(("eta", "beta", "gamma"), buffer=True, descent=True, paired=True),
}

METHODS = tuple(METHOD_TABLE)


def make_params(method: str, values: Mapping[str, Any]) -> Params:
    """``method``'s :class:`Params` from ``values``, whose ranges ``schema.KEYS`` checked."""
    return Params(method, **{name: values[name] for name in METHOD_TABLE[method].takes})
