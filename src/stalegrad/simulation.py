"""Deterministic event-driven simulation of a central server with M workers.

Two clocks run side by side.  A real-valued wall clock orders worker
returns through a priority queue (ties broken by ascending worker id); the
global iteration counter t advances only when an arrival is applied.  The
realized staleness of an update is τ_t = t − dispatch_iteration, measured
in iterations.

At clock 0 every worker is dispatched with the initial point, so all M
initial tickets share dispatch index 1; the pending set holds each index
once, which keeps |pending| ≤ M−1 at every update.  A worker computes its
gradient against the snapshot it was handed (the draw happens at dispatch
time, which is what makes runs replayable), and is immediately re-dispatched
with the newest point after its update is applied.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from . import delays, objectives, optimizers
from .errors import (
    ContractViolationError,
    DivergedRunError,
    InvalidConfigError,
    ReplayDivergenceError,
)
from .objectives import FAST, SLOW, euclidean_norm
from .objectives import finite_number as _number

logger = logging.getLogger(__name__)

Array = np.ndarray


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs; plain data so it hashes and pickles cleanly.

    ``objective`` and ``optimizer`` are nested documents in the same shape
    the YAML config uses; ``delay`` holds at least ``slow_weight``.
    """

    objective: Mapping[str, Any]
    optimizer: Mapping[str, Any]
    total_iterations: int
    num_workers: int
    delay: Mapping[str, Any] = field(default_factory=lambda: {"slow_weight": 0.1})
    seed: int = 0
    snapshot_stride: int | None = None
    record_gradients: bool = False
    x_init: tuple[float, ...] | None = None


def _jsonable(value: Any) -> Any:
    """Coerce config entries (possibly numpy scalars/arrays) to JSON types."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return value


def config_hash(config: SimConfig) -> str:
    """SHA-256 of the canonical config document, excluding the seed.

    The hash identifies the experiment; the seed identifies the realization
    and is recorded separately, so replaying a trace against the same
    experiment at a different seed is a comparable (unequal) outcome rather
    than a precondition violation.
    """
    payload = {
        "objective": config.objective,
        "optimizer": config.optimizer,
        "delay": config.delay,
        "total_iterations": config.total_iterations,
        "num_workers": config.num_workers,
        "snapshot_stride": config.snapshot_stride,
        "record_gradients": config.record_gradients,
        "x_init": list(config.x_init) if config.x_init is not None else None,
    }
    canonical = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one run; one row per applied update.

    Scalars are recorded for every iteration at the pre-update point x_t;
    iterate snapshots are strided.  The optional dense arrays (gradients,
    buffers, per-step iterates) exist only when the config asked for them —
    they are what the reconstruction oracles consume.
    """

    t: Array
    worker_id: Array
    dispatch_iteration: Array
    tau: Array
    pending_size: Array
    waiting_time: Array
    component: tuple[str, ...]
    loss: Array
    grad_norm: Array
    applied: Array
    snapshot_steps: Array
    snapshots: Array
    final_iterate: Array
    seed: int
    config_hash: str
    config: SimConfig
    resolved_params: Mapping[str, Any]
    gradients: Array | None = None
    paired_gradients: Array | None = None
    buffers: Array | None = None
    pre_iterates: Array | None = None
    descent_iterates: Array | None = None

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass
class _Prepared:
    objective: Any
    domain: objectives.BallDomain | None
    model: delays.DelayModel
    x1: Array
    state: Any
    step: Callable[[Any, optimizers.DelayedGradientReport], Any]
    query: Callable[[Any], Array]
    buffer: Callable[[Any], Array | None]
    descent: Callable[[Any], Array | None]
    needs_pair: bool
    resolved: dict[str, Any]


def _vector(value: Any, field: str) -> Array:
    """``value`` as a finite float64 array, or :class:`InvalidConfigError` naming ``field``."""
    try:
        out = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidConfigError(f"must be a list of numbers, got {value!r}", field=field) from None
    if not np.all(np.isfinite(out)):
        raise InvalidConfigError("entries must be finite", field=field)
    return out


def _resolve_theory(method: str, opt: Mapping[str, Any], constants, domain, T: int, M: int):
    """Derive method parameters from closed-form problem constants."""
    if method == "ordered_momentum":
        for name in ("sigma", "delta_gap"):
            if getattr(constants, name) is None:
                raise InvalidConfigError(
                    f"objective lacks closed-form {name}; give eta/beta explicitly",
                    field="optimizer.theory",
                )
        params = optimizers.theorem1_params(
            constants.lipschitz, constants.delta_gap, constants.sigma, T, M
        )
        return {"eta": params.eta, "beta": params.beta}
    if method == "ordered_mu2":
        if domain is None:
            raise InvalidConfigError("the projected method needs objective.domain", field="objective.domain")
        if constants.sigma is None or constants.sigma_l is None:
            raise InvalidConfigError(
                "objective lacks closed-form noise constants; give eta explicitly",
                field="optimizer.theory",
            )
        window = optimizers.theorem2_step_window(
            constants.lipschitz,
            constants.sigma,
            constants.sigma_l,
            domain.diameter,
            T,
            M,
            bound_constant=_number(opt.get("bound_constant", 1.0), "optimizer.bound_constant"),
        )
        return {"eta": window.eta_max, "eta_min": window.eta_min, "eta_max": window.eta_max}
    raise InvalidConfigError(
        f"theory-derived parameters are not defined for {method!r}", field="optimizer.theory"
    )


def _prepare(config: SimConfig) -> _Prepared:
    """Validate the config and build every object a run needs."""
    T, M = config.total_iterations, config.num_workers
    if M < 1:
        raise InvalidConfigError("need at least one worker", field="run.workers")
    if T < 1:
        raise InvalidConfigError("need at least one iteration", field="run.iterations")
    if T < M:
        raise InvalidConfigError("iterations must be at least the worker count", field="run.iterations")
    if config.seed < 0:
        raise InvalidConfigError("seed must be nonnegative", field="run.seed")
    if config.snapshot_stride is not None and config.snapshot_stride < 1:
        raise InvalidConfigError("snapshot stride must be positive", field="run.snapshot_stride")

    delay_spec = dict(config.delay)
    if delay_spec.get("slow_weight") is None:
        raise InvalidConfigError("missing", field="delay.slow_weight")
    slow_weight = _number(delay_spec["slow_weight"], "delay.slow_weight")
    probs = delay_spec.get("arrival_probs")
    model = delays.DelayModel.build(
        M, slow_weight, None if probs is None else _vector(probs, "delay.arrival_probs")
    )

    _number(config.objective.get("noise_sigma", 0.0), "objective.noise_sigma")  # check only
    try:
        objective = objectives.from_spec(config.objective, slow_weight)
        domain = objectives.domain_from_spec(config.objective)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"malformed entry: {exc}", field="objective") from None
    if domain is not None and domain.dim != objective.dim:
        raise InvalidConfigError("domain and objective dimensions differ", field="objective.domain")

    if config.x_init is None:
        x1 = np.zeros(objective.dim)
    else:
        x1 = _vector(config.x_init, "run.x_init")
        if x1.shape != (objective.dim,):
            raise InvalidConfigError(
                f"x_init must have {objective.dim} entries", field="run.x_init"
            )

    opt = dict(config.optimizer)
    method = opt.get("method")
    if method not in optimizers.METHODS:
        raise InvalidConfigError(f"unknown method {method!r}", field="optimizer.method")

    resolved: dict[str, Any] = {"method": method}
    if opt.get("theory"):
        constants = objective.theory_constants(x_init=x1)
        resolved.update(_resolve_theory(method, opt, constants, domain, T, M))
    for name in ("eta", "beta", "gamma", "tau_filter"):
        if name in opt:
            resolved[name] = _number(opt[name], f"optimizer.{name}")

    def need(name: str) -> float:
        if name not in resolved:
            raise InvalidConfigError("missing", field=f"optimizer.{name}")
        return resolved[name]

    needs_pair = method in ("ordered_mu2", "naive_mu2")
    buffer = lambda s: None  # noqa: E731 - overridden per method below
    descent = lambda s: None  # noqa: E731
    query = lambda s: s.iterate  # noqa: E731

    if method == "ordered_momentum":
        state = optimizers.OrderedMomentumState.initial(x1, need("eta"), need("beta"))
        step = optimizers.step_ordered_momentum
        buffer = lambda s: s.momentum
    elif method == "ordered_mu2":
        if domain is None:
            raise InvalidConfigError(
                "the projected method needs objective.domain", field="objective.domain"
            )
        state = optimizers.OrderedMu2State.initial(x1, need("eta"), domain)
        step = optimizers.step_ordered_mu2
        query = lambda s: s.averaged_iterate
        buffer = lambda s: s.weighted_momentum
        descent = lambda s: s.descent_iterate
    else:
        step = optimizers.step_baseline
        if method == "vanilla":
            state = optimizers.BaselineState.vanilla(x1, need("eta"))
        elif method == "delay_adaptive":
            constants = objective.theory_constants(x_init=x1)
            values = {}
            for name, fallback in (
                ("lipschitz", constants.lipschitz),
                ("delta_gap", constants.delta_gap),
                ("sigma", constants.sigma),
            ):
                value = opt.get(name, fallback)
                if value is None:
                    raise InvalidConfigError(
                        f"objective lacks closed-form {name}; supply it explicitly",
                        field=f"optimizer.{name}",
                    )
                values[name] = _number(value, f"optimizer.{name}")
            adaptive = optimizers.AdaptiveConstants(
                lipschitz=values["lipschitz"],
                num_workers=M,
                delta_gap=values["delta_gap"],
                sigma=values["sigma"],
                total_iterations=T,
            )
            resolved.update(values)
            state = optimizers.BaselineState.delay_adaptive(x1, adaptive)
        elif method == "delay_filtered":
            state = optimizers.BaselineState.delay_filtered(x1, need("eta"), need("tau_filter"))
        elif method == "naive_momentum":
            state = optimizers.BaselineState.naive_momentum(x1, need("eta"), need("beta"))
        else:  # naive_mu2
            state = optimizers.BaselineState.naive_mu2(
                x1, need("eta"), need("beta"), need("gamma")
            )
            buffer = lambda s: s.correction
            descent = lambda s: s.descent_iterate
        if method == "naive_momentum":
            buffer = lambda s: s.momentum

    return _Prepared(
        objective=objective,
        domain=domain,
        model=model,
        x1=x1,
        state=state,
        step=step,
        query=query,
        buffer=buffer,
        descent=descent,
        needs_pair=needs_pair,
        resolved=resolved,
    )


def validate_config(config: SimConfig) -> None:
    """Raise :class:`InvalidConfigError` (with a field path) on any bad entry."""
    _prepare(config)


def _all_finite(v: Array) -> bool:
    """True when every entry of ``v`` is finite.

    Exact fast path: v·v sums nonnegative terms, so it is finite only when
    every entry is.  When it is not (a non-finite entry, or squares that
    overflow, which numpy reports with its usual overflow warning), the
    entries are checked one by one.
    """
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def run(config: SimConfig) -> RunTrace:
    """Execute one simulation; exactly T updates, deterministic per seed."""
    prep = _prepare(config)
    T, M = config.total_iterations, config.num_workers
    objective, model = prep.objective, prep.model
    rng = np.random.default_rng(config.seed)
    dim = objective.dim

    stride = config.snapshot_stride or max(1, math.ceil(T / 1000))
    record = config.record_gradients

    worker_col = np.zeros(T, dtype=np.int64)
    dispatch_col = np.zeros(T, dtype=np.int64)
    pending_col = np.zeros(T, dtype=np.int64)
    wait_col = np.zeros(T, dtype=np.int64)
    component_col: list[str] = []
    loss_col = np.zeros(T)
    grad_norm_col = np.zeros(T)
    applied_col = np.ones(T, dtype=bool)
    snapshot_steps: list[int] = []
    snapshots: list[Array] = []
    gradients = np.zeros((T, dim)) if record else None
    paired = np.zeros((T, dim)) if (record and prep.needs_pair) else None
    buffers = np.zeros((T, dim)) if record else None
    pre_iterates = np.zeros((T, dim)) if record else None
    descent_rows: list[Array] | None = None
    if record and prep.descent(prep.state) is not None:
        descent_rows = [np.array(prep.descent(prep.state))]

    # Entries are (return clock, worker, ticket, gradient, paired gradient).
    # Each worker has one ticket in flight, so (clock, worker) is unique and
    # comparisons never reach the ticket.
    heap: list[tuple] = []
    push, pop = heapq.heappush, heapq.heappop
    draw_ticket = model.draw_ticket
    component_index = {tag: objective.component_for(tag) for tag in (SLOW, FAST)}
    needs_pair = prep.needs_pair
    oracle, oracle_pair = objective.stochastic_grad, objective.stochastic_grad_pair

    def dispatch(worker: int, index: int, x: Array, x_prev: Array, clock: float) -> None:
        ticket = draw_ticket(worker, index, clock, rng)
        comp = component_index[ticket.component]
        if needs_pair:
            g, g_prev = oracle_pair(x, x_prev, comp, rng)
        else:
            g, g_prev = oracle(x, comp, rng), None
        push(heap, (ticket.return_clock, worker, ticket, g, g_prev))

    state = prep.state
    query = prep.query(state)
    query_prev = query
    for worker in range(M):
        dispatch(worker, 1, query, query_prev, 0.0)
    pending: set[int] = {1}

    step, query_of, buffer_of = prep.step, prep.query, prep.buffer
    make_report = optimizers.DelayedGradientReport
    counts_applied = hasattr(state, "applied_updates")
    for t in range(1, T + 1):
        row = t - 1
        clock, worker, ticket, g, g_prev = pop(heap)
        k = ticket.dispatch_iteration
        tau = t - k
        pending.discard(k)

        worker_col[row] = worker
        dispatch_col[row] = k
        pending_col[row] = len(pending)
        wait_col[row] = ticket.waiting_time
        component_col.append(ticket.component)
        loss_col[row] = objective.loss(query)
        grad_norm_col[row] = euclidean_norm(objective.grad(query))
        if record:
            gradients[row] = g
            pre_iterates[row] = query
            if paired is not None:
                paired[row] = g_prev
        if row % stride == 0 or t == T:
            snapshot_steps.append(t)
            snapshots.append(np.array(query))

        if counts_applied:
            applied_before = state.applied_updates
        state = step(state, make_report(g, k, tau, g_prev))
        if counts_applied and state.applied_updates == applied_before:
            applied_col[row] = False

        new_query = query_of(state)
        buf = buffer_of(state)
        if not _all_finite(new_query) or (buf is not None and not _all_finite(buf)):
            raise DivergedRunError(step=t, last_iterate=np.array(query))
        if record:
            if buffers is not None and buf is not None:
                buffers[row] = buf
            if descent_rows is not None:
                descent_rows.append(np.array(prep.descent(state)))

        query_prev = query
        query = new_query
        pending.add(t + 1)
        dispatch(worker, t + 1, query, query_prev, clock)

    t_col = np.arange(1, T + 1, dtype=np.int64)
    return RunTrace(
        t=t_col,
        worker_id=worker_col,
        dispatch_iteration=dispatch_col,
        tau=t_col - dispatch_col,
        pending_size=pending_col,
        waiting_time=wait_col,
        component=tuple(component_col),
        loss=loss_col,
        grad_norm=grad_norm_col,
        applied=applied_col,
        snapshot_steps=np.array(snapshot_steps, dtype=np.int64),
        snapshots=np.array(snapshots),
        final_iterate=np.array(query),
        seed=config.seed,
        config_hash=config_hash(config),
        config=config,
        resolved_params=prep.resolved,
        gradients=gradients,
        paired_gradients=paired,
        buffers=None if buffers is None else buffers,
        pre_iterates=pre_iterates,
        descent_iterates=None if descent_rows is None else np.array(descent_rows),
    )


_NUMERIC_FIELDS = (
    "t",
    "worker_id",
    "dispatch_iteration",
    "tau",
    "pending_size",
    "waiting_time",
    "loss",
    "grad_norm",
)


def replay_compare(trace: RunTrace, config: SimConfig) -> int | None:
    """Re-run ``config`` and return the first iteration whose record differs.

    Returns ``None`` when every record matches bit-for-bit.  Precondition:
    the trace must come from the same experiment (matching config hash).
    """
    if trace.config_hash != config_hash(config):
        raise ContractViolationError("trace was recorded under a different config (hash mismatch)")
    fresh = run(config)
    first: int | None = None
    for name in _NUMERIC_FIELDS:
        a, b = getattr(trace, name), getattr(fresh, name)
        diff = np.nonzero(a != b)[0]
        if diff.size:
            candidate = int(trace.t[diff[0]])
            first = candidate if first is None else min(first, candidate)
    for i, (a, b) in enumerate(zip(trace.component, fresh.component)):
        if a != b:
            candidate = int(trace.t[i])
            first = candidate if first is None else min(first, candidate)
            break
    return first


def replay_check(trace: RunTrace, config: SimConfig) -> bool:
    """True when re-running the config reproduces the trace exactly.

    With the recorded seed, any mismatch means determinism itself broke and
    raises :class:`ReplayDivergenceError`; with a different seed a mismatch
    is the expected outcome and simply returns False (the first differing
    iteration is logged).
    """
    first = replay_compare(trace, config)
    if first is None:
        return True
    if config.seed == trace.seed:
        raise ReplayDivergenceError(first)
    logger.info("replay under seed %d diverged from seed %d at iteration %d",
                config.seed, trace.seed, first)
    return False
