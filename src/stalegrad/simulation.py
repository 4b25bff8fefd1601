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

The loop owns the per-step facts: it hands the update rule t, the dispatch
index and τ, and records an update as not applied when the rule returns the
state it was given.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping

import numpy as np

from . import delays, objectives, optimizers
from .errors import (
    ContractViolationError,
    DivergedRunError,
    InvalidConfigError,
    ReplayDivergenceError,
)
from .objectives import COMPONENT_INDEX, blame, euclidean_norm, integer_at_least, known_keys, true_or_false
from .objectives import finite_list
from .objectives import finite_number as _number

logger = logging.getLogger(__name__)

Array = np.ndarray


#: the delay section of a config that gives none
DEFAULT_DELAY: Mapping[str, Any] = {"slow_weight": 0.1}

#: every optimizer key some method reads; a grid sweep shares one section across methods
_OPTIMIZER_KEYS = frozenset({"method", "theory", *optimizers.RANGES})


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs; plain data so it hashes and pickles cleanly.

    ``objective`` and ``optimizer`` are nested documents in the same shape
    the YAML config uses; ``delay`` holds ``slow_weight``.

    Building one checks the run fields and names the field at fault, so a
    config from YAML, from code or from ``dataclasses.replace`` fails here,
    not at :func:`run`.  ``x_init`` is stored as a tuple of floats.
    """

    objective: Mapping[str, Any]
    optimizer: Mapping[str, Any]
    total_iterations: int
    num_workers: int
    delay: Mapping[str, Any] = field(default_factory=lambda: dict(DEFAULT_DELAY))
    seed: int = 0
    snapshot_stride: int | None = None
    record_gradients: bool = False
    x_init: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        method = self.optimizer.get("method")
        if method not in optimizers.METHODS:
            raise InvalidConfigError(
                f"unknown method {method!r}; choose one of {', '.join(optimizers.METHODS)}",
                field="optimizer.method",
            )
        known_keys(self.optimizer, _OPTIMIZER_KEYS, "optimizer")
        true_or_false(self.optimizer.get("theory", False), "optimizer.theory")
        workers = integer_at_least(self.num_workers, "run.workers", 1)
        iterations = integer_at_least(self.total_iterations, "run.iterations", 1)
        if iterations < workers:
            raise InvalidConfigError("iterations must be at least the worker count", field="run.iterations")
        if iterations > objectives.MAX_DIM**2:  # each T-long column then fits in 128 MiB
            raise InvalidConfigError(f"must be at most {objectives.MAX_DIM**2}", field="run.iterations")
        integer_at_least(self.seed, "run.seed", 0)
        if self.snapshot_stride is not None:
            integer_at_least(self.snapshot_stride, "run.snapshot_stride", 1)
        true_or_false(self.record_gradients, "run.record_gradients")
        if self.x_init is not None:
            object.__setattr__(self, "x_init", tuple(finite_list(self.x_init, "run.x_init").tolist()))


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
    than a precondition violation.  ``snapshot_stride`` and ``record_gradients``
    do not change the realized run but stay in the hash: dropping them would
    re-key every existing output.
    """
    payload = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "seed"}
    canonical = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


#: the trace CSV's per-step columns, in header order; each names a ``RunTrace`` field
TRACE_COLUMNS = (
    "t", "worker_id", "dispatch_iteration", "tau", "component", "loss", "grad_norm", "pending_size"
)


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one run; one row per applied update.

    Scalars are recorded for every iteration at the pre-update point x_t;
    iterate snapshots are strided; ``objective`` is the one the run built and
    evaluated.  The optional dense arrays (gradients, buffers, per-step
    iterates) exist only when the config asked for them — they are what the
    reconstruction oracles consume.
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
    config: SimConfig
    resolved_params: Mapping[str, Any]
    objective: Any
    gradients: Array | None = None
    buffers: Array | None = None
    pre_iterates: Array | None = None
    descent_iterates: Array | None = None

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass
class _Prepared:
    objective: Any
    model: delays.DelayModel
    params: optimizers.Params
    state: optimizers.State
    method: optimizers.Method
    step: Callable[..., optimizers.State]
    resolved: dict[str, Any]


def _adaptive_constants(objective, x1: Array, T: int, M: int, resolved: dict):
    """Delay-adaptive constants: the objective's closed-form L, Δ and σ."""
    constants = objective.theory_constants(x_init=x1)
    values = {}
    for name in ("lipschitz", "delta_gap", "sigma"):
        value = getattr(constants, name)
        if value is None or not 0 < value < math.inf:
            message = f"delay_adaptive needs a positive, finite closed-form {name}, got {value!r}"
            raise InvalidConfigError(message, field="optimizer.method")
        values[name] = float(value)
    resolved.update(values)
    return optimizers.AdaptiveConstants(num_workers=M, total_iterations=T, **values)


def _prepare(config: SimConfig) -> _Prepared:
    """Build every object a run needs; the run fields were checked in ``SimConfig``."""
    T, M = config.total_iterations, config.num_workers
    with blame("delay"):
        known_keys(config.delay, ("slow_weight",), "delay")
        if config.delay.get("slow_weight") is None:
            raise InvalidConfigError("missing", field="delay.slow_weight")
        slow_weight = _number(config.delay["slow_weight"], "delay.slow_weight")
        model = delays.DelayModel.build(M, slow_weight)

    with blame("objective"):
        objective = objectives.from_spec(config.objective, slow_weight)
        domain = objectives.domain_from_spec(config.objective)
    if domain is not None and domain.dim != objective.dim:
        raise InvalidConfigError("domain and objective dimensions differ", field="objective.domain")
    if config.record_gradients and T * objective.dim > objectives.MAX_DIM**2:
        message = f"iterations·dim must be at most {objectives.MAX_DIM**2} with record_gradients"
        raise InvalidConfigError(message, field="run.iterations")

    if config.x_init is None:
        x1 = np.zeros(objective.dim)
    else:
        x1 = np.array(config.x_init)
        if x1.shape != (objective.dim,):
            raise InvalidConfigError(f"x_init must have {objective.dim} entries", field="run.x_init")

    opt = dict(config.optimizer)
    method = opt["method"]
    row = optimizers.METHOD_TABLE[method]
    if "domain" in row.takes and domain is None:
        raise InvalidConfigError("the projected method needs objective.domain", field="objective.domain")

    resolved: dict[str, Any] = {"method": method}
    if opt.get("theory", False):
        if row.theory is None:
            raise InvalidConfigError(
                f"theory-derived parameters are not defined for {method!r}", field="optimizer.theory"
            )
        with blame("optimizer.theory"):  # e.g. sigma = 0 on a noise-free objective
            resolved.update(row.theory(objective.theory_constants(x_init=x1), domain, T, M))
    for name in optimizers.RANGES:
        if name in opt:
            resolved[name] = _number(opt[name], f"optimizer.{name}")

    def value(name: str) -> Any:
        if name == "domain":
            return domain
        if name == "adaptive":
            return _adaptive_constants(objective, x1, T, M, resolved)
        if name not in resolved:
            raise InvalidConfigError("missing", field=f"optimizer.{name}")
        return resolved[name]

    params = optimizers.make_params(method, {name: value(name) for name in row.takes})
    if params.domain is not None and not params.domain.contains(x1):
        raise InvalidConfigError("initial iterate must lie in the domain", field="run.x_init")
    step = getattr(optimizers, row.step)
    return _Prepared(objective, model, params, row.initial(x1), row, step, resolved)


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
    objective, model, method = prep.objective, prep.model, prep.method
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
    buffers = np.zeros((T, dim)) if record else None
    pre_iterates = np.zeros((T, dim)) if record else None
    state = prep.state
    descent_rows = [np.array(state.descent)] if record and method.descent else None

    # Entries are (return clock, worker, dispatch index, wait, component tag,
    # gradient, paired gradient).  Each worker has one ticket in flight, so
    # (clock, worker) is unique and comparisons never reach the rest.
    heap: list[tuple] = []
    push, pop = heapq.heappush, heapq.heappop
    draw_ticket = model.draw_ticket
    needs_pair = method.paired
    oracle, oracle_pair = objective.stochastic_grad, objective.stochastic_grad_pair

    def dispatch(worker: int, index: int, x: Array, x_prev: Array, clock: float) -> None:
        wait, tag = draw_ticket(worker, rng)
        comp = COMPONENT_INDEX[tag]
        if needs_pair:
            g, g_prev = oracle_pair(x, x_prev, comp, rng)
        else:
            g, g_prev = oracle(x, comp, rng), None
        push(heap, (clock + wait, worker, index, wait, tag, g, g_prev))

    query = state.query
    query_prev = query
    for worker in range(M):
        dispatch(worker, 1, query, query_prev, 0.0)
    pending: set[int] = {1}

    step, params = prep.step, prep.params
    for t in range(1, T + 1):
        row = t - 1
        clock, worker, k, wait, tag, g, g_prev = pop(heap)
        tau = t - k
        pending.discard(k)

        worker_col[row] = worker
        dispatch_col[row] = k
        pending_col[row] = len(pending)
        wait_col[row] = wait
        component_col.append(tag)
        loss_col[row] = objective.loss(query)
        grad_norm_col[row] = euclidean_norm(objective.grad(query))
        if record:
            gradients[row] = g
            pre_iterates[row] = query
        if row % stride == 0 or t == T:
            snapshot_steps.append(t)
            snapshots.append(np.array(query))

        before = state
        state = step(params, state, g, t, k, tau, g_prev)
        if state is before:  # the rule dropped the report
            applied_col[row] = False

        new_query = state.query
        buf = state.buffer
        if not _all_finite(new_query) or (buf is not None and not _all_finite(buf)):
            raise DivergedRunError(step=t, last_iterate=np.array(query))
        if record:
            if buf is not None:
                buffers[row] = buf
            if descent_rows is not None:
                descent_rows.append(np.array(state.descent))

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
        config=config,
        resolved_params=prep.resolved,
        objective=objective,
        gradients=gradients,
        buffers=buffers,
        pre_iterates=pre_iterates,
        descent_iterates=None if descent_rows is None else np.array(descent_rows),
    )


def replay_compare(trace: RunTrace, config: SimConfig) -> int | None:
    """Re-run ``config`` and return the first iteration whose record differs.

    Returns ``None`` when every record matches bit-for-bit.  Precondition:
    the trace must come from the same experiment (matching config hash).
    """
    if config_hash(trace.config) != config_hash(config):
        raise ContractViolationError("trace was recorded under a different config (hash mismatch)")
    fresh = run(config)
    differs = np.zeros(len(fresh), dtype=bool)
    for name in (*TRACE_COLUMNS, "waiting_time"):
        differs |= np.asarray(getattr(trace, name)) != np.asarray(getattr(fresh, name))
    rows = np.flatnonzero(differs)
    return int(fresh.t[rows[0]]) if rows.size else None


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
    if config.seed == trace.config.seed:
        raise ReplayDivergenceError(first)
    logger.info("replay under seed %d diverged from seed %d at iteration %d",
                config.seed, trace.config.seed, first)
    return False
