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

from . import delays, objectives, optimizers, schema
from .errors import (
    ContractViolationError,
    DivergedRunError,
    InvalidConfigError,
    ReplayDivergenceError,
)
from .objectives import COMPONENT_INDEX, euclidean_norm
from .schema import MAX_DIM, blame

logger = logging.getLogger(__name__)

Array = np.ndarray


#: the delay section of a config that gives none
DEFAULT_DELAY: Mapping[str, Any] = schema.walk({}, "delay")

#: the ``SimConfig`` field of each run key whose name differs from it
RUN_FIELDS = {"workers": "num_workers", "iterations": "total_iterations"}


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs; plain data so it hashes and pickles cleanly.

    ``objective`` and ``optimizer`` are nested documents in the same shape
    the YAML config uses; ``delay`` holds ``slow_weight``.

    Building one walks the optimizer (by its method), delay and run sections
    through ``schema.KEYS`` and names the field at fault, so a config from
    YAML, from code or from ``dataclasses.replace`` fails here, not at
    :func:`run`; the objective is checked where it is built.  ``x_init`` is
    stored as a tuple of floats; the checked values, defaults filled in, are
    kept beside the fields (not in them, so the hash never reads them).
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
        run = {key: getattr(self, RUN_FIELDS.get(key, key)) for key in schema.names("run")}
        method = self.optimizer.get("method") if isinstance(self.optimizer, Mapping) else None
        reader = method if isinstance(method, str) and method in optimizers.METHODS else None  # else refused
        checked = {"optimizer": schema.walk(self.optimizer, "optimizer", reader)}
        checked.update(run=schema.walk(run, "run"), delay=schema.walk(self.delay, "delay"))
        if checked["run"]["iterations"] < checked["run"]["workers"]:
            raise InvalidConfigError("iterations must be at least the worker count", field="run.iterations")
        if self.x_init is not None:
            object.__setattr__(self, "x_init", tuple(checked["run"]["x_init"].tolist()))
        object.__setattr__(self, "checked", checked)


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
    ``objective`` is the one the run built and evaluated.  The other arrays
    are ``None`` unless the config asks for them: ``snapshot_stride`` keeps x_t
    at steps 1, 1 + stride, … and T, and ``record_gradients`` the dense
    per-step arrays the reconstruction oracles consume (``descent_iterates``
    holds T + 1 rows, the initial one first).
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
    snapshot_steps: Array | None
    snapshots: Array | None
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
    snapshot_steps: Array | None


def _theory_constants(objective, x1: Array, spec: Mapping[str, Any]):
    """The objective's closed-form constants, refused by field path when f* or
    f(x₁) − f* lies past a float's range (a finite but huge minimizer or x_init)."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        constants = objective.theory_constants(x_init=x1)
    if not math.isfinite(constants.f_star or 0.0):
        keys = [key for key in ("minimizer", "offset", "components") if key in spec]
        path = f"objective.{keys[0]}" if keys else "objective"
        raise InvalidConfigError("f at the minimizer overflows a float", field=path)
    if not math.isfinite(constants.delta_gap or 0.0):
        raise InvalidConfigError("f(x_init) − f* overflows a float", field="run.x_init")
    return constants


def _adaptive_constants(constants, T: int, M: int, resolved: dict):
    """Delay-adaptive constants: the objective's closed-form L, Δ and σ."""
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
    """Build every object a run needs from the values ``SimConfig`` checked."""
    T, M = config.total_iterations, config.num_workers
    slow_weight = config.checked["delay"]["slow_weight"]
    model = delays.DelayModel.build(M, slow_weight)

    with blame("objective"):
        objective = objectives.from_spec(config.objective, slow_weight)
        domain = objectives.domain_from_spec(config.objective)
    if domain is not None and domain.dim != objective.dim:
        raise InvalidConfigError("domain and objective dimensions differ", field="objective.domain")
    if config.record_gradients and T * objective.dim > MAX_DIM**2:
        message = f"iterations·dim must be at most {MAX_DIM**2} with record_gradients"
        raise InvalidConfigError(message, field="run.iterations")
    stride = config.snapshot_stride  # snapshots at steps 1, 1 + stride, … and T
    steps = None if stride is None else np.append(np.arange(1, T, stride), T)
    if steps is not None and steps.shape[0] * objective.dim > MAX_DIM**2:
        raise InvalidConfigError(f"snapshots·dim must be at most {MAX_DIM**2}", field="run.snapshot_stride")

    if config.x_init is None:
        x1 = np.zeros(objective.dim)
    else:
        x1 = np.array(config.x_init)
        if x1.shape != (objective.dim,):
            raise InvalidConfigError(f"x_init must have {objective.dim} entries", field="run.x_init")

    opt = dict(config.checked["optimizer"])
    method, theory = opt.pop("method"), opt.pop("theory", False)  # opt keeps the step sizes given
    row = optimizers.METHOD_TABLE[method]
    if "domain" in row.takes and domain is None:
        raise InvalidConfigError("the projected method needs objective.domain", field="objective.domain")

    resolved: dict[str, Any] = {"method": method}
    if theory:
        with blame("optimizer.theory"):  # e.g. sigma = 0 on a noise-free objective
            resolved.update(row.theory(_theory_constants(objective, x1, config.objective), domain, T, M))
    resolved.update(opt)  # a given step size wins over the derived one

    def value(name: str) -> Any:
        if name == "domain":
            return domain
        if name == "adaptive":
            return _adaptive_constants(_theory_constants(objective, x1, config.objective), T, M, resolved)
        if name not in resolved:
            raise InvalidConfigError("missing", field=f"optimizer.{name}")
        if name not in opt:  # derived: Theorem 1's beta reaches 1 for one worker and a wide gap
            return schema.check(f"optimizer.{name}", resolved[name])
        return resolved[name]

    params = optimizers.Params(method, **{name: value(name) for name in row.takes})
    if params.domain is not None and not params.domain.contains(x1):
        raise InvalidConfigError("initial iterate must lie in the domain", field="run.x_init")
    step = getattr(optimizers, row.step)
    return _Prepared(objective, model, params, row.initial(x1), row, step, resolved, steps)


def validate_config(config: SimConfig) -> None:
    """Raise :class:`InvalidConfigError` (with a field path) on any bad entry."""
    _prepare(config)


def _all_finite(v: Array) -> bool:
    """True when every entry of ``v`` is finite.

    Exact fast path: v·v sums nonnegative terms, so it is finite only when
    every entry is.  When it is not (a non-finite entry, or squares that
    overflow), the entries are checked one by one.
    """
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def run(config: SimConfig) -> RunTrace:
    """Execute one simulation; exactly T updates, deterministic per seed."""
    prep = _prepare(config)
    T, M = config.total_iterations, config.num_workers
    objective, model, method = prep.objective, prep.model, prep.method
    rng = np.random.default_rng(config.seed)
    dim = objective.dim

    stride, record = config.snapshot_stride, config.record_gradients

    worker_col = np.zeros(T, dtype=np.int64)
    dispatch_col = np.zeros(T, dtype=np.int64)
    wait_col = np.zeros(T, dtype=np.int64)
    component_col: list[str] = []
    loss_col = np.zeros(T)
    grad_norm_col = np.zeros(T)
    applied_col = np.ones(T, dtype=bool)
    snapshots = np.empty((prep.snapshot_steps.shape[0], dim)) if stride else None
    gradients = np.zeros((T, dim)) if record else None
    buffers = np.zeros((T, dim)) if record else None
    pre_iterates = np.zeros((T, dim)) if record else None
    state = prep.state
    descent_iterates = np.full((T + 1, dim), state.descent) if record and method.descent else None

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

    step, params = prep.step, prep.params
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run raises DivergedRunError
        for t in range(1, T + 1):
            row = t - 1
            clock, worker, k, wait, tag, g, g_prev = pop(heap)
            tau = t - k

            worker_col[row] = worker
            dispatch_col[row] = k
            wait_col[row] = wait
            component_col.append(tag)
            loss_col[row] = loss = objective.loss(query)
            grad_norm_col[row] = norm = euclidean_norm(objective.grad(query))
            if stride and (row % stride == 0 or t == T):
                snapshots[-1 if t == T else row // stride] = query

            before = state
            state = step(params, state, g, t, k, tau, g_prev)
            if state is before:  # the rule dropped the report
                applied_col[row] = False

            new_query, buf = state.query, state.buffer
            # x_t's loss and squared gradient norm (avg_sq_grad_norm sums the square), x_{t+1}, its buffer
            finite = math.isfinite(loss) and math.isfinite(norm * norm) and _all_finite(new_query)
            if not (finite and (buf is None or _all_finite(buf))):
                raise DivergedRunError(step=t, last_iterate=np.array(query), resolved_params=prep.resolved)
            if record:
                gradients[row] = g
                pre_iterates[row] = query
                if buf is not None:
                    buffers[row] = buf
                if descent_iterates is not None:
                    descent_iterates[t] = state.descent

            query_prev = query
            query = new_query
            dispatch(worker, t + 1, query, query_prev, clock)

    t_col = np.arange(1, T + 1, dtype=np.int64)
    # pending at step t: the indices 2..t not yet returned, and 1 until its first return
    pending_col = t_col - np.cumsum(dispatch_col >= 2) - np.maximum.accumulate(dispatch_col == 1)
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
        snapshot_steps=prep.snapshot_steps,
        snapshots=snapshots,
        final_iterate=np.array(query),
        config=config,
        resolved_params=prep.resolved,
        objective=objective,
        gradients=gradients,
        buffers=buffers,
        pre_iterates=pre_iterates,
        descent_iterates=descent_iterates,
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
