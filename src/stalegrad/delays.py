"""Worker delay model: imbalanced arrival rates with data-dependent components.

Worker i (1-based) succeeds each wall-clock step with probability
p_i = i / Σ_j j, so its waiting time is geometric on {1, 2, ...}.  A ticket
whose wait exceeds the worker's threshold τ_i = log(q₁)/log(1−p_i) carries
the slow component; since ℙ{T_i > τ_i} = q₁ exactly, every worker — and
the pool as a whole — samples the slow component with probability q₁
while slow samples ride the long waits.

One draw per ticket serves both purposes: it schedules the return and
decides the component, which is precisely the data/delay coupling the
simulator exists to study.  A ticket is the pair (wait, component) that
:meth:`DelayModel.draw_ticket` returns; the caller keeps the dispatch
index and adds the wait to its own clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .objectives import FAST, SLOW


def default_arrival_probs(num_workers: int) -> np.ndarray:
    """p_i = i/Σ_{j=1..M} j; sums to 1 and strictly increases in i."""
    if num_workers < 1:
        raise InvalidConfigError("need at least one worker", field="run.workers")
    indices = np.arange(1, num_workers + 1, dtype=np.float64)
    return indices / (num_workers * (num_workers + 1) / 2.0)


def delay_threshold(q1: float, p: float) -> float:
    """Solve (1−p)^τ = q₁ for τ.

    :param q1: target slow fraction, in (0, 1)
    :param p: per-step success probability, in (0, 1)
    """
    if not 0.0 < q1 < 1.0:
        raise InvalidConfigError("slow weight must lie strictly in (0,1)", field="delay.slow_weight")
    if not 0.0 < p < 1.0:
        raise InvalidConfigError(f"arrival probability {p} admits no threshold")
    return math.log(q1) / math.log1p(-p)


def draw_waiting_time(p: float, rng: np.random.Generator) -> int:
    """Geometric draw on support {1, 2, ...} with ℙ{T > τ} = (1−p)^τ.

    p = 1 is permitted (a single-worker pool always returns next step).
    """
    if not 0.0 < p <= 1.0:
        raise InvalidConfigError(f"arrival probability {p} out of range")
    return int(rng.geometric(p))


def assign_component(ticket_wait: int, threshold: float) -> str:
    """Slow iff the wait strictly exceeds the (real-valued) threshold."""
    return SLOW if ticket_wait > threshold else FAST


@dataclass(frozen=True)
class DelayModel:
    """Immutable description of the worker pool; shareable across runs."""

    arrival_probs: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.arrival_probs, dtype=np.float64)
        probs.flags.writeable = False
        object.__setattr__(self, "arrival_probs", probs)
        thresholds = np.asarray(self.thresholds, dtype=np.float64)
        thresholds.flags.writeable = False
        object.__setattr__(self, "thresholds", thresholds)
        if probs.ndim != 1 or thresholds.shape != probs.shape:
            raise InvalidConfigError("per-worker vectors must have one entry per worker")
        # (p, threshold) per worker as Python floats, read once per ticket
        object.__setattr__(self, "_per_worker", tuple(zip(probs.tolist(), thresholds.tolist())))

    @classmethod
    def build(cls, num_workers: int, slow_weight: float) -> "DelayModel":
        """The model with index-proportional arrival rates (see the module docstring).

        A worker with p = 1 (only possible when M = 1) always returns in one
        step, so no finite threshold realizes the slow fraction; its
        threshold is +inf and every ticket is fast.
        """
        if not 0.0 < slow_weight < 1.0:
            raise InvalidConfigError(
                "slow weight must lie strictly in (0,1)", field="delay.slow_weight"
            )
        probs = default_arrival_probs(num_workers)
        thresholds = np.array(
            [delay_threshold(slow_weight, p) if p < 1.0 else math.inf for p in probs]
        )
        return cls(arrival_probs=probs, thresholds=thresholds)

    def draw_ticket(self, worker_id: int, rng: np.random.Generator) -> tuple[int, str]:
        """Draw one ticket, ``(wait, component)``; the single draw fixes both."""
        p, threshold = self._per_worker[worker_id]
        wait = draw_waiting_time(p, rng)
        return wait, assign_component(wait, threshold)
