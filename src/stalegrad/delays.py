"""Worker delay model: imbalanced arrival rates with data-dependent components.

Worker i (1-based) succeeds each wall-clock step with probability
p_i = i / Σ_j j, so its waiting time is geometric on {1, 2, ...}.  A ticket
whose wait exceeds the worker's threshold τ_i = log(q₁)/log(1−p_i) carries
the slow component, so slow samples ride the long waits.  Waits are
integers, so ℙ{T_i > τ_i} = (1−p_i)^⌊τ_i⌋ ≥ q₁, not q₁: at M = 7 and
q₁ = 0.1 that is 0.1001–0.1155 per worker, and the pool's slow share of
arrivals is 0.1084 (0.1196 at M = 4).  ROADMAP item 19 would draw it at q₁.

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


@dataclass(frozen=True)
class DelayModel:
    """The worker pool, from :meth:`build`: one arrival probability and one threshold per worker."""

    arrival_probs: tuple[float, ...]
    thresholds: tuple[float, ...]

    @classmethod
    def build(cls, num_workers: int, slow_weight: float) -> "DelayModel":
        """The model with index-proportional arrival rates (see the module docstring).

        A worker with p = 1 (only possible when M = 1) always returns in one
        step, so no finite threshold realizes the slow fraction; its
        threshold is +inf and every ticket is fast.
        """
        probs = default_arrival_probs(num_workers).tolist()
        thresholds = [delay_threshold(slow_weight, p) if p < 1.0 else math.inf for p in probs]
        return cls(arrival_probs=tuple(probs), thresholds=tuple(thresholds))

    def draw_ticket(self, worker_id: int, rng: np.random.Generator) -> tuple[int, str]:
        """Draw one ticket, ``(wait, component)``: one geometric wait on {1, 2, ...},
        slow iff it strictly exceeds the worker's real-valued threshold."""
        wait = int(rng.geometric(self.arrival_probs[worker_id]))
        return wait, SLOW if wait > self.thresholds[worker_id] else FAST
