"""Trace oracles and metrics, independent of the simulator's bookkeeping.

Everything here recomputes its quantities from the raw trace — pending
sets are rebuilt from dispatch indices, the delay bias is summed over them,
the averaged method's identity is re-derived from the recorded iterate
sequences — so these functions can serve as oracles against the
incremental implementations they mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .objectives import COMPONENT_INDEX, FAST, SLOW, euclidean_norm
from .simulation import RunTrace

Array = np.ndarray


def pending_sets(trace: RunTrace) -> list[frozenset[int]]:
    """Rebuild the in-flight index set at each update, from dispatch indices alone.

    Index j is dispatched right after update j−1 (index 1 before the run),
    and leaves on its first arrival; repeated arrivals of index 1 are
    duplicates of the initial dispatch and remove nothing.
    """
    pend: set[int] = set()
    out: list[frozenset[int]] = []
    for t, k in zip(trace.t, trace.dispatch_iteration):
        pend.add(int(t))
        pend.discard(int(k))
        out.append(frozenset(pend))
    return out


@dataclass(frozen=True)
class ErrorDecomposition:
    """ε_t = (m_t − ∇f(x_t)) split into a zero-mean part and the delay bias.

    ``bias`` is −Σ_{k pending} β(1−β)^{t−k}·∇f(x_t): the weight mass the
    buffer is missing because those dispatches have not arrived, applied to
    the current full gradient.  ``epsilon = epsilon_hat + bias`` exactly.
    """

    epsilon: Array
    epsilon_hat: Array
    bias: Array


def error_decomposition_series(trace: RunTrace, objective) -> list[ErrorDecomposition]:
    """Per-step decomposition for an ordered-momentum trace, with its recorded β."""
    if trace.buffers is None or trace.pre_iterates is None:
        raise ContractViolationError("the run did not record buffers and iterates")
    beta = trace.resolved_params.get("beta")
    if beta is None:
        raise ContractViolationError("no momentum parameter recorded for this trace")
    out = []
    for i, pend in enumerate(pending_sets(trace)):
        t = int(trace.t[i])
        grad = objective.grad(trace.pre_iterates[i])
        missing_weight = 0.0
        for k in pend:
            missing_weight += beta * (1.0 - beta) ** (t - k)
        bias = -missing_weight * grad
        epsilon = trace.buffers[i] - grad
        out.append(ErrorDecomposition(epsilon=epsilon, epsilon_hat=epsilon - bias, bias=bias))
    return out


@dataclass(frozen=True)
class MetricSeries:
    """Per-run convergence metrics; optional entries need closed-form constants."""

    avg_sq_grad_norm: Array
    final_loss: float
    final_excess: float | None
    final_distance: float | None

    @property
    def final_avg_sq_grad_norm(self) -> float:
        return float(self.avg_sq_grad_norm[-1])


def confusion_counts(objective, x: Array) -> dict[str, Array]:
    """C×C confusion matrices (rows: true class, columns: predicted) per group."""
    predicted = objective.predictions(x)
    c = objective.num_classes
    out: dict[str, Array] = {}
    for tag, group in (*COMPONENT_INDEX.items(), ("pooled", None)):
        rows = slice(None) if group is None else objective.group_of == group
        matrix = np.zeros((c, c), dtype=np.int64)
        np.add.at(matrix, (objective.labels[rows], predicted[rows]), 1)
        out[tag] = matrix
    return out


def convergence_metrics(trace: RunTrace, objective) -> MetricSeries:
    """Prefix-averaged squared gradient norms, final loss, excess and distance."""
    steps = np.arange(1, len(trace) + 1, dtype=np.float64)
    avg_sq = np.cumsum(np.square(trace.grad_norm)) / steps
    constants = objective.theory_constants()
    final_loss = float(objective.loss(trace.final_iterate))
    # the minimizer's loss rather than f_star: both terms then round the same way
    optimum = None if constants.f_star is None else float(objective.loss(constants.minimizer))
    final_excess = None if optimum is None else final_loss - optimum
    final_distance = (
        None if constants.minimizer is None else euclidean_norm(trace.final_iterate - constants.minimizer)
    )
    return MetricSeries(
        avg_sq_grad_norm=avg_sq,
        final_loss=final_loss,
        final_excess=final_excess,
        final_distance=final_distance,
    )


@dataclass(frozen=True)
class F1Scores:
    per_class: Array
    macro: float


def f1_scores(true_positive, false_positive, false_negative) -> F1Scores:
    """Per-class F1 = 2TP/(2TP+FP+FN) and its unweighted mean.

    A class with no predictions and no occurrences (0/0) scores 0.  The
    macro score is the correctly rounded sum of the per-class scores
    divided by the class count.
    """
    tp = np.asarray(true_positive, dtype=np.int64)
    fp = np.asarray(false_positive, dtype=np.int64)
    fn = np.asarray(false_negative, dtype=np.int64)
    if tp.shape != fp.shape or tp.shape != fn.shape or tp.ndim != 1:
        raise ContractViolationError("count vectors must share one shape")
    if (tp < 0).any() or (fp < 0).any() or (fn < 0).any():
        raise ContractViolationError("counts must be nonnegative")
    denom = 2 * tp + fp + fn
    per_class = np.where(denom > 0, 2 * tp / np.where(denom > 0, denom, 1), 0.0)
    return F1Scores(per_class=per_class, macro=math.fsum(per_class.tolist()) / tp.shape[0])


def f1_from_confusion(matrix: Array) -> F1Scores:
    """F1 from a square confusion matrix (rows: true, columns: predicted)."""
    matrix = np.asarray(matrix, dtype=np.int64)
    tp = np.diag(matrix)
    fp = matrix.sum(axis=0) - tp
    fn = matrix.sum(axis=1) - tp
    return f1_scores(tp, fp, fn)


@dataclass(frozen=True)
class GofResult:
    statistic: float
    dof: int
    pvalue: float


def waiting_time_gof(waits, p: float) -> GofResult:
    """Pearson chi-square of observed waits against Geometric(p) on {1,2,...}.

    Cells are 1, 2, ..., k plus a pooled tail, with k chosen so every
    expected count is at least 5.
    """
    waits = np.asarray(waits, dtype=np.int64)
    n = waits.shape[0]
    k = 0
    while True:
        cell = n * p * (1.0 - p) ** k  # expected count of wait == k+1
        tail = n * (1.0 - p) ** (k + 1)
        if cell < 5.0 or tail < 5.0:
            break
        k += 1
    if k < 1:
        raise ContractViolationError("too few samples for a goodness-of-fit cell split")
    expected = np.array([n * p * (1.0 - p) ** j for j in range(k)] + [n * (1.0 - p) ** k])
    observed = np.array(
        [np.count_nonzero(waits == j + 1) for j in range(k)] + [np.count_nonzero(waits > k)],
        dtype=np.float64,
    )
    statistic = float(np.sum(np.square(observed - expected) / expected))
    dof = k  # cells − 1; no parameters estimated from the data
    return GofResult(statistic=statistic, dof=dof, pvalue=_chi2_tail(statistic, dof))


def _chi2_tail(x: float, k: int) -> float:
    """P(χ²_k > x) for an integer k ≥ 1, in closed form.

    With h = x/2, the tail is Σ_{i<k/2} e^{−h}·h^i/i! for even k, and
    erfc(√h) + Σ_{i=1}^{(k−1)/2} e^{−h}·h^{i−½}/Γ(i+½) for odd k.  Each
    term is the previous one times h over the next Γ argument.
    """
    half = x / 2.0
    if k % 2 == 0:
        total, term, arg = 0.0, math.exp(-half), 1.0
    else:  # the first term is e^{−h}·h^{1/2}/Γ(3/2), and Γ(3/2) = √π/2
        total, arg = math.erfc(math.sqrt(half)), 1.5
        term = 2.0 * math.sqrt(half / math.pi) * math.exp(-half)
    for i in range(k // 2):
        total += term
        term *= half / (arg + i)
    return total


def delay_separation(trace: RunTrace) -> tuple[float, float]:
    """(mean slow delay, mean fast delay) of the realized staleness values."""
    tags = np.array(trace.component)
    slow = trace.tau[tags == SLOW]
    fast = trace.tau[tags == FAST]
    if slow.size == 0 or fast.size == 0:
        raise ContractViolationError("trace lacks one of the component groups")
    return float(slow.mean()), float(fast.mean())


def verify_trace_invariants(trace: RunTrace, objective, domain=None) -> list[str]:
    """Re-derive the structural invariants from the trace; returns failures.

    Covers the pending-set bound, staleness consistency, the smoothness
    consequence ‖∇f‖² ≤ 2L(f−f*), and — for an ``ordered_mu2`` trace with
    its dense iterate recordings — the averaged method's weighted-average
    identity and its successive-query contraction.  The float checks allow
    a relative slack of 1e-9.
    """
    tol = 1e-9
    failures: list[str] = []
    T = len(trace)
    M = trace.config.num_workers
    if trace.t.shape[0] != trace.config.total_iterations:
        failures.append("record count differs from the configured iteration count")
    tau = trace.t - trace.dispatch_iteration
    if (tau < 0).any() or (tau != trace.tau).any():
        failures.append("recorded staleness disagrees with t - dispatch_iteration")
    rebuilt = pending_sets(trace)
    sizes = np.array([len(s) for s in rebuilt])
    if (sizes != trace.pending_size).any():
        failures.append("recorded pending sizes disagree with reconstruction")
    if sizes.max(initial=0) > M - 1:
        failures.append(f"pending set exceeded M-1 = {M - 1}")
    constants = objective.theory_constants()
    if constants.f_star is not None:
        bound = 2.0 * constants.lipschitz * (trace.loss - constants.f_star)
        slack = tol * np.maximum(1.0, np.abs(bound))
        if (np.square(trace.grad_norm) > bound + slack).any():
            failures.append("gradient-norm bound 2L(f - f*) violated")
    mu2 = trace.resolved_params["method"] == "ordered_mu2"
    if mu2 and trace.descent_iterates is not None and trace.pre_iterates is not None:
        # x_t for t = 1..T+1 against the weighted average of w_1..w_{T+1}
        xs = np.vstack([trace.pre_iterates, trace.final_iterate])
        ws = trace.descent_iterates
        weights = np.arange(1, ws.shape[0] + 1, dtype=np.float64)
        weighted_sum = np.cumsum(weights[:, None] * ws, axis=0)
        alpha_cumulative = np.cumsum(weights)
        lhs = alpha_cumulative[:, None] * xs
        scale = np.maximum(np.abs(weighted_sum), 1.0)
        if (np.abs(lhs - weighted_sum) > tol * scale).any():
            failures.append("weighted-average identity violated")
        if domain is not None:
            step_norms = np.linalg.norm(np.diff(xs, axis=0), axis=1)
            limits = (weights[1:] / alpha_cumulative[1:]) * domain.diameter
            if (step_norms > limits * (1.0 + tol) + tol).any():
                failures.append("successive-query contraction bound violated")
    return failures
