"""Independent reference implementations: the oracles the package is checked against.

``stalegrad validate`` (:mod:`stalegrad.checks`) and the test suite both
compare against them.  Everything here is written from the update rules
directly, on purpose without importing anything else from ``stalegrad``.
The synchronous optimizers reproduce the simulator's draw order (one
arrival draw, then one noise draw per dispatch) so that single-worker runs
can be compared draw for draw.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def project_ball(center: np.ndarray, radius: float, x: np.ndarray) -> np.ndarray:
    """Radial projection onto a euclidean ball, tightened until it sticks."""
    out = np.asarray(x, dtype=float)
    offset = out - center
    dist = float(np.linalg.norm(offset))
    if dist <= radius:
        return out
    scale = radius / dist
    candidate = center + scale * offset
    dist = float(np.linalg.norm(candidate - center))
    while dist > radius:
        scale = min(scale * (radius / dist), math.nextafter(scale, 0.0))
        candidate = center + scale * offset
        dist = float(np.linalg.norm(candidate - center))
    return candidate


def classical_momentum(matrix, offset, x_init, eta, beta, sigma, steps, seed):
    """Plain heavy-ball EMA on a noisy quadratic: m ← βg + (1−β)m, x ← x − ηm.

    Returns (iterates with x_1 first, momentum buffers m_1..m_T).
    """
    matrix = np.asarray(matrix, dtype=float)
    offset = np.asarray(offset, dtype=float)
    rng = np.random.default_rng(seed)
    dim = offset.shape[0]

    def noisy_grad(x):
        g = matrix @ x - offset
        if sigma == 0.0:
            return g + np.zeros(dim)
        return g + (sigma / math.sqrt(dim)) * rng.standard_normal(dim)

    x = np.array(x_init, dtype=float)
    m = np.zeros(dim)
    xs = [x.copy()]
    ms = []
    rng.geometric(1.0)  # the arrival draw made for every dispatch
    g = noisy_grad(x)
    for _ in range(steps):
        m = beta * g + (1.0 - beta) * m
        x = x - eta * m
        ms.append(m.copy())
        xs.append(x.copy())
        rng.geometric(1.0)
        g = noisy_grad(x)
    return np.array(xs), np.array(ms)


def anytime_storm(matrix, offset, center, radius, x_init, eta, sigma, steps, seed):
    """Synchronous projected recursive-momentum method with running averaging.

    q_t = q_{t−1} + t·∇f(x_t;ω_t) − (t−1)·∇f(x_{t−1};ω_t)
    w_{t+1} = Π(w_t − η q_t),  x_{t+1} = x_t + (t+1)/((t+1)(t+2)/2)·(w_{t+1} − x_t)

    Returns the query iterates with x_1 first.  The two gradients of each
    step share one noise vector, exactly like a paired oracle call.
    """
    matrix = np.asarray(matrix, dtype=float)
    offset = np.asarray(offset, dtype=float)
    center = np.asarray(center, dtype=float)
    rng = np.random.default_rng(seed)
    dim = offset.shape[0]

    def grad_pair(x, x_prev):
        if sigma == 0.0:
            noise = np.zeros(dim)
        else:
            noise = (sigma / math.sqrt(dim)) * rng.standard_normal(dim)
        return (matrix @ x - offset) + noise, (matrix @ x_prev - offset) + noise

    x = np.array(x_init, dtype=float)
    w = x.copy()
    q = np.zeros(dim)
    xs = [x.copy()]
    rng.geometric(1.0)
    g, g_prev = grad_pair(x, x)
    for t in range(1, steps + 1):
        increment = float(t) * g
        if t >= 2:
            increment = increment - float(t - 1) * g_prev
        q = q + increment
        w = project_ball(center, radius, w - eta * q)
        alpha_next = float(t + 1)
        alpha_cumulative = (t + 1) * (t + 2) / 2.0
        x_old = x
        x = x + (alpha_next / alpha_cumulative) * (w - x)
        xs.append(x.copy())
        rng.geometric(1.0)
        g, g_prev = grad_pair(x, x_old)
    return np.array(xs)


def unrolled_direct_sum(dispatch_indices, gradients, beta):
    """m_t = Σ_k β(1−β)^{t−k} g_k over first-arrived dispatch indices.

    ``dispatch_indices`` and ``gradients`` are the per-step arrival log; a
    repeat of an already-seen index contributes nothing (its gradient is a
    duplicate of the initial broadcast).
    """
    first_seen: dict[int, np.ndarray] = {}
    out = []
    for i, k in enumerate(dispatch_indices):
        k = int(k)
        if k not in first_seen:
            first_seen[k] = np.asarray(gradients[i], dtype=float)
        t = i + 1
        m = np.zeros_like(gradients[0], dtype=float)
        for idx, g in first_seen.items():
            m = m + beta * (1.0 - beta) ** (t - idx) * g
        out.append(m)
    return np.array(out)


def f1_reference(tp, fp, fn):
    """Exact-rational F1: per-class 2TP/(2TP+FP+FN), empty classes scored 0."""
    per_class = []
    for tpi, fpi, fni in zip(tp, fp, fn):
        denom = 2 * int(tpi) + int(fpi) + int(fni)
        if denom == 0:
            per_class.append(0.0)
        else:
            per_class.append(float(Fraction(2 * int(tpi), denom)))
    exact_sum = sum(Fraction(v) for v in per_class)
    macro = float(exact_sum) / len(per_class)
    return per_class, macro


def confusion_to_counts(matrix):
    """Split a confusion matrix (rows true, columns predicted) into TP/FP/FN."""
    matrix = np.asarray(matrix)
    tp = np.diag(matrix)
    fp = matrix.sum(axis=0) - tp
    fn = matrix.sum(axis=1) - tp
    return tp, fp, fn
