"""The invariant suite behind ``stalegrad validate``.

Each check recomputes one property of the package from scratch (closed
forms, exact probabilities, synchronous limits checked against the
independent oracles in :mod:`stalegrad.reference`, replay determinism)
and raises :class:`Failure` with a message when it does not hold.
``CHECKS`` lists them, in the order ``validate`` prints them.

Checks call package functions through their modules
(``optimizers.ordered_weight``, ``delays.delay_threshold``), so a function
replaced on its module is the one checked.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import analysis, delays, objectives, optimizers, reference
from .errors import ContractViolationError, InvalidConfigError
from .objectives import FAST, SLOW, BallDomain
from .simulation import SimConfig, config_hash, replay_check, replay_compare
from .simulation import run as run_simulation


class Failure(Exception):
    """A check found its invariant broken; the message says where."""


def _ensure(condition: bool, detail: str) -> None:
    if not condition:
        raise Failure(detail)


def _close(a, b, detail="values differ") -> None:
    _ensure(math.isclose(a, b, rel_tol=1e-12), f"{detail}: {a!r} vs {b!r}")


_QUAD_SPEC = {
    "family": "quadratic",
    "curvature": [1.0, 2.0, 0.5],
    "minimizer": [1.0, -1.0, 0.5],
    "noise_sigma": 0.5,
}
_MIXTURE_SPEC = {
    "family": "mixture",
    "components": [
        {"minimizer": [1.0, 0.0], "curvature": 1.0},
        {"minimizer": [-1.0, 0.0], "curvature": 1.0},
    ],
    "noise_sigma": 0.3,
}
_NONCONVEX_SPEC = {
    "family": "nonconvex",
    "curvature": 0.5,
    "minimizer": [2.0**0.25, 2.0**0.25],
    "squash_scale": 0.25,
    "noise_sigma": 1.0,
}
_LOGISTIC_SPEC = {"family": "logistic", "classes": 3, "feature_dim": 3, "samples": 40}

_FAMILY_SPECS = (_QUAD_SPEC, _MIXTURE_SPEC, _NONCONVEX_SPEC, _LOGISTIC_SPEC)


def _validate_objectives() -> list:
    return [objectives.from_spec(spec, 0.1) for spec in _FAMILY_SPECS]


def _check_gradient_finite_difference() -> None:
    rng = np.random.default_rng(3)
    eps = 1e-6
    for objective in _validate_objectives():
        for _ in range(20):
            x = rng.standard_normal(objective.dim)
            grad = objective.grad(x)
            steps = eps * np.eye(objective.dim)
            fd = np.array([objective.loss(x + e) - objective.loss(x - e) for e in steps]) / (2 * eps)
            gap = np.abs(fd - grad)
            _ensure(
                bool(np.all(gap <= 1e-6 * np.maximum(1.0, np.abs(grad))))
                and np.linalg.norm(gap) <= 1e-6 * max(1.0, float(np.linalg.norm(grad))),
                f"{type(objective).__name__}: fd={fd!r} grad={grad!r}",
            )


def _check_smoothness_bound() -> None:
    rng = np.random.default_rng(4)
    for objective in _validate_objectives():
        lipschitz = objective.theory_constants().lipschitz
        for _ in range(200):
            x = 3.0 * rng.standard_normal(objective.dim)
            y = 3.0 * rng.standard_normal(objective.dim)
            lhs = np.linalg.norm(objective.grad(x) - objective.grad(y))
            rhs = lipschitz * np.linalg.norm(x - y)
            _ensure(
                lhs <= rhs * (1 + 1e-9),
                f"{type(objective).__name__}: ||grad gap||={lhs!r} > L||x-y||={rhs!r}",
            )


def _check_gradient_norm_lemma() -> None:
    rng = np.random.default_rng(5)
    for objective in _validate_objectives():
        constants = objective.theory_constants()
        if constants.f_star is None:
            continue
        for _ in range(200):
            x = 3.0 * rng.standard_normal(objective.dim)
            lhs = float(np.dot(objective.grad(x), objective.grad(x)))
            rhs = 2.0 * constants.lipschitz * (objective.loss(x) - constants.f_star)
            _ensure(
                lhs <= rhs * (1 + 1e-9) + 1e-12,
                f"{type(objective).__name__}: ||grad||^2={lhs!r} > 2L(f-f*)={rhs!r}",
            )


def _check_mixture_minimizer() -> None:
    mixture = objectives.from_spec(_MIXTURE_SPEC, 0.1)
    constants = mixture.theory_constants()
    _ensure(
        float(np.linalg.norm(mixture.grad(constants.minimizer))) <= 1e-12,
        "gradient at the closed-form minimizer is not ~0",
    )
    expected = 0.1 * np.array([1.0, 0.0]) + 0.9 * np.array([-1.0, 0.0])
    _ensure(
        float(np.linalg.norm(constants.minimizer - expected)) <= 1e-12,
        "equal-curvature mixture minimizer is not the weighted mean",
    )


def _check_projection_properties() -> None:
    rng = np.random.default_rng(6)
    domain = BallDomain(center=np.array([1.0, -1.0, 0.0]), radius=2.0)
    for _ in range(300):
        x = 6.0 * rng.standard_normal(3)
        y = 6.0 * rng.standard_normal(3)
        px, py = domain.project(x), domain.project(y)
        _ensure(domain.contains(px), "projection landed outside the ball")
        _ensure(np.array_equal(domain.project(px), px), "projection is not idempotent")
        _ensure(
            np.linalg.norm(px - py) <= np.linalg.norm(x - y) * (1 + 1e-12) + 1e-12,
            "projection is not nonexpansive",
        )
    inside = np.array([1.1, -0.9, 0.2])
    _ensure(np.array_equal(domain.project(inside), inside), "interior point moved")


def _check_noise_second_moment() -> None:
    rng = np.random.default_rng(7)
    objective = objectives.from_spec(
        {"family": "quadratic", "dim": 5, "curvature": 1.0, "noise_sigma": 2.0}, 0.1
    )
    x = np.ones(5)
    clean = objective.grad(x)
    noises = [objective.stochastic_grad(x, 0, rng) - clean for _ in range(2000)]
    draws = np.array([float(np.dot(n, n)) for n in noises])
    _ensure(
        abs(draws.mean() - 4.0) <= 0.25,
        f"mean squared noise norm {draws.mean()!r} is far from sigma^2=4",
    )


def _check_noise_pairing() -> None:
    rng = np.random.default_rng(8)
    objective = objectives.from_spec(_QUAD_SPEC, 0.1)
    x, y = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 2.0])
    g_same, g_same_prev = objective.stochastic_grad_pair(x, x, 0, rng)
    _ensure(np.array_equal(g_same, g_same_prev), "pair at one point must coincide exactly")
    g, g_prev = objective.stochastic_grad_pair(x, y, 0, rng)
    noise_now = g - objective.grad(x)
    noise_prev = g_prev - objective.grad(y)
    _ensure(
        bool(np.all(np.abs(noise_now - noise_prev) <= 1e-12)),
        "paired gradients carry different noise",
    )


def _check_arrival_probabilities() -> None:
    for workers in range(1, 9):  # p_i = i/(M(M+1)/2), each correctly rounded
        probs = delays.default_arrival_probs(workers)
        total = workers * (workers + 1) // 2
        _ensure(probs.tolist() == [i / total for i in range(1, workers + 1)], f"M={workers}: p_i != i/{total}")
        _ensure(abs(math.fsum(probs) - 1.0) <= 1e-12, f"M={workers}: arrival probabilities must sum to 1")


def _check_threshold_formula() -> None:
    probs = delays.default_arrival_probs(7)
    for p in probs:
        tau = delays.delay_threshold(0.1, float(p))
        _ensure(
            math.isclose((1.0 - float(p)) ** tau, 0.1, rel_tol=1e-9),
            f"(1-p)^tau != q1 at p={p!r}",
        )
        _ensure(
            delays.delay_threshold(0.5, float(p)) < tau,
            "threshold must shrink as the slow weight grows",
        )
    _close(delays.delay_threshold(0.1, 0.9), 1.0, detail="closed-form threshold at p=0.9")
    tau = delays.delay_threshold(0.1, 0.25)
    _ensure(tau == 8.003922779651093, f"closed-form threshold at p=1/4: {tau!r}")


def _check_waiting_time_support() -> None:
    rng = np.random.default_rng(9)
    for workers, worker in ((4, 2), (7, 6)):  # p = 0.3 and 0.25
        model = delays.DelayModel.build(workers, 0.1)
        waits = [model.draw_ticket(worker, rng)[0] for _ in range(2000)]
        _ensure(all(isinstance(w, int) and w >= 1 for w in waits), "waits must be integers >= 1")
        _ensure(min(waits) == 1, "support must include 1")
    single = delays.DelayModel.build(1, 0.1)  # p = 1
    _ensure(math.isinf(single.thresholds[0]), "the one worker's threshold must be infinite")
    _ensure(
        all(single.draw_ticket(0, rng) == (1, FAST) for _ in range(50)),
        "p=1 must always wait exactly one step, and be fast",
    )


def _check_distribution_preservation() -> None:
    # Exact oracle: with integer waits compared strictly against the real
    # threshold, P{slow} = (1-p)^floor(tau) with tau recomputed here from
    # scratch -- not read off the model -- so a wrong threshold shifts the
    # realized fractions away from these targets.
    model = delays.DelayModel.build(7, 0.1)
    rng = np.random.default_rng(10)
    draws = 3000
    slow_total = 0
    expected_total = 0.0
    for worker in range(7):
        waits = np.array([model.draw_ticket(worker, rng)[0] for _ in range(draws)])
        p = float(model.arrival_probs[worker])
        _ensure(
            abs(waits.mean() - 1.0 / p) <= 0.08 / p,
            f"worker {worker}: mean wait {waits.mean()!r} far from 1/p={1 / p!r}",
        )
        expected = (1.0 - p) ** math.floor(math.log(0.1) / math.log1p(-p))
        threshold = float(model.thresholds[worker])
        slow = int(np.count_nonzero(waits > threshold))
        slow_total += slow
        expected_total += expected
        tolerance = 4.0 * math.sqrt(expected * (1.0 - expected) / draws)
        _ensure(
            abs(slow / draws - expected) <= tolerance,
            f"worker {worker}: slow fraction {slow / draws!r} vs exact {expected!r}",
        )
    fraction = slow_total / (7 * draws)
    pooled = expected_total / 7
    _ensure(
        abs(fraction - pooled) <= 4.0 * math.sqrt(pooled * (1.0 - pooled) / (7 * draws)),
        f"pooled slow fraction {fraction!r} far from exact {pooled!r}",
    )


def _check_waiting_time_gof() -> None:
    model = delays.DelayModel.build(7, 0.1)
    rng = np.random.default_rng(11)
    for worker in range(7):
        waits = [model.draw_ticket(worker, rng)[0] for _ in range(3000)]
        result = analysis.waiting_time_gof(waits, float(model.arrival_probs[worker]))
        _ensure(
            result.pvalue >= 0.005,
            f"worker {worker}: chi-square p={result.pvalue!r} below 0.005",
        )


def _check_staleness_separation() -> None:
    config = SimConfig(
        objective=_QUAD_SPEC,
        optimizer={"method": "vanilla", "eta": 0.01},
        total_iterations=500,
        num_workers=7,
        seed=12,
    )
    trace = run_simulation(config)
    slow_mean, fast_mean = analysis.delay_separation(trace)
    _ensure(
        slow_mean >= 2.5 * fast_mean,
        f"slow delays ({slow_mean!r}) not well above fast delays ({fast_mean!r})",
    )
    fraction = sum(1 for c in trace.component if c == SLOW) / len(trace)
    _ensure(0.05 <= fraction <= 0.15, f"slow event fraction {fraction!r} far from 0.1")


def _check_ordered_weight_properties() -> None:
    _ensure(all(optimizers.ordered_weight(b, 0) == b for b in (0.1, 0.5)), "tau=0 must return beta")
    _ensure(optimizers.ordered_weight(0.5, 1) == 0.25, "beta=0.5, tau=1 must be exact")
    _close(optimizers.ordered_weight(0.1, 2), 0.081, detail="beta=0.1, tau=2")
    _close(
        optimizers.ordered_weight(0.1, 50),
        5.1537752073201133e-04,
        detail="beta=0.1, tau=50",
    )
    weights = [optimizers.ordered_weight(0.3, tau) for tau in range(60)]
    _ensure(
        all(a > b > 0 for a, b in zip(weights, weights[1:])),
        "weights must decrease strictly in tau",
    )
    try:
        optimizers.ordered_weight(1.5, 0)
    except InvalidConfigError:
        pass
    else:
        raise Failure("beta outside (0,1) must be rejected")


def _check_zero_rule() -> None:
    row = optimizers.METHOD_TABLE["ordered_momentum"]
    params = optimizers.Params("ordered_momentum", eta=1.0, beta=0.5)
    step = optimizers.step_ordered_momentum
    state = step(params, row.initial(np.array([0.0])), np.array([1.0]), 1, 1, 0, None)
    _ensure(state.buffer[0] == 0.5 and state.query[0] == -0.5, "plain first step")
    after = step(params, state, np.array([100.0]), 2, 1, 1, None)
    _ensure(
        after.buffer[0] == 0.25 and after.query[0] == -0.75,
        "a re-arrival of dispatch index 1 must contribute a zero gradient",
    )
    third = step(params, after, np.array([2.0]), 3, 2, 1, None)
    _close(third.buffer[0], 0.5 * 0.5 * 2.0 + 0.5 * 0.25, detail="discounted late gradient")


_UNROLLED_CONFIG = SimConfig(
    objective=_MIXTURE_SPEC,
    optimizer={"method": "ordered_momentum", "eta": 0.003, "beta": 0.05},
    total_iterations=300,
    num_workers=4,
    seed=13,
    record_gradients=True,
)


def _check_unrolled_equivalence() -> None:
    trace = run_simulation(_UNROLLED_CONFIG)
    oracle = reference.unrolled_direct_sum(trace.dispatch_iteration, trace.gradients, 0.05)
    gap = np.linalg.norm(trace.buffers - oracle, axis=1)
    scale = np.maximum(np.linalg.norm(oracle, axis=1), 1e-12)
    worst = float((gap / scale).max())
    _ensure(worst <= 1e-9, f"recursive buffer deviates from the direct sum by {worst!r}")


def _check_pending_bound() -> None:
    trace = run_simulation(_UNROLLED_CONFIG)
    _ensure(int(trace.pending_size.max()) <= 3, "pending set exceeded M-1")
    _ensure(int(trace.tau.max()) >= 1, "with 4 workers some gradient must arrive late")
    failures = analysis.verify_trace_invariants(trace, trace.objective)
    _ensure(not failures, "; ".join(failures))


def _check_sync_momentum_equivalence() -> None:
    eta, beta, total, seed = 0.02, 0.1, 200, 14
    config = SimConfig(
        objective=_QUAD_SPEC,
        optimizer={"method": "ordered_momentum", "eta": eta, "beta": beta},
        total_iterations=total,
        num_workers=1,
        seed=seed,
        record_gradients=True,
        x_init=(2.0, -1.0, 1.0),
    )
    trace = run_simulation(config)
    objective = trace.objective
    oracle, _ = reference.classical_momentum(
        objective.matrix, objective.offset, config.x_init, eta, beta,
        _QUAD_SPEC["noise_sigma"], total, seed,
    )
    ours = np.vstack([trace.pre_iterates, trace.final_iterate])
    for t in range(1, total + 1):
        x = oracle[t]
        _ensure(
            bool(np.all(np.abs(x - ours[t]) <= 1e-12 * np.maximum(1.0, np.abs(x)))),
            f"single-worker trajectory diverges from classical momentum at t={t}",
        )


_BALL_SPEC = {
    "family": "quadratic",
    "curvature": [1.0, 2.0],
    "minimizer": [0.5, -0.5],
    "noise_sigma": 0.5,
    "domain": {"center": [0.0, 0.0], "radius": 2.0},
}


def _check_sync_mu2_equivalence() -> None:
    eta, total, seed = 0.01, 200, 15
    config = SimConfig(
        objective=_BALL_SPEC,
        optimizer={"method": "ordered_mu2", "eta": eta},
        total_iterations=total,
        num_workers=1,
        seed=seed,
        x_init=(1.0, -0.5),
    )
    trace = run_simulation(config)
    objective = trace.objective
    ball = _BALL_SPEC["domain"]
    x = reference.anytime_storm(
        objective.matrix, objective.offset, ball["center"], ball["radius"], config.x_init,
        eta, _BALL_SPEC["noise_sigma"], total, seed,
    )[-1]
    _ensure(
        bool(np.all(np.abs(x - trace.final_iterate) <= 1e-12 * np.maximum(1.0, np.abs(x)))),
        "single-worker trajectory diverges from the synchronous averaged method",
    )


def _check_mu2_identity_contraction() -> None:
    config = SimConfig(
        objective=_BALL_SPEC,
        optimizer={"method": "ordered_mu2", "eta": 0.005},
        total_iterations=300,
        num_workers=4,
        seed=16,
        record_gradients=True,
        x_init=(1.0, -0.5),
    )
    trace = run_simulation(config)
    domain = objectives.domain_from_spec(_BALL_SPEC)
    failures = analysis.verify_trace_invariants(trace, trace.objective, domain=domain)
    _ensure(not failures, "; ".join(failures))


def _check_theorem_parameter_values() -> None:
    # sqrt and division are correctly rounded, so the closed forms hold to the last bit
    sigma_branch = optimizers.theorem1_params(1.0, 1.0, 1.0, 10**6, 2)
    window = optimizers.theorem2_step_window(1.0, 1.0, 0.0, 1.0, 10**4, 4)
    # noise-free with one worker, eta_min lands above eta_max: the window keeps the formulas' order
    degenerate = optimizers.theorem2_step_window(1.0, 0.0, 0.0, 1.0, 100, 1)
    cases = (
        (sigma_branch.beta, 2.23606797749979e-3, "theorem-1 beta, sigma branch"),
        (sigma_branch.eta, 7.905694150420948e-4, "theorem-1 eta, sigma branch"),
        (optimizers.theorem1_params(1.0, 1.0, 1.0, 5, 2).beta, 1.0 / 16.0, "theorem-1 beta, M branch"),
        (optimizers.theorem1_params(1.0, 1.0, 1.0, 10**6, 1).beta, 2.23606797749979e-3, "theorem-1 beta, M=1"),
        (window.eta_min, 9.615384615384615e-7, "theorem-2 eta_min"),
        (window.eta_max, 2.5e-5, "theorem-2 eta_max"),
        (degenerate.eta_min, 1.0 / 100.0, "theorem-2 eta_min, noise-free: LM term only"),
        (degenerate.eta_max, 1.0 / 400.0, "theorem-2 eta_max, noise-free"),
        (optimizers.theorem2_step_window(1.0, 1.0, 1.0, 1.0, 100, 1).eta_max, 1.0 / 400.0, "theorem-2 eta_max"),
    )
    for got, want, detail in cases:
        _ensure(got == want, f"{detail}: {got!r} vs {want!r}")


def _check_replay_determinism() -> None:
    trace = run_simulation(_UNROLLED_CONFIG)
    _ensure(replay_check(trace, _UNROLLED_CONFIG), "same-seed replay must match")
    other_seed = replace(_UNROLLED_CONFIG, seed=_UNROLLED_CONFIG.seed + 1)
    _ensure(not replay_check(trace, other_seed), "different seed must not match")
    first = replay_compare(trace, other_seed)
    _ensure(first is not None and first <= 3, f"another seed must differ by step 3, not {first!r}")
    perturbed = replace(
        _UNROLLED_CONFIG,
        optimizer={"method": "ordered_momentum", "eta": 0.004, "beta": 0.05},
    )
    try:
        replay_check(trace, perturbed)
    except ContractViolationError:
        pass
    else:
        raise Failure("replaying against a different experiment must be rejected")


def _check_config_hash_properties() -> None:
    base = _UNROLLED_CONFIG
    digest = config_hash(base)
    _ensure(len(digest) == 64 and set(digest) <= set("0123456789abcdef"), "hash must be 64 hex chars")
    _ensure(digest == config_hash(replace(base, seed=999)), "hash must not depend on the seed")
    other = replace(base, optimizer={"method": "ordered_momentum", "eta": 0.004, "beta": 0.05})
    _ensure(digest != config_hash(other), "hash must track the experiment")
    _ensure(digest != config_hash(replace(base, total_iterations=301)), "hash must track T")
    _ensure(config_hash(run_simulation(base).config) == digest, "a run must carry its config's hash")


def _f1_tables():
    """30 random count tables, then a perfect one, a one-class one and one with a 0/0 class."""
    rng = np.random.default_rng(17)
    for _ in range(30):
        classes = int(rng.integers(2, 6))
        yield rng.integers(0, 20, classes), rng.integers(0, 20, classes), rng.integers(0, 20, classes)
    yield from (([5, 7], [0, 0], [0, 0]), ([3], [1], [2]), ([0, 4], [0, 1], [0, 0]))


def _check_f1_scores() -> None:
    for tp, fp, fn in _f1_tables():
        scores = analysis.f1_scores(tp, fp, fn)
        per_class, macro = reference.f1_reference(tp, fp, fn)
        _ensure(
            scores.per_class.tolist() == per_class,
            "per-class score differs from the rational oracle",
        )
        _ensure(scores.macro == macro, "macro score differs from the rational oracle")
        _ensure(
            bool(np.all((scores.per_class >= 0) & (scores.per_class <= 1))),
            "scores must lie in [0,1]",
        )
    empty = analysis.f1_scores([0, 5], [0, 0], [0, 0])
    _ensure(empty.per_class[0] == 0.0, "0/0 class must score 0")
    _ensure(empty.per_class[1] == 1.0, "perfect class must score 1")


CHECKS = (
    ("gradient_finite_difference", _check_gradient_finite_difference),
    ("smoothness_bound", _check_smoothness_bound),
    ("gradient_norm_lemma", _check_gradient_norm_lemma),
    ("mixture_minimizer", _check_mixture_minimizer),
    ("projection_properties", _check_projection_properties),
    ("noise_second_moment", _check_noise_second_moment),
    ("noise_pairing", _check_noise_pairing),
    ("arrival_probabilities", _check_arrival_probabilities),
    ("threshold_formula", _check_threshold_formula),
    ("waiting_time_support", _check_waiting_time_support),
    ("distribution_preservation", _check_distribution_preservation),
    ("waiting_time_gof", _check_waiting_time_gof),
    ("staleness_separation", _check_staleness_separation),
    ("ordered_weight_properties", _check_ordered_weight_properties),
    ("zero_rule", _check_zero_rule),
    ("unrolled_equivalence", _check_unrolled_equivalence),
    ("pending_bound", _check_pending_bound),
    ("sync_momentum_equivalence", _check_sync_momentum_equivalence),
    ("sync_mu2_equivalence", _check_sync_mu2_equivalence),
    ("mu2_identity_contraction", _check_mu2_identity_contraction),
    ("theorem_parameter_values", _check_theorem_parameter_values),
    ("replay_determinism", _check_replay_determinism),
    ("config_hash_properties", _check_config_hash_properties),
    ("f1_scores", _check_f1_scores),
)
