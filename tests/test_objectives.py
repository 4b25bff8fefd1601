"""Objective families: gradients, smoothness constants, noise, and the ball domain."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stalegrad.errors import ContractViolationError, InvalidConfigError
from stalegrad.objectives import (
    COMPONENT_INDEX,
    FAST,
    SLOW,
    BallDomain,
    Logistic,
    Mixture,
    NonconvexQuadratic,
    Quadratic,
    domain_from_spec,
    euclidean_norm,
    from_spec,
    make_logistic,
    squash,
    squash_deriv,
)

QUAD = Quadratic(matrix=np.diag([1.0, 4.0]), offset=np.array([1.0, -2.0]))

MIXTURE = Mixture(
    components=(
        Quadratic(matrix=np.eye(2), offset=np.array([1.0, 0.0])),
        Quadratic(matrix=np.eye(2), offset=np.array([-1.0, 0.0])),
    ),
    weights=(0.1, 0.9),
    noise_sigma=0.6,
)

ROOT2 = 2.0 ** 0.25
NONCONVEX = NonconvexQuadratic(
    base=Quadratic(matrix=0.5 * np.eye(2), offset=0.5 * np.array([ROOT2, ROOT2])),
    squash_scale=0.25,
    noise_sigma=1.0,
)

LOGISTIC = make_logistic(num_classes=3, feature_dim=4, num_samples=60, slow_weight=0.1)


# ---------------------------------------------------------------- gradients


def test_quadratic_gradient_at_origin():
    q = Quadratic(matrix=np.eye(2), offset=np.array([1.0, 1.0]))
    assert np.array_equal(q.grad(np.zeros(2)), np.array([-1.0, -1.0]))
    assert q.loss(np.zeros(2)) == 0.0


@pytest.mark.parametrize(
    "objective", [QUAD, MIXTURE, NONCONVEX, LOGISTIC], ids=["quadratic", "mixture", "nonconvex", "logistic"]
)
def test_points_are_read_as_float_vectors_of_the_objective_dim(objective):
    point = [0.5 * (i + 1) for i in range(objective.dim)]
    assert objective.loss(point) == objective.loss(np.array(point))
    with pytest.raises(ContractViolationError):
        objective.loss(point + [0.0])


def test_quadratic_minimizer_is_stationary():
    q = Quadratic(matrix=np.array([[2.0, 0.5], [0.5, 1.0]]), offset=np.array([1.0, -2.0]))
    assert np.linalg.norm(q.grad(q.minimizer)) <= 1e-9


def test_quadratic_f_star():
    q = Quadratic(matrix=np.eye(2), offset=np.array([1.0, 1.0]))
    # f* = -½ bᵀA⁻¹b = -1 here
    assert math.isclose(q.theory_constants().f_star, -1.0, abs_tol=1e-12)


def test_curvature_forms_agree():
    a = Quadratic(matrix=2.0, offset=np.array([1.0, 0.0]))
    b = Quadratic(matrix=[2.0, 2.0], offset=np.array([1.0, 0.0]))
    c = Quadratic(matrix=[[2.0, 0.0], [0.0, 2.0]], offset=np.array([1.0, 0.0]))
    assert np.array_equal(a.matrix, c.matrix)
    assert np.array_equal(b.matrix, c.matrix)


def test_curvature_must_be_symmetric_positive_definite():
    with pytest.raises(InvalidConfigError):
        Quadratic(matrix=np.array([[1.0, 1.0], [0.0, 1.0]]), offset=np.zeros(2))
    with pytest.raises(InvalidConfigError):
        Quadratic(matrix=np.array([[1.0, 0.0], [0.0, -1.0]]), offset=np.zeros(2))


def test_lipschitz_is_largest_eigenvalue():
    assert QUAD.theory_constants().lipschitz == 4.0
    rng = np.random.default_rng(14)
    for _ in range(100):
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        assert v @ QUAD.matrix @ v <= 4.0 + 1e-12


_FULL_CURVATURE = {"curvature": [[2.0, 0.5], [0.5, 1.0]], "minimizer": [1.0, -1.0]}


@pytest.mark.parametrize(
    "spec, builds, constants",
    [
        (dict(_FULL_CURVATURE, family="quadratic"), 1, 0),
        (dict(_FULL_CURVATURE, family="nonconvex", squash_scale=0.5), 1, 0),
        ({"family": "mixture", "components": [_FULL_CURVATURE, {"curvature": [1.0, 3.0], "dim": 2}]}, 3, 1),
    ],
    ids=["quadratic", "nonconvex", "mixture"],
)
def test_each_quadratic_decomposes_its_curvature_once(monkeypatch, spec, builds, constants):
    """Building a quadratic checks A and keeps λ_max(A); theory constants reuse it."""
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(a):
        calls.append(a)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    objective = from_spec(spec, 0.1)
    assert len(calls) == builds  # one per component and one for the mixture's mean
    calls.clear()
    lipschitz = objective.theory_constants().lipschitz
    assert len(calls) == constants  # the mixture's sigma_l
    monkeypatch.undo()
    quadratics = getattr(objective, "components", (getattr(objective, "base", objective),))
    top = max(float(np.linalg.eigvalsh(q.matrix)[-1]) for q in quadratics)
    assert lipschitz == top + 2.0 * getattr(objective, "squash_scale", 0.0)


# ---------------------------------------------------------------- mixture


def test_mixture_gradient_is_weighted_mean():
    got = MIXTURE.grad(np.zeros(2))
    want = -(0.1 * np.array([1.0, 0.0]) + 0.9 * np.array([-1.0, 0.0]))
    assert np.allclose(got, want, atol=1e-15)


def test_mixture_weights_must_be_a_distribution():
    comps = MIXTURE.components
    with pytest.raises(InvalidConfigError):
        Mixture(components=comps, weights=(0.5, 0.6), noise_sigma=0.0)
    with pytest.raises(InvalidConfigError):
        Mixture(components=comps, weights=(0.0, 1.0), noise_sigma=0.0)
    with pytest.raises(InvalidConfigError):
        Mixture(components=comps + comps[:1], weights=(0.1, 0.4, 0.5), noise_sigma=0.0)


@pytest.mark.parametrize(
    "objective", [QUAD, MIXTURE, NONCONVEX, LOGISTIC], ids=lambda o: type(o).__name__
)
def test_every_family_refuses_negative_noise(objective):
    with pytest.raises(InvalidConfigError) as err:
        dataclasses.replace(objective, noise_sigma=-0.5)
    assert err.value.field == "objective.noise_sigma"


def test_mixture_sigma_closed_form():
    # additive noise 0.6² plus the between-component gradient spread at the
    # (shared-curvature) minimizer: 0.36 + 0.1·1.8² + 0.9·0.2² = 0.72
    constants = MIXTURE.theory_constants()
    assert math.isclose(constants.sigma, math.sqrt(0.72), rel_tol=1e-12)
    assert constants.sigma_l == 0.0


def test_mixture_sigma_unknown_for_unequal_curvatures():
    mix = Mixture(
        components=(
            Quadratic(matrix=2.0 * np.eye(2), offset=np.zeros(2)),
            Quadratic(matrix=np.eye(2), offset=np.zeros(2)),
        ),
        weights=(0.1, 0.9),
        noise_sigma=0.0,
    )
    constants = mix.theory_constants()
    assert constants.sigma is None
    # λmax(√(0.1·(2−1.1)² + 0.9·(1−1.1)²)) = √0.09
    assert math.isclose(constants.sigma_l, 0.3, rel_tol=1e-12)


def _spd(rng, d: int) -> np.ndarray:
    """A random symmetric positive definite d×d matrix with nonzero off-diagonals."""
    b = rng.standard_normal((d, d))
    return 0.5 * (b @ b.T + (b @ b.T).T) + d * np.eye(d)


def _reference_quadratic_loss(q: Quadratic, x: np.ndarray) -> float:
    """The loss as the product (½x)ᵀA then the product with x, minus bᵀx."""
    return float((0.5 * x).dot(q.matrix).dot(x) - q.offset.dot(x))


def _close(actual, expected, scale) -> bool:
    """Equal within 1e-12 relative to ``scale``, the magnitude of the summed terms."""
    return bool(np.all(np.abs(np.asarray(actual) - expected) <= 1e-12 * scale))


@pytest.mark.parametrize("d", [2, 12, 40])
def test_quadratic_and_mixture_match_their_summed_forms(d):
    """``Quadratic.loss`` and the mixture's mean quadratic agree with the
    expressions they replace, Σ w_c f_c and Σ w_c ∇f_c, up to rounding."""
    rng = np.random.default_rng(30 + d)
    components = tuple(Quadratic(matrix=_spd(rng, d), offset=rng.standard_normal(d)) for _ in range(2))
    mixture = Mixture(components=components, weights=(0.3, 0.7))
    for x in rng.standard_normal((20, d)):
        terms = []
        for c in components:
            quad, lin = abs(0.5 * x.dot(c.matrix).dot(x)), abs(c.offset.dot(x))
            assert _close(c.loss(x), _reference_quadratic_loss(c, x), quad + lin)
            terms.append((quad + lin, np.abs(c.matrix).dot(np.abs(x)) + np.abs(c.offset)))
        loss = sum(w * _reference_quadratic_loss(c, x) for w, c in zip(mixture.weights, components))
        grad = sum(w * (c.matrix.dot(x) - c.offset) for w, c in zip(mixture.weights, components))
        assert _close(mixture.loss(x), loss, sum(w * t[0] for w, t in zip(mixture.weights, terms)))
        assert _close(mixture.grad(x), grad, sum(w * t[1] for w, t in zip(mixture.weights, terms)))


def _reference_mixture_constants(mixture: Mixture, x1: np.ndarray) -> dict:
    """Mixture minimizer and theory constants, summed component by component."""
    d = mixture.dim
    mean_a, mean_b = np.zeros((d, d)), np.zeros(d)
    for w, c in zip(mixture.weights, mixture.components):
        mean_a += w * c.matrix
        mean_b += w * c.offset
    m = np.linalg.solve(mean_a, mean_b)

    def loss(x):
        return float(
            sum(w * _reference_quadratic_loss(c, x) for w, c in zip(mixture.weights, mixture.components))
        )

    sigma = None
    first = mixture.components[0].matrix
    if all(np.allclose(c.matrix, first, rtol=0, atol=1e-12) for c in mixture.components):
        offset = sum(w * c.offset for w, c in zip(mixture.weights, mixture.components))
        spread = sum(
            w * float(np.linalg.norm(c.offset - offset) ** 2)
            for w, c in zip(mixture.weights, mixture.components)
        )
        sigma = math.sqrt(mixture.noise_sigma**2 + spread)
    second_moment = np.zeros((d, d))
    for w, c in zip(mixture.weights, mixture.components):
        diff = c.matrix - mean_a
        second_moment += w * (diff @ diff)
    return {
        "lipschitz": max(float(np.linalg.eigvalsh(c.matrix)[-1]) for c in mixture.components),
        "sigma": sigma,
        "sigma_l": math.sqrt(max(0.0, float(np.linalg.eigvalsh(second_moment)[-1]))),
        "delta_gap": loss(x1) - loss(m),
        "minimizer": m,
        "f_star": loss(m),
    }


@pytest.mark.parametrize("d", [2, 12, 40])
@pytest.mark.parametrize("curvature", ["equal-diagonal", "unequal-full"])
def test_mixture_minimizer_and_constants_keep_their_bits(d, curvature):
    """The mean quadratic's minimizer and every theory constant are bitwise the
    component-by-component sums.  f* and the gap go through each component's
    loss, which is bitwise the reference product for a diagonal curvature
    (every config's) and within rounding of it otherwise."""
    rng = np.random.default_rng(40 + d)
    if curvature == "equal-diagonal":
        shared = np.diag(rng.uniform(0.5, 3.0, d))
        matrices = (shared, shared)
    else:
        matrices = (_spd(rng, d), _spd(rng, d))
    components = tuple(Quadratic(matrix=a, offset=rng.standard_normal(d)) for a in matrices)
    mixture = Mixture(components=components, weights=(0.1, 0.9), noise_sigma=0.6)
    x1 = rng.standard_normal(d)
    constants = mixture.theory_constants(x_init=x1)
    expected = _reference_mixture_constants(mixture, x1)
    assert np.array_equal(mixture.minimizer, expected["minimizer"])
    assert np.array_equal(constants.minimizer, expected["minimizer"])
    for name in ("lipschitz", "sigma", "sigma_l"):
        assert getattr(constants, name) == expected[name], name
    for name in ("f_star", "delta_gap"):
        if curvature == "equal-diagonal":
            assert getattr(constants, name) == expected[name], name
        else:
            assert math.isclose(getattr(constants, name), expected[name], rel_tol=1e-12), name


def test_mixture_gradients_are_read_only():
    g = MIXTURE.grad(np.array([0.25, -0.5]))
    with pytest.raises(ValueError):
        g[0] = 0.0


def test_component_tags():
    """The slow tag selects a mixture's first component, the fast tag its second;
    a single-component family gives the same gradient for either."""
    x = np.array([0.3, -0.2])
    for tag, component in zip((SLOW, FAST), MIXTURE.components):
        assert np.array_equal(MIXTURE.component_grad(x, COMPONENT_INDEX[tag]), component.grad(x))
    slow, fast = (QUAD.component_grad(x, COMPONENT_INDEX[tag]) for tag in (SLOW, FAST))
    assert np.array_equal(slow, fast)


def test_component_frequency_and_unbiasedness():
    """A Bernoulli(q₁) tag stream hits the slow component ≈ q₁ of the time,
    and the two-level draw (component then noise) averages to the full grad."""
    rng = np.random.default_rng(5)
    n = 100_000
    tags = np.where(rng.random(n) < 0.1, SLOW, FAST)
    comps = np.array([COMPONENT_INDEX[t] for t in tags])
    freq = float(np.mean(comps == 0))
    assert 0.096 <= freq <= 0.104

    x = np.array([0.3, -0.2])
    g0 = MIXTURE.components[0].grad(x)
    g1 = MIXTURE.components[1].grad(x)
    mean_grad = freq * g0 + (1 - freq) * g1
    se = math.sqrt(0.1 * 0.9 / n)
    tol = 4 * se * np.linalg.norm(g0 - g1)
    assert np.linalg.norm(mean_grad - MIXTURE.grad(x)) <= tol


# ---------------------------------------------------------------- noise


def test_noise_unbiased():
    q = Quadratic(matrix=np.eye(1), offset=np.zeros(1), noise_sigma=1.0)
    rng = np.random.default_rng(3)
    x = np.array([0.7])
    true = q.grad(x)
    draws = np.array([q.stochastic_grad(x, 0, rng)[0] - true[0] for _ in range(100_000)])
    assert abs(draws.mean()) <= 4.0 / math.sqrt(draws.size)


def test_zero_noise_skips_the_generator():
    q = Quadratic(matrix=np.eye(2), offset=np.zeros(2), noise_sigma=0.0)
    rng = np.random.default_rng(21)
    before = rng.bit_generator.state
    q.stochastic_grad(np.ones(2), 0, rng)
    q.stochastic_grad_pair(np.ones(2), np.zeros(2), 0, rng)
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------- nonconvex


def test_squash_derivative_matches_finite_differences():
    u = np.linspace(-3.0, 3.0, 61)
    step = 1e-6
    approx = (squash(u + step) - squash(u - step)) / (2 * step)
    assert np.allclose(squash_deriv(u), approx, atol=1e-8)


def test_squash_second_derivative_range():
    # s''(u) = (2 − 6u²)/(1+u²)³ lies in [−1/2, 2], which is what puts the
    # 2·scale term into the smoothness constant.
    u = np.linspace(-4.0, 4.0, 401)
    step = 1e-5
    second = (squash_deriv(u + step) - squash_deriv(u - step)) / (2 * step)
    assert second.max() <= 2.0 + 1e-6
    assert second.min() >= -0.5 - 1e-6


def test_nonconvex_constants_are_exact():
    constants = NONCONVEX.theory_constants()
    assert abs(constants.lipschitz - 1.0) <= 1e-12
    assert abs(constants.delta_gap - 1.0) <= 1e-12
    assert constants.sigma == 1.0
    assert math.isclose(constants.f_star, NONCONVEX.base.loss(NONCONVEX.minimizer), rel_tol=1e-12)


# ---------------------------------------------------------------- logistic


def test_logistic_shapes_and_groups():
    assert LOGISTIC.dim == 3 * 4
    assert LOGISTIC.num_classes == 3
    n_slow = int(np.sum(LOGISTIC.group_of == 0))
    assert n_slow == 6  # round(60 · 0.1)
    assert np.all(LOGISTIC.labels[LOGISTIC.group_of == 0] == 2)
    assert LOGISTIC.group_weights == (0.1, 0.9)
    assert COMPONENT_INDEX[SLOW] == 0 and COMPONENT_INDEX[FAST] == 1  # group_of's tags


def test_logistic_loss_finite_and_constants():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(LOGISTIC.dim)
    assert math.isfinite(LOGISTIC.loss(x))
    constants = LOGISTIC.theory_constants()
    max_sq = float(np.max(np.sum(LOGISTIC.features**2, axis=1)))
    assert math.isclose(constants.lipschitz, (2.0 / 3.0) * max_sq, rel_tol=1e-12)
    assert constants.f_star is None and constants.minimizer is None
    assert constants.sigma == 0.0  # additive noise only; sampling spread not modeled


def test_logistic_curvature_below_lipschitz():
    """Finite-difference Hessian spot check: λmax(∇²f) ≤ L at a few points."""
    lips = LOGISTIC.theory_constants().lipschitz
    rng = np.random.default_rng(18)
    step = 1e-5
    for _ in range(3):
        x = 0.5 * rng.standard_normal(LOGISTIC.dim)
        hess = np.zeros((LOGISTIC.dim, LOGISTIC.dim))
        for i in range(LOGISTIC.dim):
            e = np.zeros(LOGISTIC.dim)
            e[i] = step
            hess[i] = (LOGISTIC.grad(x + e) - LOGISTIC.grad(x - e)) / (2 * step)
        top = float(np.max(np.linalg.eigvalsh(0.5 * (hess + hess.T))))
        assert top <= lips * (1 + 1e-6)


def test_logistic_memo_follows_the_point_bytes():
    """Evaluations interleaved across points, and at a point mutated in place,
    equal those of a fresh objective: ``grad`` reusing a memoized group
    gradient is bit-equal to one computed afresh.  Memoized arrays cannot be
    written."""
    rng = np.random.default_rng(20)
    x, y = rng.standard_normal((2, LOGISTIC.dim))
    for point, first in ((x, 1), (y, 0), (x, 1)):
        fresh = make_logistic(num_classes=3, feature_dim=4, num_samples=60, slow_weight=0.1)
        expected_group = fresh.component_grad(point, first)
        assert np.array_equal(LOGISTIC.component_grad(point, first), expected_group)
        fresh = make_logistic(num_classes=3, feature_dim=4, num_samples=60, slow_weight=0.1)
        assert LOGISTIC.loss(point) == fresh.loss(point)
        assert np.array_equal(LOGISTIC.grad(point), fresh.grad(point))
        assert np.array_equal(LOGISTIC.component_grad(point, 0), fresh.component_grad(point, 0))
    x[0] += 1.0
    fresh = make_logistic(num_classes=3, feature_dim=4, num_samples=60, slow_weight=0.1)
    assert np.array_equal(LOGISTIC.grad(x), fresh.grad(x))
    _, log_probs, probs, group_grads = LOGISTIC._memo_at(x)
    assert sorted(group_grads) == [0, 1]
    assert not any(a.flags.writeable for a in (log_probs, probs, *group_grads.values()))
    for g in LOGISTIC._groups:
        assert not any(a.flags.writeable for a in (g.picks, g.onehot, g.features, g.rows))


def _former_kernels(objective: Logistic, x):
    """loss, grad and both group gradients by the formulas the kernels replaced:
    a row max along axis 1, a fancy-indexed mean, 1.0 subtracted at fancy
    indices, and the weighted group gradients summed into zeros."""
    logits = objective.features @ x.reshape(objective.num_classes, objective.feature_dim).T
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    loss, group_grads = 0, []
    for c, w in enumerate(objective.group_weights):
        rows = np.flatnonzero(objective.group_of == c)
        labels = objective.labels[rows]
        loss += w * (-log_probs[rows, labels]).mean()
        residual = probs[rows]
        residual[np.arange(rows.shape[0]), labels] -= 1.0
        group_grads.append((residual.T @ objective.features[rows] / rows.shape[0]).ravel())
    grad = np.zeros(objective.dim)
    for w, g in zip(objective.group_weights, group_grads):
        grad += w * g
    return float(loss), grad, group_grads


@pytest.mark.parametrize("interleaved", [False, True], ids=["contiguous", "interleaved"])
@pytest.mark.parametrize("classes", [2, 3, 8, 9])
def test_logistic_kernels_keep_the_former_bits(classes, interleaved):
    """From 8 classes on numpy sums a row pairwise, so a reordered row sum shows here."""
    rng = np.random.default_rng(classes)
    n, d = 40, 3
    group_of = np.arange(n) % 2 if interleaved else (np.arange(n) >= 7).astype(np.int64)
    objective = Logistic(
        features=rng.standard_normal((n, d)),
        labels=rng.integers(0, classes, n),
        group_of=group_of,
        group_weights=(0.3, 0.7),
        num_classes=classes,
    )
    for scale in (0.1, 1.0, 30.0):
        for _ in range(10):
            x = scale * rng.standard_normal(objective.dim)
            loss, grad, group_grads = _former_kernels(objective, x)
            assert objective.loss(x) == loss
            assert np.array_equal(objective.grad(x), grad)
            for c in (0, 1):
                assert np.array_equal(objective.component_grad(x, c), group_grads[c])


def _assert_memo_is_safe_across_threads(objective):
    """Threads sharing one objective at different points never see another's gradient."""
    points = np.random.default_rng(21).standard_normal((6, objective.dim))
    expected = [objective.grad(p) for p in points]
    mismatches = []

    def worker(i):
        for _ in range(200):
            if not np.array_equal(objective.grad(points[i]), expected[i]):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(points))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_logistic_memo_is_safe_across_threads():
    _assert_memo_is_safe_across_threads(
        make_logistic(num_classes=3, feature_dim=4, num_samples=60, slow_weight=0.1)
    )


def _fresh(q: Quadratic) -> Quadratic:
    """The same quadratic with an empty gradient memo."""
    return Quadratic(matrix=q.matrix, offset=q.offset)


def test_quadratic_memo_follows_the_point_bytes():
    """The last point is memoized: three interleaved points and a point mutated
    in place still get a fresh objective's gradient, and no gradient is writable."""
    objective = Quadratic(matrix=np.array([[2.0, 0.5], [0.5, 1.0]]), offset=np.array([1.0, -3.0]))
    points = np.random.default_rng(22).standard_normal((3, 2))
    for i in (0, 1, 0, 2, 1, 0, 2, 2):
        g = objective.grad(points[i])
        assert np.array_equal(g, _fresh(objective).grad(points[i]))
        assert not g.flags.writeable
    x = points[0].copy()
    before = objective.grad(x)
    x[1] += 1.0
    after = objective.grad(x)
    assert np.array_equal(after, _fresh(objective).grad(x))
    assert not np.array_equal(after, before)
    with pytest.raises(ValueError):
        after[0] = 0.0


def test_quadratic_memo_is_safe_across_threads():
    _assert_memo_is_safe_across_threads(
        Quadratic(matrix=np.diag([1.0, 2.0, 3.0]), offset=np.array([1.0, 0.0, -1.0]))
    )


def test_quadratic_memo_serves_mixtures_and_the_nonconvex_base():
    """Memoized component and base gradients change no full or component gradient."""
    fresh_mixture = Mixture(
        components=tuple(_fresh(c) for c in MIXTURE.components), weights=MIXTURE.weights
    )
    fresh_nonconvex = NonconvexQuadratic(base=_fresh(NONCONVEX.base), squash_scale=0.25)
    points = np.random.default_rng(24).standard_normal((3, 2))
    for objective, fresh in ((MIXTURE, fresh_mixture), (NONCONVEX, fresh_nonconvex)):
        for i in (0, 1, 1, 2, 0):
            assert np.array_equal(objective.grad(points[i]), fresh.grad(points[i]))
            for c in (0, 1):
                expected = fresh.component_grad(points[i], c)
                assert np.array_equal(objective.component_grad(points[i], c), expected)


@pytest.mark.parametrize(
    "v",
    [
        np.random.default_rng(23).standard_normal(7),
        np.array([3.0, -4.0]),
        np.array([1e-200, -3e-190, 2e-160]),
        np.array([1e153, -2e153]),
        np.array([1e200, 1.0]),
        np.array([5e-324, 0.0]),
        np.zeros(3),
    ],
    ids=["random", "small-int", "tiny", "huge", "overflow", "subnormal", "zero"],
)
def test_euclidean_norm_is_bitwise_numpys(v):
    with np.errstate(over="ignore", under="ignore"):
        expected = np.linalg.norm(v)
        actual = euclidean_norm(v)
    assert type(actual) is float
    assert actual == expected or (math.isnan(actual) and math.isnan(expected))
    assert math.copysign(1.0, actual) == math.copysign(1.0, expected)


def test_cached_minimizers_are_read_only():
    assert not QUAD.minimizer.flags.writeable
    assert NONCONVEX.minimizer is NONCONVEX.minimizer


def test_logistic_predictions():
    rng = np.random.default_rng(19)
    x = rng.standard_normal(LOGISTIC.dim)
    preds = LOGISTIC.predictions(x)
    assert preds.shape == LOGISTIC.labels.shape
    assert np.all((preds >= 0) & (preds < 3))


# ---------------------------------------------------------------- domain


def test_projection_examples():
    ball = BallDomain(center=np.zeros(2), radius=1.0)
    assert np.array_equal(ball.project(np.array([2.0, 0.0])), np.array([1.0, 0.0]))
    inside = np.array([0.3, -0.4])
    assert np.array_equal(ball.project(inside), inside)
    wide = BallDomain(center=np.zeros(2), radius=5.0)
    boundary = np.array([3.0, 4.0])
    assert np.array_equal(wide.project(boundary), boundary)
    assert ball.diameter == 2.0
    assert ball.contains(np.array([1.0, 0.0]))
    assert not ball.contains(np.array([1.1, 0.0]))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(min_value=1, max_value=6),
    radius=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
)
def test_projection_properties(data, dim, radius):
    finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
    center = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    x = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    ball = BallDomain(center=center, radius=radius)
    projected = ball.project(x)
    assert ball.contains(projected, tol=0.0)
    assert np.array_equal(ball.project(projected), projected)  # exactly idempotent
    if ball.contains(x, tol=0.0):
        assert np.array_equal(projected, x)
    assert np.linalg.norm(projected - center) <= np.linalg.norm(x - center) + 1e-12


def test_domain_validation():
    with pytest.raises(InvalidConfigError):
        BallDomain(center=np.zeros(2), radius=0.0)
    with pytest.raises(InvalidConfigError):
        BallDomain(center=np.zeros(2), radius=-1.0)


# ---------------------------------------------------------------- specs


def test_from_spec_quadratic_via_minimizer():
    q = from_spec({"family": "quadratic", "curvature": [1.0, 2.0], "minimizer": [1.0, -1.0]}, 0.1)
    assert np.allclose(q.minimizer, [1.0, -1.0], atol=1e-12)
    assert np.array_equal(q.offset, np.array([1.0, -2.0]))


def test_from_spec_quadratic_via_dim():
    q = from_spec({"family": "quadratic", "dim": 3}, 0.1)
    assert q.dim == 3
    assert np.array_equal(q.offset, np.zeros(3))


def test_from_spec_mixture_defaults_to_delay_weights():
    spec = {
        "family": "mixture",
        "components": [
            {"minimizer": [1.0, 0.0]},
            {"minimizer": [-1.0, 0.0]},
        ],
        "noise_sigma": 0.6,
    }
    mix = from_spec(spec, 0.1)
    assert mix.weights == (0.1, 0.9)


@pytest.mark.parametrize("count", [1, 3])
def test_from_spec_mixture_needs_exactly_two_components(count):
    spec = {"family": "mixture", "components": [{"minimizer": [float(i)]} for i in range(count)]}
    with pytest.raises(InvalidConfigError) as err:
        from_spec(spec, 0.1)
    assert err.value.field == "objective.components"


def test_from_spec_unknown_family():
    with pytest.raises(InvalidConfigError) as err:
        from_spec({"family": "cubic"}, 0.1)
    assert "objective.family" in str(err.value)


def test_domain_from_spec():
    spec = {"family": "quadratic", "dim": 2, "domain": {"radius": 1.5}}
    ball = domain_from_spec(spec)
    assert ball.radius == 1.5
    assert np.array_equal(ball.center, np.zeros(2))
    assert domain_from_spec({"family": "quadratic", "dim": 2}) is None
    with pytest.raises(InvalidConfigError):
        domain_from_spec({"family": "quadratic", "domain": {"center": [0.0]}})


# ---------------------------------------------------------------- spec fields


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"family": "nonconvex", "dim": 2, "squash_scale": math.inf}, "objective.squash_scale"),
        ({"family": "nonconvex", "dim": 2, "squash_scale": math.nan}, "objective.squash_scale"),
        # separation, data_seed, matrix and weights are not keys: each is refused by name
        ({"family": "logistic", "separation": 2.0}, "objective.separation"),
        ({"family": "logistic", "separation": 0.5, "noise_sigma": 0.1}, "objective.separation"),
        ({"family": "logistic", "classes": 3, "samples": 200, "separation": 2}, "objective.separation"),
        ({"family": "logistic", "classes": 2.5}, "objective.classes"),
        ({"family": "logistic", "feature_dim": 3.5}, "objective.feature_dim"),
        ({"family": "logistic", "samples": 100.5}, "objective.samples"),
        ({"family": "logistic", "data_seed": 0}, "objective.data_seed"),
        ({"family": "logistic", "classes": math.inf}, "objective.classes"),
        ({"family": "quadratic", "dim": 2.5}, "objective.dim"),
        (
            {"family": "mixture", "components": [{"dim": 2}, {"dim": 1.5}]},
            "objective.components.1.dim",
        ),
        ({"family": "quadratic", "minimizer": [1.0, math.nan]}, "objective.minimizer"),
        ({"family": "quadratic", "offset": [math.inf, 0.0]}, "objective.offset"),
        ({"family": "quadratic", "dim": 2, "curvature": math.inf}, "objective.curvature"),
        (
            {"family": "quadratic", "curvature": [1.0, math.nan], "minimizer": [1.0, 1.0]},
            "objective.curvature",
        ),
        ({"family": "nonconvex", "dim": 2, "matrix": [[1.0, 0.0], [0.0, 2.0]]}, "objective.matrix"),
        (
            {"family": "mixture", "components": [{"minimizer": [math.nan]}, {"minimizer": [1.0]}]},
            "objective.components.0.minimizer",
        ),
        (
            {"family": "mixture", "components": [{"dim": 1}, {"dim": 1}], "weights": [0.1, 0.9]},
            "objective.weights",
        ),
        ({"family": "quadratic", "dim": 32764}, "objective.dim"),
        ({"family": "quadratic", "dim": 0}, "objective.dim"),
        (
            {"family": "mixture", "components": [{"dim": 2}, {"dim": 4097}]},
            "objective.components.1.dim",
        ),
        (
            {"family": "quadratic", "dim": 2, "domain": {"center": [0.0, math.nan], "radius": 1.0}},
            "objective.domain.center",
        ),
        ({"family": "quadratic", "offset": [0.0], "dim": 4097, "domain": {"radius": 1.0}}, "objective.dim"),
        (
            {"family": "nonconvex", "dim": 2, "curvature": [[1.0, 0.0], [0.0, math.inf]]},
            "objective.curvature",
        ),
        (
            {"family": "mixture", "components": [{"minimizer": [0.0]}, {"dim": 1, "matrix": 2.0}]},
            "objective.components.1.matrix",
        ),
        ({"family": "logistic", "noise_sigma": -0.5}, "objective.noise_sigma"),
        ({"family": "logistic", "samples": 10**9}, "objective.samples"),
        ({"family": "logistic", "classes": 2, "feature_dim": 2049}, "objective.feature_dim"),
        ({"family": "logistic", "classes": 4096, "feature_dim": 1, "samples": 4097}, "objective.samples"),
        ({"family": "quadratic", "offset": [1.0, 0.0], "minimizer": [5.0, 5.0]}, "objective.minimizer"),
        ({"family": "quadratic", "dim": 3, "minimizer": [1.0, 2.0]}, "objective.dim"),
        ({"family": "nonconvex", "dim": 1, "offset": [1.0, 2.0]}, "objective.dim"),
        (
            {"family": "mixture", "components": [{"minimizer": [1.0]}, {"dim": 2, "offset": [1.0]}]},
            "objective.components.1.dim",
        ),
        (
            {"family": "mixture", "components": [{"offset": [1.0], "minimizer": [1.0]}, {"dim": 1}]},
            "objective.components.0.minimizer",
        ),
        # one integer rule: a whole float or a bool is not an integer
        ({"family": "logistic", "classes": 3.0, "samples": 60}, "objective.classes"),
        ({"family": "quadratic", "dim": 3.0}, "objective.dim"),
        ({"family": "quadratic", "dim": True}, "objective.dim"),
        ({"family": "mixture", "components": [{"dim": 1}, {"dim": 1.0}]}, "objective.components.1.dim"),
        ({"family": "logistic", "feature_dim": True}, "objective.feature_dim"),
        ({"family": "logistic", "feature_dim": 0}, "objective.feature_dim"),
        ({"family": "logistic", "classes": 1}, "objective.classes"),
        # the shape and definiteness refusals name the curvature too
        ({"family": "quadratic", "dim": 3, "curvature": [1.0, 2.0]}, "objective.curvature"),
        ({"family": "quadratic", "dim": 1, "curvature": [[[1.0]]]}, "objective.curvature"),
        ({"family": "nonconvex", "dim": 2, "curvature": [[1.0, 1.0], [0.0, 1.0]]}, "objective.curvature"),
        ({"family": "quadratic", "dim": 2, "curvature": 0.0}, "objective.curvature"),
        (
            {"family": "mixture", "components": [{"dim": 1}, {"dim": 1, "curvature": -1.0}]},
            "objective.components.1.curvature",
        ),
    ],
)
def test_from_spec_rejects_non_finite_and_non_integral_fields(spec, field):
    with pytest.raises(InvalidConfigError) as err:
        from_spec(spec, 0.1)
        domain_from_spec(spec)
    assert err.value.field == field


@pytest.mark.parametrize("radius", [math.inf, math.nan])
def test_domain_rejects_a_non_finite_radius(radius):
    with pytest.raises(InvalidConfigError) as err:
        domain_from_spec({"family": "quadratic", "dim": 2, "domain": {"radius": radius}})
    assert err.value.field == "objective.domain.radius"


def test_domain_rejects_a_non_integral_dim():
    with pytest.raises(InvalidConfigError) as err:
        domain_from_spec({"family": "quadratic", "dim": 2.5, "domain": {"radius": 1.0}})
    assert err.value.field == "objective.dim"
