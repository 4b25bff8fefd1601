"""Objective families: gradients, smoothness constants, noise, and the ball domain."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stalegrad.errors import ContractViolationError, InvalidConfigError
from stalegrad.objectives import (
    FAST,
    SLOW,
    BallDomain,
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


def test_component_tags():
    assert MIXTURE.component_for(SLOW) == 0
    assert MIXTURE.component_for(FAST) == 1
    assert QUAD.component_for(SLOW) == 0 and QUAD.component_for(FAST) == 0
    with pytest.raises(ContractViolationError):
        MIXTURE.component_for("lazy")


def test_component_frequency_and_unbiasedness():
    """A Bernoulli(q₁) tag stream hits the slow component ≈ q₁ of the time,
    and the two-level draw (component then noise) averages to the full grad."""
    rng = np.random.default_rng(5)
    n = 100_000
    tags = np.where(rng.random(n) < 0.1, SLOW, FAST)
    comps = np.array([MIXTURE.component_for(t) for t in tags])
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
    assert LOGISTIC.component_for(SLOW) == 0 and LOGISTIC.component_for(FAST) == 1


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
    equal those of a fresh objective; memoized arrays cannot be written."""
    rng = np.random.default_rng(20)
    x, y = rng.standard_normal((2, LOGISTIC.dim))
    for point in (x, y, x):
        fresh = make_logistic(num_classes=3, feature_dim=4, num_samples=60, slow_weight=0.1)
        assert LOGISTIC.loss(point) == fresh.loss(point)
        assert np.array_equal(LOGISTIC.grad(point), fresh.grad(point))
        assert np.array_equal(LOGISTIC.component_grad(point, 0), fresh.component_grad(point, 0))
    x[0] += 1.0
    fresh = make_logistic(num_classes=3, feature_dim=4, num_samples=60, slow_weight=0.1)
    assert np.array_equal(LOGISTIC.grad(x), fresh.grad(x))
    log_probs, probs = LOGISTIC._softmax(x)
    assert not log_probs.flags.writeable and not probs.flags.writeable


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
    """Two points are memoized: three interleaved points and a point mutated in
    place still get a fresh objective's gradient, and no gradient is writable."""
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
            for c in range(objective.num_components):
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


def test_from_spec_mixture_weight_mismatch():
    spec = {
        "family": "mixture",
        "components": [{"minimizer": [1.0]}, {"minimizer": [-1.0]}],
        "weights": [0.2, 0.8],
    }
    with pytest.raises(InvalidConfigError) as err:
        from_spec(spec, 0.1)
    assert "objective.weights" in str(err.value)


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
        ({"family": "logistic", "separation": math.inf}, "objective.separation"),
        ({"family": "logistic", "separation": -math.inf}, "objective.separation"),
        ({"family": "logistic", "separation": math.nan}, "objective.separation"),
        ({"family": "logistic", "classes": 2.5}, "objective.classes"),
        ({"family": "logistic", "feature_dim": 3.5}, "objective.feature_dim"),
        ({"family": "logistic", "samples": 100.5}, "objective.samples"),
        ({"family": "logistic", "data_seed": 0.5}, "objective.data_seed"),
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
        ({"family": "nonconvex", "dim": 2, "matrix": [[1.0, 0.0], [0.0, math.inf]]}, "objective.matrix"),
        (
            {"family": "mixture", "components": [{"minimizer": [math.nan]}, {"minimizer": [1.0]}]},
            "objective.components.0.minimizer",
        ),
        (
            {"family": "mixture", "components": [{"dim": 1}, {"dim": 1}], "weights": [0.1, "fast"]},
            "objective.weights.1",
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


def test_integral_fields_accept_whole_floats():
    assert from_spec({"family": "logistic", "classes": 3.0, "samples": 60}, 0.1).num_classes == 3
    assert from_spec({"family": "quadratic", "dim": 3.0}, 0.1).dim == 3
