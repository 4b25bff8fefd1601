"""Objective families: gradients, smoothness constants, noise, and the ball domain."""

import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stalegrad import reference
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
from stalegrad.schema import MAX_RADIUS, Number, Numbers
from stalegrad.simulation import SimConfig, run

QUAD = Quadratic(curvature=np.diag([1.0, 4.0]), offset=np.array([1.0, -2.0]))

MIXTURE = Mixture(
    components=(
        Quadratic(curvature=np.eye(2), offset=np.array([1.0, 0.0])),
        Quadratic(curvature=np.eye(2), offset=np.array([-1.0, 0.0])),
    ),
    weights=(0.1, 0.9),
    noise_sigma=0.6,
)

ROOT2 = 2.0 ** 0.25
NONCONVEX = NonconvexQuadratic(
    curvature=0.5 * np.eye(2), offset=0.5 * np.array([ROOT2, ROOT2]), squash_scale=0.25, noise_sigma=1.0
)

LOGISTIC = make_logistic(num_classes=3, feature_dim=4, num_samples=60, slow_weight=0.1)


# ---------------------------------------------------------------- gradients


def test_quadratic_gradient_at_origin():
    q = Quadratic(curvature=np.eye(2), offset=np.array([1.0, 1.0]))
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
    q = Quadratic(curvature=np.array([[2.0, 0.5], [0.5, 1.0]]), offset=np.array([1.0, -2.0]))
    assert np.linalg.norm(q.grad(q.minimizer)) <= 1e-9


def test_quadratic_f_star():
    q = Quadratic(curvature=np.eye(2), offset=np.array([1.0, 1.0]))
    # f* = -½ bᵀA⁻¹b = -1 here
    assert math.isclose(q.theory_constants().f_star, -1.0, abs_tol=1e-12)


def test_curvature_forms_agree():
    """A scalar and a diagonal are kept as the diagonal vector, a nested list as
    the matrix; ``matrix`` gives every form densely."""
    a = Quadratic(curvature=2.0, offset=np.array([1.0, 0.0]))
    b = Quadratic(curvature=[2.0, 2.0], offset=np.array([1.0, 0.0]))
    c = Quadratic(curvature=[[2.0, 0.0], [0.0, 2.0]], offset=np.array([1.0, 0.0]))
    assert np.array_equal(a.curvature, [2.0, 2.0]) and np.array_equal(b.curvature, [2.0, 2.0])
    assert c.curvature.shape == (2, 2)
    assert np.array_equal(a.matrix, c.matrix)
    assert np.array_equal(b.matrix, c.matrix)


def test_curvature_must_be_symmetric_positive_definite():
    with pytest.raises(InvalidConfigError):
        Quadratic(curvature=np.array([[1.0, 1.0], [0.0, 1.0]]), offset=np.zeros(2))
    with pytest.raises(InvalidConfigError):
        Quadratic(curvature=np.array([[1.0, 0.0], [0.0, -1.0]]), offset=np.zeros(2))
    for diagonal in ([1.0, 0.0], [1.0, np.nan]):
        with pytest.raises(InvalidConfigError, match="positive definite"):
            Quadratic(curvature=diagonal, offset=np.zeros(2))


def test_lipschitz_is_largest_eigenvalue():
    assert QUAD.theory_constants().lipschitz == 4.0
    rng = np.random.default_rng(14)
    for _ in range(100):
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        assert v @ QUAD.matrix @ v <= 4.0 + 1e-12


_FULL_CURVATURE = {"curvature": [[2.0, 0.5], [0.5, 1.0]], "minimizer": [1.0, -1.0]}
_DIAGONAL_CURVATURE = {"curvature": [1.0, 3.0], "dim": 2}


@pytest.mark.parametrize(
    "spec, builds, constants",
    [
        (dict(_FULL_CURVATURE, family="quadratic"), 1, 0),
        (dict(_DIAGONAL_CURVATURE, family="quadratic"), 0, 0),
        (dict(_FULL_CURVATURE, family="nonconvex", squash_scale=0.5), 1, 0),
        (dict(_DIAGONAL_CURVATURE, family="nonconvex", squash_scale=0.5), 0, 0),
        ({"family": "mixture", "components": [_FULL_CURVATURE, _DIAGONAL_CURVATURE]}, 1, 1),
        ({"family": "mixture", "components": [_DIAGONAL_CURVATURE, {"curvature": 2.0, "dim": 2}]}, 0, 0),
    ],
    ids=["quadratic", "diagonal-quadratic", "nonconvex", "diagonal-nonconvex", "mixture", "diagonal-mixture"],
)
def test_each_quadratic_decomposes_its_curvature_once(monkeypatch, spec, builds, constants):
    """Building a quadratic checks A and keeps λ_max(A); theory constants reuse it.
    ``eigvalsh`` runs once per dense component and never for a diagonal one; a
    mixture with a dense component has a dense mean, whose σ_L takes one more."""
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(a):
        calls.append(a)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    objective = from_spec(spec, 0.1)
    assert len(calls) == builds  # one per dense component: the mixture's mean is not re-checked
    calls.clear()
    lipschitz = objective.theory_constants().lipschitz
    assert len(calls) == constants  # the dense mixture's sigma_l
    monkeypatch.undo()
    quadratics = getattr(objective, "components", (getattr(objective, "base", objective),))
    top = max(float(np.linalg.eigvalsh(q.matrix)[-1]) for q in quadratics)
    assert lipschitz == top + 2.0 * getattr(objective, "squash_scale", 0.0)


def _numpy_on_openblas_x86() -> bool:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    return "openblas" in str(blas).lower() and platform.machine().lower() in ("x86_64", "amd64")


def _rerun_under_other_openblas_cores(selection: str) -> None:
    """Run this file's tests matching ``selection`` (a ``-k`` expression) under
    the Haswell and Prescott kernel sets, in parallel subprocesses."""
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", selection]
    runs = {
        core: subprocess.Popen(
            command,
            cwd=Path(__file__).parents[1],
            env=dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1"),  # two children share the cores
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for core in ("Haswell", "Prescott")
    }
    try:
        outputs = {core: proc.communicate(timeout=120)[0] for core, proc in runs.items()}
    finally:
        for proc in runs.values():
            proc.kill()
    for core, proc in runs.items():
        assert proc.returncode == 0, f"OPENBLAS_CORETYPE={core}:\n{outputs[core][-3000:]}"


def _quadratic_family_spec(family: str, curvatures: list, minimizers: list) -> dict:
    """A quadratic, nonconvex or mixture spec; one curvature and minimizer per component."""
    if family == "mixture":
        components = [{"curvature": a, "minimizer": m} for a, m in zip(curvatures, minimizers)]
        return {"family": "mixture", "components": components, "noise_sigma": 0.3}
    spec = {"family": family, "curvature": curvatures[0], "minimizer": minimizers[0], "noise_sigma": 0.3}
    return dict(spec, squash_scale=0.5) if family == "nonconvex" else spec


@pytest.mark.parametrize("family", ["quadratic", "nonconvex", "mixture", "equal-mixture"])
def test_diagonal_curvature_gives_the_dense_bits(family):
    """A diagonal ``a`` and its dense form ``np.diag(a).tolist()`` give one
    objective bit for bit: loss, gradients, minimizer, and f*, Δ, L, σ and σ_L
    (σ has a closed form only for the mixture of equal curvatures)."""
    rng = np.random.default_rng(len(family))
    for d in (1, 2, 3, 7, 8, 16, 33, 64, 100, 257):
        diagonals = np.exp(rng.uniform(-4.0, 4.0, (2, d)))
        if family == "equal-mixture":
            diagonals[1] = diagonals[0]
        minimizers = (4.0 * rng.standard_normal((2, d))).tolist()
        kind = family.removeprefix("equal-")
        diagonal = from_spec(_quadratic_family_spec(kind, diagonals.tolist(), minimizers), 0.1)
        dense = from_spec(_quadratic_family_spec(kind, [np.diag(a).tolist() for a in diagonals], minimizers), 0.1)
        x1 = rng.standard_normal(d)
        ours, theirs = diagonal.theory_constants(x1), dense.theory_constants(x1)
        assert np.array_equal(diagonal.minimizer, dense.minimizer)
        assert np.array_equal(ours.minimizer, theirs.minimizer)
        for name in ("f_star", "delta_gap", "lipschitz", "sigma", "sigma_l"):
            assert getattr(ours, name) == getattr(theirs, name), (d, name)
        for x in 3.0 * rng.standard_normal((4, d)):
            assert diagonal.loss(x) == dense.loss(x)
            assert np.array_equal(diagonal.grad(x), dense.grad(x))
            for c in (0, 1):
                assert np.array_equal(diagonal.component_grad(x, c), dense.component_grad(x, c))


@pytest.mark.skipif(not _numpy_on_openblas_x86(), reason="needs numpy on OpenBLAS, on x86-64")
def test_diagonal_curvature_gives_the_dense_bits_under_other_openblas_cores():
    """The dense path's products, solve and eigvalsh must give the diagonal
    path's bits under every kernel set OpenBLAS may pick."""
    _rerun_under_other_openblas_cores("gives_the_dense_bits and not openblas")


@pytest.fixture
def no_lapack(monkeypatch):
    """``np.linalg.eigvalsh`` and ``solve`` raise: the diagonal path must not call them."""

    def refuse(*args, **kwargs):
        raise AssertionError("the diagonal path called LAPACK")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)


_DIAGONAL_FAMILIES = {
    "quadratic": {"family": "quadratic", "curvature": [1.0, 3.0], "minimizer": [1.0, -1.0], "noise_sigma": 0.5},
    "nonconvex": dict(
        family="nonconvex", curvature=2.0, minimizer=[0.5, -0.5], squash_scale=0.5, noise_sigma=0.5
    ),
    "mixture": {
        "family": "mixture",
        "components": [{"curvature": 1.0, "minimizer": [1.0, 0.0]}, {"curvature": [1.0, 1.0], "minimizer": [-1.0, 0.0]}],
        "noise_sigma": 0.6,
    },
}


@pytest.mark.parametrize("family", list(_DIAGONAL_FAMILIES))
def test_diagonal_families_build_and_run_without_lapack(no_lapack, family):
    """Each diagonal family builds through ``from_spec``, resolves ``theory: true`` and runs."""
    config = SimConfig(
        objective=_DIAGONAL_FAMILIES[family],
        optimizer={"method": "ordered_momentum", "theory": True},
        total_iterations=50,
        num_workers=3,
        delay={"slow_weight": 0.1},
    )
    trace = run(config)
    assert len(trace) == 50 and trace.resolved_params["eta"] > 0


def test_a_large_diagonal_mixture_allocates_no_dense_curvature(no_lapack):
    """At d = 4096 a d×d float64 array is 128 MiB; the dense path peaked at 768 MiB here."""
    d = 4096
    rng = np.random.default_rng(4096)
    spec = {
        "family": "mixture",
        "components": [
            {"curvature": rng.uniform(0.5, 3.0, d).tolist(), "minimizer": rng.standard_normal(d).tolist()}
            for _ in range(2)
        ],
    }
    tracemalloc.start()
    try:
        mixture = from_spec(spec, 0.1)
        constants = mixture.theory_constants()
        x = rng.standard_normal(d)
        mixture.loss(x), mixture.grad(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert constants.sigma is None and constants.sigma_l > 0
    assert peak < d * d * 8 / 16


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
    "spec",
    [
        pytest.param({"family": "quadratic", "dim": 2}, id="Quadratic"),
        pytest.param({"family": "mixture", "components": [{"dim": 2}, {"dim": 2}]}, id="Mixture"),
        pytest.param({"family": "nonconvex", "dim": 2}, id="NonconvexQuadratic"),
        pytest.param({"family": "logistic"}, id="Logistic"),
    ],
)
def test_every_family_refuses_negative_noise(spec):
    """The config table refuses it for every family; the constructors take checked values."""
    with pytest.raises(InvalidConfigError) as err:
        from_spec(dict(spec, noise_sigma=-0.5), 0.1)
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
            Quadratic(curvature=2.0 * np.eye(2), offset=np.zeros(2)),
            Quadratic(curvature=np.eye(2), offset=np.zeros(2)),
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
    components = tuple(Quadratic(curvature=_spd(rng, d), offset=rng.standard_normal(d)) for _ in range(2))
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
    components = tuple(Quadratic(curvature=a, offset=rng.standard_normal(d)) for a in matrices)
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
    q = Quadratic(curvature=np.eye(1), offset=np.zeros(1), noise_sigma=1.0)
    rng = np.random.default_rng(3)
    x = np.array([0.7])
    true = q.grad(x)
    draws = np.array([q.stochastic_grad(x, 0, rng)[0] - true[0] for _ in range(100_000)])
    assert abs(draws.mean()) <= 4.0 / math.sqrt(draws.size)


def test_zero_noise_skips_the_generator():
    q = Quadratic(curvature=np.eye(2), offset=np.zeros(2), noise_sigma=0.0)
    rng = np.random.default_rng(21)
    before = rng.bit_generator.state
    q.stochastic_grad(np.ones(2), 0, rng)
    q.stochastic_grad_pair(np.ones(2), np.zeros(2), 0, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("dim", [1, 2, 12, 100])
def test_noise_has_the_bits_and_stream_of_scaled_standard_normals(dim):
    """One ``normal`` call per draw gives the bytes of scale·standard_normal(dim)
    from a twin generator and leaves it in the same state, with the delay
    model's geometric draws interleaved."""
    q = Quadratic(curvature=np.eye(dim), offset=np.zeros(dim), noise_sigma=0.7)
    scale = 0.7 / math.sqrt(dim)
    for seed in range(30):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert rng.geometric(0.3) == twin.geometric(0.3)
            assert q._noise(rng).tobytes() == (scale * twin.standard_normal(dim)).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state


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
    quadratic_part = Quadratic(curvature=NONCONVEX.curvature, offset=NONCONVEX.offset)
    assert math.isclose(constants.f_star, quadratic_part.loss(NONCONVEX.minimizer), rel_tol=1e-12)


# ---------------------------------------------------------------- logistic


def test_logistic_shapes_and_groups():
    assert LOGISTIC.dim == 3 * 4
    assert LOGISTIC.num_classes == 3
    n_slow = int(np.sum(LOGISTIC.group_of == 0))
    assert n_slow == 6  # round(60 · 0.1)
    assert np.all(LOGISTIC.labels[LOGISTIC.group_of == 0] == 2)
    assert LOGISTIC.group_weights == (0.1, 0.9)
    assert COMPONENT_INDEX[SLOW] == 0 and COMPONENT_INDEX[FAST] == 1  # group_of's tags


@pytest.mark.parametrize(
    "group_of, message",
    [
        pytest.param([0, 1, 2, 1], "group tags must be 0", id="unknown-tag"),
        pytest.param([0, -1, 0, 1], "group tags must be 0", id="negative-tag"),
        pytest.param([1, 1, 1, 1], "at least one sample", id="no-slow-sample"),
        pytest.param([0, 0, 0, 0], "at least one sample", id="no-fast-sample"),
        pytest.param([], "at least one sample", id="no-sample"),
    ],
)
def test_logistic_refuses_bad_group_tags(group_of, message):
    """Both group weights are positive, so each group needs a sample: an empty
    one would make its mean loss 0/0."""
    with pytest.raises(InvalidConfigError, match=message):
        Logistic(
            features=np.ones((len(group_of), 2)),
            labels=np.arange(len(group_of)) % 2,
            group_of=group_of,
            group_weights=(0.1, 0.9),
            num_classes=2,
        )


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param({"labels": [0, 1, 0]}, "one entry per sample", id="short-labels"),
        pytest.param({"labels": [0, 1, 2, 1]}, "labels must index into num_classes", id="label-out-of-range"),
        pytest.param({"num_classes": 1, "labels": [0, 0, 0, 0]}, "num_classes >= 2", id="one-class"),
        pytest.param({"group_weights": (0.5, 0.6)}, "group weights must be positive", id="weights-sum"),
        pytest.param({"group_weights": (0.0, 1.0)}, "group weights must be positive", id="zero-weight"),
    ],
)
def test_logistic_refuses_bad_labels_and_weights(change, message):
    data = {"features": np.ones((4, 2)), "labels": [0, 1, 0, 1], "group_of": [0, 1, 1, 1]}
    with pytest.raises(InvalidConfigError, match=message):
        Logistic(**{**data, "group_weights": (0.1, 0.9), "num_classes": 2, **change})


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
    key, values = LOGISTIC._memo
    assert key == x.tobytes() and sorted(values, key=str) == [0, 1, "softmax"]
    assert not any(a.flags.writeable for a in (*values["softmax"], values[0], values[1]))
    for g in LOGISTIC._groups:
        assert not any(a.flags.writeable for a in (g.picks, g.cells, g.onehot, g.features))


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
@pytest.mark.parametrize("classes", [2, 3, 7, 8, 9, 16, 130, 300])
def test_logistic_kernels_keep_the_former_bits(classes, interleaved):
    """From 8 classes on numpy sums a row pairwise, so a reordered row sum shows
    here: 7 is the widest row it adds in order, 8, 9 and 16 take its
    8-accumulator branch, 130 and 300 its split."""
    _assert_former_bits(classes, 3, interleaved, np.random.default_rng(classes))


@pytest.mark.parametrize("feature_dim", [8, 16, 19])
def test_logistic_kernels_keep_the_former_bits_with_wide_features(feature_dim):
    """From 8 features on (16 under SkylakeX) the logits product's bits depend
    on its operands' layout, so a transposed product shows here."""
    _assert_former_bits(3, feature_dim, True, np.random.default_rng(feature_dim))


def _assert_former_bits(classes, d, interleaved, rng):
    n = 40
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


@pytest.mark.skipif(not _numpy_on_openblas_x86(), reason="needs numpy on OpenBLAS, on x86-64")
def test_logistic_kernels_keep_the_former_bits_under_other_openblas_cores():
    """The kernels' BLAS layouts must give the former bits under every kernel set
    OpenBLAS may pick, not only this CPU's; a layout that matched under SkylakeX
    changed bits under Haswell and Prescott."""
    _rerun_under_other_openblas_cores("keep_the_former_bits and not openblas")


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


def test_quadratic_memo_follows_the_point_bytes():
    """A quadratic keeps no memo: three interleaved points and a point mutated in
    place get a fresh objective's gradient, and each gradient is the caller's,
    writable, and writing to it changes no later gradient."""
    def make():
        return Quadratic(curvature=np.array([[2.0, 0.5], [0.5, 1.0]]), offset=np.array([1.0, -3.0]))

    objective = make()
    points = np.random.default_rng(22).standard_normal((3, 2))
    for i in (0, 1, 0, 2, 1, 0, 2, 2):
        g = objective.grad(points[i])
        assert np.array_equal(g, make().grad(points[i]))
        assert g.flags.writeable
    x = points[0].copy()
    before = objective.grad(x)
    x[1] += 1.0
    after = objective.grad(x)
    assert np.array_equal(after, make().grad(x))
    assert not np.array_equal(after, before)
    kept = after.copy()
    after[0] = 0.0
    assert np.array_equal(objective.grad(x), kept)


def test_quadratic_memo_is_safe_across_threads():
    _assert_memo_is_safe_across_threads(
        Quadratic(curvature=np.diag([1.0, 2.0, 3.0]), offset=np.array([1.0, 0.0, -1.0]))
    )


def test_quadratic_memo_serves_mixtures_and_the_nonconvex_base():
    """At interleaved points a mixture's and the nonconvex family's full and
    component gradients equal those of an objective built afresh."""
    fresh_mixture = Mixture(
        components=tuple(Quadratic(curvature=c.curvature, offset=c.offset) for c in MIXTURE.components),
        weights=MIXTURE.weights,
    )
    fresh_nonconvex = NonconvexQuadratic(curvature=NONCONVEX.curvature, offset=NONCONVEX.offset, squash_scale=0.25)
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


@pytest.mark.parametrize("far", [[1e200, 1e200], [-1e300, 5.0], [1e308, -1e308]])
def test_projection_sends_a_far_point_to_the_boundary(far):
    """‖x − center‖² overflows a float here; the point still lands on the sphere, with no warning."""
    ball = BallDomain(center=np.zeros(2), radius=1.0)
    projected = ball.project(np.array(far))
    direction = np.array(far) / np.abs(far).max()  # far / ‖far‖, without the overflow
    assert np.allclose(projected, direction / np.linalg.norm(direction), rtol=1e-12, atol=0.0)
    assert ball.contains(projected, tol=0.0)
    assert np.array_equal(ball.project(projected), projected)


def test_reference_projection_tightens_to_the_domains_bits():
    """Far from the origin, the radially scaled point rounds outside a small ball:
    both projections tighten it until it lies inside, to the same bits."""
    center, radius = np.array([1e6, -1e6]), 1e-3
    x = center + np.array([1.0, 2.0])
    offset = x - center
    first = center + radius / np.linalg.norm(offset) * offset  # the radially scaled point
    assert np.linalg.norm(first - center) > radius
    projected = reference.project_ball(center, radius, x)
    assert np.linalg.norm(projected - center) <= radius
    assert np.array_equal(projected, BallDomain(center=center, radius=radius).project(x))


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
    # at most MAX_RADIUS, the squared distance of a point inside stays finite
    assert BallDomain(center=np.zeros(2), radius=MAX_RADIUS).contains(np.array([7e149, 7e149]))
    with pytest.raises(InvalidConfigError) as err:
        BallDomain(center=np.zeros(2), radius=math.nextafter(MAX_RADIUS, math.inf))
    assert err.value.field == "objective.domain.radius"


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


@pytest.mark.parametrize("value", [True, np.True_, "1.5", b"1.5"], ids=["bool", "numpy-bool", "str", "bytes"])
def test_number_fields_refuse_bools_and_strings_at_any_depth(value):
    with pytest.raises(InvalidConfigError) as err:
        Number(-math.inf).check(value, "objective.noise_sigma")
    assert err.value.field == "objective.noise_sigma"
    for vector in (value, [1.0, value], [[1.0], [value]]):
        with pytest.raises(InvalidConfigError) as err:
            Numbers(matrix=True).check(vector, "objective.curvature")
        assert err.value.field == "objective.curvature"
    with pytest.raises(InvalidConfigError):
        Numbers(matrix=True).check(np.array([value, value]), "objective.curvature")  # a bool or string dtype


def test_domain_rejects_a_non_integral_dim():
    with pytest.raises(InvalidConfigError) as err:
        domain_from_spec({"family": "quadratic", "dim": 2.5, "domain": {"radius": 1.0}})
    assert err.value.field == "objective.dim"
