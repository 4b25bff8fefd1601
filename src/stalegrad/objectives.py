"""Synthetic objective families with closed-form constants.

Four families are provided, all cheap enough to evaluate exactly:

* :class:`Quadratic` — f(x) = ½xᵀAx − bᵀx, positive definite A.
* :class:`Mixture` — a weighted sum of two quadratics; the first component
  is the rare "slow" one, its weight matching the delay model's slow_weight.
* :class:`NonconvexQuadratic` — a quadratic plus a bounded coordinatewise
  squash, lower bounded with a hand-derived smoothness constant.
* :class:`Logistic` — multinomial cross-entropy on a synthetic dataset,
  with samples split into a slow and a fast group.

Stochastic gradients follow one sampling scheme everywhere: the delay model
fixes the component tag (:data:`COMPONENT_INDEX` gives its index), the
objective adds isotropic Gaussian noise with per-coordinate standard
deviation ``noise_sigma/√d`` (so the expected squared noise norm is exactly
``noise_sigma²``).  When an update rule needs gradients at two points from
one sample, both evaluations share the same component and the same noise
vector, so their difference is noise-free.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Collection, Mapping, NamedTuple

import numpy as np

from .errors import ContractViolationError, InvalidConfigError

Array = np.ndarray

#: component tags used by the delay model and recorded in traces
SLOW, FAST = "slow", "fast"
#: the component index a tag selects: a mixture's component or a logistic
#: group; the single-component families ignore it
COMPONENT_INDEX = {SLOW: 0, FAST: 1}


def _freeze(a: Array) -> Array:
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


def _read_only(a: Array) -> Array:
    """Mark ``a`` itself read-only (no copy, dtype kept)."""
    a.setflags(write=False)
    return a


_FLOAT64 = np.dtype(np.float64)


def _check_dim(x: Array, dim: int) -> Array:
    if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
        x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ContractViolationError(f"expected a vector of shape ({dim},), got {x.shape}")
    return x


def euclidean_norm(v: Array) -> float:
    """‖v‖₂ of a 1-D float vector, bitwise what ``np.linalg.norm`` returns.

    ``np.linalg.norm`` computes ``sqrt(v.dot(v))`` for such a vector; this
    skips its argument handling.
    """
    return math.sqrt(v.dot(v))


def finite_number(value: Any, field: str) -> float:
    """``value`` as a finite float, or :class:`InvalidConfigError` naming ``field``."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidConfigError(f"must be a number, got {value!r}", field=field) from None
    if not math.isfinite(out):
        raise InvalidConfigError(f"must be finite, got {out!r}", field=field)
    return out


def finite_vector(value: Any, field: str) -> Array:
    """``value`` as a finite float64 array, or :class:`InvalidConfigError` naming ``field``."""
    try:
        out = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise InvalidConfigError(f"must be a list of numbers, got {value!r}", field=field) from None
    if not np.all(np.isfinite(out)):
        raise InvalidConfigError("entries must be finite", field=field)
    return out


def finite_list(value: Any, field: str) -> Array:
    """``value`` as a finite 1-D float64 array with at least one entry."""
    vector = finite_vector(value, field)
    if vector.ndim != 1 or vector.size == 0:
        raise InvalidConfigError("must be a non-empty list of numbers", field=field)
    return vector


def integer_at_least(value: Any, field: str, minimum: int) -> int:
    """``value`` if it is an int (not a bool, nor ``3.0``) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfigError("must be an integer", field=field)
    if value < minimum:
        raise InvalidConfigError(f"must be >= {minimum}", field=field)
    return value


def known_keys(section: Any, allowed: Collection[str], path: str) -> None:
    """Refuse ``section`` unless it is a mapping with no key outside ``allowed`` (a misspelt one, say)."""
    if not isinstance(section, Mapping):
        raise InvalidConfigError(f"must be a mapping of {', '.join(sorted(allowed))}", field=path)
    unknown = sorted(set(section) - set(allowed), key=str)
    if unknown:
        message = f"unknown key; expected one of {', '.join(sorted(allowed))}"
        raise InvalidConfigError(message, field=f"{path}.{unknown[0]}")


@contextmanager
def blame(field: str):
    """Name ``field`` on errors from building what that config section describes."""
    try:
        yield
    except InvalidConfigError as exc:
        if exc.field:
            raise
        raise InvalidConfigError(str(exc), field=field) from None
    except (TypeError, ValueError, LookupError, AttributeError) as exc:
        raise InvalidConfigError(f"malformed entry: {exc!r}", field=field) from None


def true_or_false(value: Any, field: str) -> bool:
    """``value`` if it is a bool; quoted ``"no"`` is not read as a flag."""
    if not isinstance(value, bool):
        raise InvalidConfigError("must be true or false", field=field)
    return value


@dataclass(frozen=True)
class TheoryConstants:
    """Closed-form problem constants consumed by step-size calculators.

    Fields without a closed form for the given objective are ``None``
    (e.g. the logistic family exposes only a smoothness bound).
    """

    lipschitz: float
    sigma: float | None
    sigma_l: float | None
    delta_gap: float | None
    minimizer: Array | None
    f_star: float | None


@dataclass(frozen=True)
class BallDomain:
    """Euclidean ball; the feasible set for projected methods.

    The diameter ``D = 2·radius`` enters the step-size window of the
    averaged projected method.
    """

    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _freeze(np.atleast_1d(self.center)))
        if not self.radius > 0:
            raise InvalidConfigError("radius must be positive", field="objective.domain.radius")

    @cached_property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, x: Array, tol: float = 1e-12) -> bool:
        return euclidean_norm((np.asarray(x) - self.center).ravel()) <= self.radius + tol

    def project(self, x: Array) -> Array:
        """Orthogonal projection: x itself inside the ball, else radial scaling.

        The scale factor is re-tightened against the *original* offset until
        rounding leaves the point genuinely inside, and it strictly decreases
        every pass (the ``nextafter`` floor), so the loop always terminates —
        even when the ball is many orders of magnitude smaller than its
        center coordinates.  The output satisfies the same containment test
        the identity branch uses, which makes the projection exactly
        idempotent.
        """
        out = _check_dim(x, self.dim)
        offset = out - self.center
        dist = euclidean_norm(offset)
        if dist <= self.radius:
            return out
        scale = self.radius / dist
        candidate = self.center + scale * offset
        dist = euclidean_norm(candidate - self.center)
        while dist > self.radius:
            scale = min(scale * (self.radius / dist), math.nextafter(scale, 0.0))
            candidate = self.center + scale * offset
            dist = euclidean_norm(candidate - self.center)
        return candidate


class _NoiseModel:
    """Shared stochastic-gradient scheme; see the module docstring."""

    # subclasses provide: dim, noise_sigma, component_grad

    def _check_noise_sigma(self) -> None:
        if not self.noise_sigma >= 0:
            raise InvalidConfigError("noise_sigma must be nonnegative", field="objective.noise_sigma")

    def _noise(self, rng: np.random.Generator) -> Array:
        if self.noise_sigma == 0.0:
            return np.zeros(self.dim)
        return (self.noise_sigma / math.sqrt(self.dim)) * rng.standard_normal(self.dim)

    def stochastic_grad(self, x: Array, component: int, rng: np.random.Generator) -> Array:
        """One noisy gradient at x for the given (already drawn) component."""
        return self.component_grad(x, component) + self._noise(rng)

    def stochastic_grad_pair(
        self, x: Array, x_prev: Array, component: int, rng: np.random.Generator
    ) -> tuple[Array, Array]:
        """Gradients at x and x_prev sharing one sample (component and noise).

        x_prev goes first: it is the point the previous dispatch evaluated
        last, so a memo still holds it.
        """
        noise = self._noise(rng)
        g_prev = self.component_grad(x_prev, component) + noise
        return self.component_grad(x, component) + noise, g_prev


def _as_matrix(curvature: Any, dim: int) -> Array:
    """Expand a scalar, diagonal, or full curvature to a dim×dim matrix."""
    a = np.asarray(curvature, dtype=np.float64)
    if a.ndim == 0:
        a = float(a) * np.eye(dim)
    elif a.ndim == 1:
        if a.shape != (dim,):
            raise InvalidConfigError(f"diagonal curvature needs {dim} entries, got {a.shape[0]}")
        a = np.diag(a)
    elif a.shape != (dim, dim):
        raise InvalidConfigError(f"curvature matrix must be {dim}x{dim}, got {a.shape}")
    return a


@dataclass(frozen=True)
class Quadratic(_NoiseModel):
    """f(x) = ½xᵀAx − bᵀx with symmetric positive definite A.

    Building one checks A; the eigendecomposition that checks it also gives
    ``max_eigenvalue``, λ_max(A).  ``grad`` memoizes its last point, keyed
    on its exact bytes: a step's monitoring re-evaluates the point the
    previous dispatch differentiated at, and a paired dispatch
    differentiates at the previous query point first.  The arrays it
    returns are read-only.
    """

    matrix: Array
    offset: Array
    noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "offset", _freeze(np.atleast_1d(self.offset)))
        object.__setattr__(self, "matrix", _freeze(_as_matrix(self.matrix, self.offset.shape[0])))
        if not np.allclose(self.matrix, self.matrix.T, rtol=0, atol=1e-12):
            raise InvalidConfigError("curvature matrix must be symmetric")
        eigenvalues = np.linalg.eigvalsh(self.matrix)
        if eigenvalues[0] <= 0:
            raise InvalidConfigError("curvature matrix must be positive definite")
        object.__setattr__(self, "max_eigenvalue", float(eigenvalues[-1]))
        self._check_noise_sigma()
        object.__setattr__(self, "_memo", (None, None))

    @cached_property
    def dim(self) -> int:
        return self.offset.shape[0]

    def loss(self, x: Array) -> float:
        # ndarray.dot rather than @, without matmul's per-call dispatch cost.
        # It reads no memo, so a check can compare grad against it.
        x = _check_dim(x, self.dim)
        return 0.5 * float(x.dot(self.matrix.dot(x))) - float(self.offset.dot(x))

    def grad(self, x: Array) -> Array:
        x = _check_dim(x, self.dim)
        key = x.tobytes()
        memo = self._memo
        if memo[0] == key:
            return memo[1]
        g = _read_only(self._evaluate_grad(x))
        object.__setattr__(self, "_memo", (key, g))
        return g

    def _evaluate_grad(self, x: Array) -> Array:
        return self.matrix.dot(x) - self.offset

    def component_grad(self, x: Array, component: int) -> Array:
        return self.grad(x)

    @cached_property
    def minimizer(self) -> Array:
        return _freeze(np.linalg.solve(self.matrix, self.offset))

    def theory_constants(self, x_init: Array | None = None) -> TheoryConstants:
        x1 = np.zeros(self.dim) if x_init is None else _check_dim(x_init, self.dim)
        m = self.minimizer
        f_star = self.loss(m)
        return TheoryConstants(
            lipschitz=self.max_eigenvalue,
            sigma=self.noise_sigma,
            sigma_l=0.0,
            delta_gap=self.loss(x1) - f_star,
            minimizer=m,
            f_star=f_star,
        )


@dataclass(frozen=True)
class Mixture(_NoiseModel):
    """Weighted sum of two quadratics; component 0 is the slow one, 1 the fast one.

    A weighted sum of quadratics is itself one: ``mean`` is the quadratic
    with Ā = Σ q_c A_c and b̄ = Σ q_c b_c, built once.  ``loss``, ``grad``
    and the closed-form minimizer go through it, so monitoring a step costs
    one matrix-vector product per call rather than one per component.
    """

    components: tuple[Quadratic, ...]
    weights: tuple[float, ...]
    noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.components) != 2 or len(self.weights) != 2:
            raise InvalidConfigError("a mixture has two components (slow, fast) and two weights")
        if any(not 0 < w < 1 for w in self.weights) or abs(sum(self.weights) - 1.0) > 1e-12:
            raise InvalidConfigError("weights must lie in (0,1) and sum to 1")
        if self.components[0].dim != self.components[1].dim:
            raise InvalidConfigError("both components must share one dimension")
        self._check_noise_sigma()
        dim = self.components[0].dim
        matrix, offset = np.zeros((dim, dim)), np.zeros(dim)
        for w, c in zip(self.weights, self.components):
            matrix += w * c.matrix
            offset += w * c.offset
        object.__setattr__(self, "mean", Quadratic(matrix=matrix, offset=offset))

    @cached_property
    def dim(self) -> int:
        return self.components[0].dim

    def loss(self, x: Array) -> float:
        return self.mean.loss(x)

    def grad(self, x: Array) -> Array:
        # past the mean quadratic's memo: every monitored point is new
        return _read_only(self.mean._evaluate_grad(_check_dim(x, self.dim)))

    def component_grad(self, x: Array, component: int) -> Array:
        return self.components[component].grad(x)

    @property
    def minimizer(self) -> Array:
        return self.mean.minimizer

    def theory_constants(self, x_init: Array | None = None) -> TheoryConstants:
        x1 = np.zeros(self.dim) if x_init is None else _check_dim(x_init, self.dim)
        m = self.minimizer

        def weighted_loss(x: Array) -> float:
            # f* and the initial gap sum the component losses, as the mixture
            # is defined: the mean quadratic rounds differently, and these two
            # set the theory-derived step sizes.
            return float(sum(w * c.loss(x) for w, c in zip(self.weights, self.components)))

        f_star = weighted_loss(m)
        # The sample functions must be as smooth as the mean, so the
        # certificate is the largest component curvature (it dominates the
        # weighted average).
        lipschitz = max(c.max_eigenvalue for c in self.components)
        equal_curvature = all(
            np.allclose(c.matrix, self.components[0].matrix, rtol=0, atol=1e-12)
            for c in self.components
        )
        sigma: float | None = None
        if equal_curvature:
            # Component gradients then differ from the mean by the constant
            # b̄ − b_c, so the gradient variance is the same at every x.
            spread = sum(
                w * float(np.linalg.norm(c.offset - self.mean.offset) ** 2)
                for w, c in zip(self.weights, self.components)
            )
            sigma = math.sqrt(self.noise_sigma**2 + spread)
        second_moment = np.zeros((self.dim, self.dim))
        for w, c in zip(self.weights, self.components):
            diff = c.matrix - self.mean.matrix
            second_moment += w * (diff @ diff)
        sigma_l = math.sqrt(max(0.0, float(np.linalg.eigvalsh(second_moment)[-1])))
        return TheoryConstants(
            lipschitz=lipschitz,
            sigma=sigma,
            sigma_l=sigma_l,
            delta_gap=weighted_loss(x1) - f_star,
            minimizer=m,
            f_star=f_star,
        )


def squash(u: Array) -> Array:
    """Coordinatewise u²/(1+u²): bounded, zero at 0, second derivative in [−½, 2]."""
    u2 = np.square(u)
    return u2 / (1.0 + u2)


def squash_deriv(u: Array) -> Array:
    return 2.0 * u / np.square(1.0 + np.square(u))


@dataclass(frozen=True)
class NonconvexQuadratic(_NoiseModel):
    """A quadratic plus a bounded coordinatewise distortion.

    f(x) = ½xᵀAx − bᵀx + scale·Σᵢ s(xᵢ − mᵢ) with s(u) = u²/(1+u²) and m the
    quadratic's minimizer.  Both terms are minimized at m, so the global
    minimizer and f* stay in closed form, and since s'' ∈ [−½, 2] with
    s''(0) = 2 the gradient-Lipschitz constant is exactly
    λ_max(A) + 2·scale (attained at m).
    """

    base: Quadratic
    squash_scale: float
    noise_sigma: float = 0.0

    def __post_init__(self):
        if not self.squash_scale > 0:
            raise InvalidConfigError("squash_scale must be positive", field="objective.squash_scale")
        self._check_noise_sigma()

    @cached_property
    def dim(self) -> int:
        return self.base.dim

    @property
    def minimizer(self) -> Array:
        return self.base.minimizer

    def loss(self, x: Array) -> float:
        x = _check_dim(x, self.dim)
        return self.base.loss(x) + self.squash_scale * float(np.sum(squash(x - self.minimizer)))

    def grad(self, x: Array) -> Array:
        x = _check_dim(x, self.dim)
        return self.base.grad(x) + self.squash_scale * squash_deriv(x - self.minimizer)

    def component_grad(self, x: Array, component: int) -> Array:
        return self.grad(x)

    def theory_constants(self, x_init: Array | None = None) -> TheoryConstants:
        x1 = np.zeros(self.dim) if x_init is None else _check_dim(x_init, self.dim)
        m = self.minimizer
        f_star = self.base.loss(m)
        return TheoryConstants(
            lipschitz=self.base.max_eigenvalue + 2.0 * self.squash_scale,
            sigma=self.noise_sigma,
            sigma_l=0.0,
            delta_gap=self.loss(x1) - f_star,
            minimizer=m,
            f_star=f_star,
        )


class _Group(NamedTuple):
    """One sample group, precomputed once per objective."""

    rows: Array  # sample indices of the group
    picks: Array  # rows·C + labels[rows]: each row's true class in the flat n×C array
    onehot: Array  # n_g×C, 1.0 at each row's label
    features: Array  # features[rows]


@dataclass(frozen=True)
class Logistic(_NoiseModel):
    """Multinomial cross-entropy over a fixed dataset split into two groups.

    Parameters are a flattened C×d weight matrix.  The loss is the
    group-weighted mean of per-group mean losses, so the slow group's
    weight matches its sampling probability under the delay model.

    The documented smoothness bound is L = (C−1)/C · maxᵢ‖φᵢ‖²: every
    per-sample Hessian is (diag(p) − ppᵀ) ⊗ φφᵀ and λ_max(diag(p) − ppᵀ)
    ≤ ½ ≤ (C−1)/C for C ≥ 2.  No closed-form minimizer exists, so only the
    smoothness constant and the noise level are reported.
    """

    features: Array
    labels: Array
    group_of: Array  # 0 = slow, 1 = fast, per sample
    group_weights: tuple[float, float]
    num_classes: int
    noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "features", _freeze(np.atleast_2d(self.features)))
        object.__setattr__(self, "labels", _read_only(np.asarray(self.labels, dtype=np.int64)))
        object.__setattr__(self, "group_of", _read_only(np.asarray(self.group_of, dtype=np.int64)))
        object.__setattr__(self, "group_weights", tuple(float(w) for w in self.group_weights))
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.group_of.shape != (n,):
            raise InvalidConfigError("labels and group tags must have one entry per sample")
        if self.num_classes < 2 or self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise InvalidConfigError("labels must index into num_classes >= 2")
        if set(np.unique(self.group_of)) - {0, 1}:
            raise InvalidConfigError("group tags must be 0 (slow) or 1 (fast)")
        if abs(sum(self.group_weights) - 1.0) > 1e-12 or min(self.group_weights) <= 0:
            raise InvalidConfigError("group weights must be positive and sum to 1")
        self._check_noise_sigma()
        groups = []
        for c in (0, 1):
            rows = np.flatnonzero(self.group_of == c)
            labels = self.labels[rows]
            groups.append(
                _Group(
                    rows=_read_only(rows),
                    picks=_read_only(rows * self.num_classes + labels),
                    onehot=_read_only(np.eye(self.num_classes)[labels]),
                    features=_read_only(self.features[rows]),
                )
            )
        object.__setattr__(self, "_groups", tuple(groups))
        object.__setattr__(self, "_memo", (b"", None, None, {}))

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def dim(self) -> int:
        return self.num_classes * self.feature_dim

    def _log_softmax(self, x: Array) -> Array:
        weights = x.reshape(self.num_classes, self.feature_dim)
        out = self.features @ weights.T  # the logits, shifted and normalized in place
        # The row max taken down the contiguous transpose: a reduction along
        # a short inner axis costs several times more, and a max rounds
        # nothing.  The sum stays along axis 1: its pairwise order sets the bits.
        out -= np.ascontiguousarray(out.T).max(axis=0)[:, None]
        out -= np.log(np.exp(out).sum(axis=1, keepdims=True))
        return out

    def _memo_at(self, x: Array) -> tuple[bytes, Array, Array, dict[int, Array]]:
        """The memo of x: its key, the read-only log-probabilities and
        probabilities over all samples, and the group gradients taken at x.

        Only the last point is kept, keyed on its exact bytes: a step's
        monitoring re-evaluates the point the previous dispatch just
        differentiated at, and reuses that dispatch's group gradient.
        """
        key = x.tobytes()
        memo = self._memo
        if memo[0] != key:
            log_probs = self._log_softmax(x)
            memo = (key, _read_only(log_probs), _read_only(np.exp(log_probs)), {})
            object.__setattr__(self, "_memo", memo)
        return memo

    def loss(self, x: Array) -> float:
        x = _check_dim(x, self.dim)
        log_probs = self._memo_at(x)[1].ravel()
        # sum / n is the bits of .mean(), without its Python-level overhead
        return float(
            sum(
                w * ((-log_probs.take(g.picks)).sum() / g.rows.shape[0])
                for g, w in zip(self._groups, self.group_weights)
            )
        )

    def component_grad(self, x: Array, component: int) -> Array:
        x = _check_dim(x, self.dim)
        _, _, probs, grads = self._memo_at(x)
        if component not in grads:
            grads[component] = _read_only(self._group_grad(probs, component))
        return grads[component]

    def _group_grad(self, probs: Array, component: int) -> Array:
        g = self._groups[component]
        residual = probs.take(g.rows, axis=0)
        residual -= g.onehot  # p − 0.0 is p; p − 1.0 at the label
        return (residual.T @ g.features / g.rows.shape[0]).ravel()

    def grad(self, x: Array) -> Array:
        out = np.zeros(self.dim)
        for c, w in enumerate(self.group_weights):
            out += w * self.component_grad(x, c)
        return out

    def predictions(self, x: Array) -> Array:
        x = _check_dim(x, self.dim)
        weights = x.reshape(self.num_classes, self.feature_dim)
        return np.argmax(self.features @ weights.T, axis=1)

    def theory_constants(self, x_init: Array | None = None) -> TheoryConstants:
        max_row_sq = float(np.max(np.sum(np.square(self.features), axis=1)))
        frac = (self.num_classes - 1) / self.num_classes
        return TheoryConstants(
            lipschitz=frac * max_row_sq,
            sigma=self.noise_sigma,
            sigma_l=None,
            delta_gap=None,
            minimizer=None,
            f_star=None,
        )


def make_logistic(
    num_classes: int,
    feature_dim: int,
    num_samples: int,
    slow_weight: float,
    noise_sigma: float = 0.0,
) -> Logistic:
    """Generate a Gaussian-blob classification dataset.

    Class means are 2·N(0, I) draws from seed 0, and each sample adds N(0, I)
    to its class mean.  The slow group holds round(n·slow_weight) samples,
    all from the last class (the rare, hard class); the fast group cycles
    over the others.
    """
    if num_classes < 2:
        raise InvalidConfigError("need at least two classes", field="objective.classes")
    rng = np.random.default_rng(0)
    means = 2.0 * rng.standard_normal((num_classes, feature_dim))
    n_slow = max(1, round(num_samples * slow_weight))
    if n_slow >= num_samples:
        raise InvalidConfigError("slow group would swallow the dataset", field="objective.samples")
    labels = np.concatenate(
        [
            np.full(n_slow, num_classes - 1),
            np.arange(num_samples - n_slow) % (num_classes - 1),
        ]
    )
    groups = np.concatenate([np.zeros(n_slow, np.int64), np.ones(num_samples - n_slow, np.int64)])
    features = means[labels] + rng.standard_normal((num_samples, feature_dim))
    return Logistic(
        features=features,
        labels=labels,
        group_of=groups,
        group_weights=(slow_weight, 1.0 - slow_weight),
        num_classes=num_classes,
        noise_sigma=noise_sigma,
    )


#: largest ``dim`` a config may ask for: each d×d float64 curvature matrix then
#: takes at most 128 MiB (a mixture holds three: both components and their
#: mean), and a larger one is refused before it is allocated.  A logistic
#: dataset gets the same budget of MAX_DIM² floats per per-sample array.
MAX_DIM = 4096


def _dimension(value: Any, field: str) -> int:
    if integer_at_least(value, field, 1) > MAX_DIM:
        raise InvalidConfigError(f"must be between 1 and {MAX_DIM}, got {value}", field=field)
    return value


_QUADRATIC_KEYS = frozenset({"dim", "curvature", "offset", "minimizer"})
#: the keys each family reads, besides ``family``, ``noise_sigma``, ``dim`` and ``domain``
_FAMILY_KEYS = {
    "quadratic": _QUADRATIC_KEYS,
    "mixture": frozenset({"components"}),
    "nonconvex": _QUADRATIC_KEYS | {"squash_scale"},
    "logistic": frozenset({"classes", "feature_dim", "samples"}),
}


def _quadratic_from_spec(
    spec: Mapping[str, Any], noise_sigma: float, path: str = "objective"
) -> Quadratic:
    """A quadratic from ``offset``, from ``minimizer`` (b = A·minimizer), or zero b of ``dim``."""
    if "offset" in spec and "minimizer" in spec:
        raise InvalidConfigError("give offset or minimizer, not both", field=f"{path}.minimizer")
    curvature = finite_vector(spec.get("curvature", 1.0), f"{path}.curvature")
    dim = None if spec.get("dim") is None else _dimension(spec["dim"], f"{path}.dim")
    key = "offset" if "offset" in spec else "minimizer" if "minimizer" in spec else None
    if key is not None:
        vector = finite_list(spec[key], f"{path}.{key}")
        if dim is not None and vector.shape != (dim,):
            raise InvalidConfigError(f"{key} has {vector.size} entries, not {dim}", field=f"{path}.dim")
    elif dim is not None:
        vector = np.zeros(dim)
    else:
        raise InvalidConfigError("quadratic needs offset, minimizer, or dim", field=path)
    with blame(f"{path}.curvature"):  # the shape and definiteness checks name no field
        matrix = _as_matrix(curvature, vector.shape[0])
        offset = vector
        if key == "minimizer":
            with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
                offset = matrix @ vector
            if not np.all(np.isfinite(offset)):
                raise InvalidConfigError("curvature·minimizer overflows", field=f"{path}.minimizer")
        return Quadratic(matrix=matrix, offset=offset, noise_sigma=noise_sigma)


def from_spec(spec: Mapping[str, Any], slow_weight: float):
    """Build an objective from its config-document form.

    ``slow_weight`` comes from the delay section and weighs the slow
    component of a mixture and the slow group of the logistic family, so
    the objective's weights are the realized sampling proportions.
    """
    family = spec.get("family")
    if not isinstance(family, str) or family not in _FAMILY_KEYS:
        raise InvalidConfigError(f"unknown objective family {family!r}", field="objective.family")
    known_keys(spec, _FAMILY_KEYS[family] | {"family", "noise_sigma", "dim", "domain"}, "objective")
    noise_sigma = finite_number(spec.get("noise_sigma", 0.0), "objective.noise_sigma")
    if family == "quadratic":
        return _quadratic_from_spec(spec, noise_sigma)
    if family == "mixture":
        raw = spec.get("components")
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise InvalidConfigError(
                "a mixture has exactly two components, slow then fast", field="objective.components"
            )
        for i, c in enumerate(raw):
            known_keys(c, _QUADRATIC_KEYS, f"objective.components.{i}")
        components = tuple(
            _quadratic_from_spec(c, 0.0, f"objective.components.{i}") for i, c in enumerate(raw)
        )
        return Mixture(components, (slow_weight, 1.0 - slow_weight), noise_sigma)
    if family == "nonconvex":
        base = _quadratic_from_spec(spec, 0.0)
        return NonconvexQuadratic(
            base=base,
            squash_scale=finite_number(spec.get("squash_scale", 1.0), "objective.squash_scale"),
            noise_sigma=noise_sigma,
        )
    classes = integer_at_least(spec.get("classes", 3), "objective.classes", 2)
    feature_dim = integer_at_least(spec.get("feature_dim", 4), "objective.feature_dim", 1)
    samples = integer_at_least(spec.get("samples", 200), "objective.samples", 1)
    if classes * feature_dim > MAX_DIM:
        raise InvalidConfigError(
            f"classes·feature_dim must be at most {MAX_DIM}", field="objective.feature_dim"
        )
    if samples * max(classes, feature_dim) > MAX_DIM**2:
        raise InvalidConfigError(
            f"samples·max(classes, feature_dim) must be at most {MAX_DIM**2}",
            field="objective.samples",
        )
    return make_logistic(classes, feature_dim, samples, slow_weight, noise_sigma)


def domain_from_spec(spec: Mapping[str, Any]) -> BallDomain | None:
    """Read the optional feasible-ball description out of an objective spec."""
    raw = spec.get("domain")
    if raw is None:
        return None
    known_keys(raw, ("center", "radius"), "objective.domain")
    if "radius" not in raw:
        raise InvalidConfigError("domain needs a radius", field="objective.domain.radius")
    dim = spec.get("dim")
    center = raw.get("center")
    if center is None:
        if dim is None:
            raise InvalidConfigError(
                "domain needs an explicit center when the objective has no dim field",
                field="objective.domain.center",
            )
        center = np.zeros(_dimension(dim, "objective.dim"))
    return BallDomain(
        center=finite_list(center, "objective.domain.center"),
        radius=finite_number(raw["radius"], "objective.domain.radius"),
    )
