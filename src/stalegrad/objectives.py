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
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Mapping, NamedTuple

import numpy as np

from . import schema
from .errors import ContractViolationError, InvalidConfigError
from .schema import MAX_DIM, MAX_RADIUS, blame

Array = np.ndarray

#: component tags used by the delay model and recorded in traces
SLOW, FAST = "slow", "fast"
#: the component index a tag selects: a mixture's component or a logistic
#: group; the single-component families ignore it
COMPONENT_INDEX = {SLOW: 0, FAST: 1}


def _read_only(a: Array) -> Array:
    """Mark ``a`` read-only in place, as every array an objective keeps is."""
    a.setflags(write=False)
    return a


def _freeze(a: Array) -> Array:
    """A read-only float64 copy of ``a``."""
    return _read_only(np.array(a, dtype=np.float64))


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
        if not 0 < self.radius <= MAX_RADIUS:
            raise InvalidConfigError(f"must be in (0, {MAX_RADIUS:g}]", field="objective.domain.radius")

    @cached_property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, x: Array, tol: float = 1e-12) -> bool:
        # an offset whose squared norm overflows is outside, as project measures it
        with np.errstate(over="ignore"):
            return euclidean_norm((np.asarray(x) - self.center).ravel()) <= self.radius + tol

    def project(self, x: Array) -> Array:
        """Orthogonal projection: x itself inside the ball, else radial scaling.

        The scale factor is re-tightened against the *original* offset until
        rounding leaves the point genuinely inside, and it strictly decreases
        every pass (the ``nextafter`` floor), so the loop always terminates —
        even when the ball is many orders of magnitude smaller than its
        center coordinates.  The output satisfies the same containment test
        the identity branch uses, which makes the projection exactly
        idempotent.  A point so far out that ‖offset‖² overflows is scaled by
        its largest entry first; ``vdot`` gives ``euclidean_norm``'s bits
        without numpy's overflow warning.
        """
        out = _check_dim(x, self.dim)
        offset = out - self.center
        dist = math.sqrt(np.vdot(offset, offset))
        if dist <= self.radius:
            return out
        if dist == math.inf:
            top = float(np.abs(offset).max())
            scale = self.radius / top / euclidean_norm(offset / top)
        else:
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

    # subclasses provide: dim, noise_sigma (nonnegative), component_grad

    @cached_property
    def _noise_scale(self) -> float:
        return self.noise_sigma / math.sqrt(self.dim)

    def _noise(self, rng: np.random.Generator) -> Array:
        # one call, with the values and generator state of scale·standard_normal(dim)
        if self.noise_sigma == 0.0:
            return np.zeros(self.dim)
        return rng.normal(0.0, self._noise_scale, self.dim)

    def stochastic_grad(self, x: Array, component: int, rng: np.random.Generator) -> Array:
        """One noisy gradient at x for the given (already drawn) component."""
        return self.component_grad(x, component) + self._noise(rng)

    def stochastic_grad_pair(
        self, x: Array, x_prev: Array, component: int, rng: np.random.Generator
    ) -> tuple[Array, Array]:
        """Gradients at x and x_prev sharing one sample (component and noise).

        x_prev goes first: it is the point the previous dispatch evaluated
        last, so the logistic memo still holds it.
        """
        noise = self._noise(rng)
        g_prev = self.component_grad(x_prev, component) + noise
        return self.component_grad(x, component) + noise, g_prev


def _as_curvature(curvature: Any, dim: int) -> Array:
    """A scalar or diagonal curvature as its length-dim diagonal, a full one as its dim×dim matrix."""
    a = np.asarray(curvature, dtype=np.float64)
    if a.ndim == 0:
        a = np.full(dim, float(a))
    elif a.ndim == 1:
        if a.shape != (dim,):
            raise InvalidConfigError(f"diagonal curvature needs {dim} entries, got {a.shape[0]}")
    elif a.shape != (dim, dim):
        raise InvalidConfigError(f"curvature matrix must be {dim}x{dim}, got {a.shape}")
    return a


@dataclass(frozen=True)
class Quadratic(_NoiseModel):
    """f(x) = ½xᵀAx − bᵀx with symmetric positive definite A.

    ``curvature`` keeps a scalar or diagonal A as its diagonal a: Ax is
    ``a * x``, λ_min and λ_max are ``min`` and ``max`` and the minimizer is
    ``b / a`` (the dense path's bits for diag(a), up to the sign of an exact
    zero), with no ``numpy.linalg`` call and no d×d array.  A full A is
    checked for symmetry and decomposed once with ``eigvalsh``.  Either way
    ``max_eigenvalue`` is λ_max(A), and ``matrix`` builds the dense A on
    demand for reference code.

    ``grad`` computes Ax − b afresh at every call, and the array is the caller's.
    """

    curvature: Array
    offset: Array
    noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "offset", _freeze(np.atleast_1d(self.offset)))
        a = _freeze(_as_curvature(self.curvature, self.offset.shape[0]))
        object.__setattr__(self, "curvature", a)
        if a.ndim == 1:
            low, high = a.min(), a.max()
        elif not np.allclose(a, a.T, rtol=0, atol=1e-12):
            raise InvalidConfigError("curvature matrix must be symmetric")
        else:
            low, high = np.linalg.eigvalsh(a)[[0, -1]]
        if not low > 0:  # a NaN diagonal fails too
            raise InvalidConfigError("curvature matrix must be positive definite")
        object.__setattr__(self, "max_eigenvalue", float(high))

    @cached_property
    def dim(self) -> int:
        return self.offset.shape[0]

    @property
    def matrix(self) -> Array:
        a = self.curvature
        return np.diag(a) if a.ndim == 1 else a

    @cached_property
    def _times(self):
        """x ↦ Ax: ``a * x``, or ``ndarray.dot`` (not @: no matmul dispatch cost) for a matrix."""
        a = self.curvature
        return a.__mul__ if a.ndim == 1 else a.dot

    def loss(self, x: Array) -> float:
        x = _check_dim(x, self.dim)
        return 0.5 * float(x.dot(self._times(x))) - float(self.offset.dot(x))

    def grad(self, x: Array) -> Array:
        return self._times(_check_dim(x, self.dim)) - self.offset

    def component_grad(self, x: Array, component: int) -> Array:
        return self.grad(x)

    @cached_property
    def minimizer(self) -> Array:
        a = self.curvature
        return _freeze(self.offset / a if a.ndim == 1 else np.linalg.solve(a, self.offset))

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

    A weighted sum of quadratics is itself one: ``curvature`` Ā = Σ q_c A_c
    and ``offset`` b̄ = Σ q_c b_c, summed once and not checked again, go
    through :class:`Quadratic`'s own ``loss``, gradient and minimizer code,
    so monitoring a step costs one product per call, not one per component.
    Ā, and the second moment behind σ_L, are vectors when both components
    are diagonal and d×d matrices otherwise.
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
        curvature = sum(w * a for w, a in zip(self.weights, self._curvatures()))
        offset = sum(w * c.offset for w, c in zip(self.weights, self.components))
        object.__setattr__(self, "curvature", _freeze(curvature))
        object.__setattr__(self, "offset", _freeze(offset))

    dim = Quadratic.dim
    matrix = Quadratic.matrix
    _times = Quadratic._times
    loss = Quadratic.loss
    grad = Quadratic.grad
    minimizer = Quadratic.minimizer

    def _curvatures(self) -> tuple[Array, ...]:
        """The components' curvatures in one form: vectors if both are diagonal, else matrices."""
        if all(c.curvature.ndim == 1 for c in self.components):
            return tuple(c.curvature for c in self.components)
        return tuple(c.matrix for c in self.components)

    def component_grad(self, x: Array, component: int) -> Array:
        return self.components[component].grad(x)

    def theory_constants(self, x_init: Array | None = None) -> TheoryConstants:
        x1 = np.zeros(self.dim) if x_init is None else _check_dim(x_init, self.dim)
        m = self.minimizer

        def weighted_loss(x: Array) -> float:
            # f* and the initial gap sum the component losses, as the mixture
            # is defined: Ā and b̄ round differently, and these two
            # set the theory-derived step sizes.
            return float(sum(w * c.loss(x) for w, c in zip(self.weights, self.components)))

        f_star = weighted_loss(m)
        # The sample functions must be as smooth as the mean, so the
        # certificate is the largest component curvature (it dominates the
        # weighted average).
        lipschitz = max(c.max_eigenvalue for c in self.components)
        curvatures = self._curvatures()
        sigma: float | None = None
        if all(np.allclose(a, curvatures[0], rtol=0, atol=1e-12) for a in curvatures):
            # Component gradients then differ from the mean by the constant
            # b̄ − b_c, so the gradient variance is the same at every x.
            spread = sum(
                w * euclidean_norm(c.offset - self.offset) ** 2
                for w, c in zip(self.weights, self.components)
            )
            sigma = math.sqrt(self.noise_sigma**2 + spread)
        # σ_L² = λ_max(Σ q_c (A_c − Ā)²); a diagonal's square and top eigenvalue are elementwise
        diagonal = self.curvature.ndim == 1
        second_moment = np.zeros(self.curvature.shape)
        for w, a in zip(self.weights, curvatures):
            diff = a - self.curvature
            second_moment += w * (diff * diff if diagonal else diff @ diff)
        top = second_moment.max() if diagonal else np.linalg.eigvalsh(second_moment)[-1]
        sigma_l = math.sqrt(max(0.0, float(top)))
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
class NonconvexQuadratic(Quadratic):
    """A quadratic plus a bounded coordinatewise distortion.

    f(x) = ½xᵀAx − bᵀx + scale·Σᵢ s(xᵢ − mᵢ) with s(u) = u²/(1+u²) and m the
    quadratic's minimizer.  Both terms are minimized at m, so the global
    minimizer and f* stay in closed form, and since s'' ∈ [−½, 2] with
    s''(0) = 2 the gradient-Lipschitz constant is exactly
    λ_max(A) + 2·scale (attained at m).  The quadratic part's gradient is
    :class:`Quadratic`'s.
    """

    squash_scale: float = field(kw_only=True)  # positive

    def loss(self, x: Array) -> float:
        return super().loss(x) + self.squash_scale * float(np.sum(squash(x - self.minimizer)))

    def grad(self, x: Array) -> Array:
        return super().grad(x) + self.squash_scale * squash_deriv(x - self.minimizer)

    def theory_constants(self, x_init: Array | None = None) -> TheoryConstants:
        # the squash term is 0 at m, so f* is the quadratic's
        return replace(super().theory_constants(x_init), lipschitz=self.max_eigenvalue + 2.0 * self.squash_scale)


def _row_sums(a: Array) -> Array:
    """Column sums of a C×n array, each the bits of numpy's sum of a row of C:
    numpy adds fewer than 8 values in order, and from 8 on (pairwise) these
    are its own sums over a contiguous n×C copy."""
    if a.shape[0] < 8:
        return a.sum(axis=0)
    return np.ascontiguousarray(a.T).sum(axis=1)


class _Group(NamedTuple):
    """One sample group, with sample indices ``rows``, precomputed once per objective."""

    picks: Array  # labels[rows]·n + rows: each row's true class in the flat class-major C×n array
    cells: Array  # n_g×C, rows + n·class: each row's classes in that flat array
    onehot: Array  # n_g×C, 1.0 at each row's label
    features: Array  # features[rows]


@dataclass(frozen=True)
class Logistic(_NoiseModel):
    """Multinomial cross-entropy over a fixed dataset split into two groups.

    Parameters are a flattened C×d weight matrix.  The loss is the
    group-weighted mean of per-group mean losses, the slow group weighted by
    the delay model's q₁ (see ``from_spec``).

    The documented smoothness bound is L = (C−1)/C · maxᵢ‖φᵢ‖²: every
    per-sample Hessian is (diag(p) − ppᵀ) ⊗ φφᵀ and λ_max(diag(p) − ppᵀ)
    ≤ ½ ≤ (C−1)/C for C ≥ 2.  No closed-form minimizer exists, so only the
    smoothness constant and the noise level are reported.

    The memo keeps the last point, keyed on its exact bytes, with the
    read-only softmax and group gradients evaluated there.  A step's monitor
    re-evaluates the point the last dispatch took, and a paired dispatch
    takes x_prev, that point, first: so a run computes one softmax per new
    point (9,388 for the 10,028 dispatches of ``logistic_battery``).
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
        slow = self.group_of == 0  # elementwise: np.unique would import all of numpy.ma
        if not np.all(slow | (self.group_of == 1)):
            raise InvalidConfigError("group tags must be 0 (slow) or 1 (fast)")
        if slow.all() or not slow.any():
            raise InvalidConfigError("each group must hold at least one sample")
        if self.num_classes < 2 or self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise InvalidConfigError("labels must index into num_classes >= 2")
        if abs(sum(self.group_weights) - 1.0) > 1e-12 or min(self.group_weights) <= 0:
            raise InvalidConfigError("group weights must be positive and sum to 1")
        groups = []
        for c in (0, 1):
            rows = np.flatnonzero(self.group_of == c)
            labels = self.labels[rows]
            groups.append(
                _Group(
                    picks=_read_only(labels * n + rows),
                    cells=_read_only(rows[:, None] + n * np.arange(self.num_classes)),
                    onehot=_read_only(np.eye(self.num_classes)[labels]),
                    features=_read_only(self.features[rows]),
                )
            )
        object.__setattr__(self, "_groups", tuple(groups))

    _memo = (None, None)  # (key, values), unannotated so not a field; a new point replaces it whole

    def _values_at(self, x: Array) -> dict:
        """The memo's values at x: those of the last point if x has its bytes, else a new dict."""
        key = x.tobytes()
        memo = self._memo  # read once: another thread may replace it
        if memo[0] != key:
            memo = (key, {})
            object.__setattr__(self, "_memo", memo)
        return memo[1]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def dim(self) -> int:
        return self.num_classes * self.feature_dim

    def _log_softmax(self, x: Array) -> tuple[Array, Array]:
        """The class-major C×n log-probabilities and probabilities at x.

        The logits product keeps the n×C BLAS layout that sets its bits; its
        transpose is copied once, so the max, the shift and the normalizer's
        subtraction run along the samples, and its exponentials become the probabilities.
        """
        weights = x.reshape(self.num_classes, self.feature_dim)
        out = np.ascontiguousarray(self.features.dot(weights.T).T)  # shifted and normalized in place
        out -= out.max(axis=0)
        probs = np.exp(out)
        out -= np.log(_row_sums(probs))
        return out, np.exp(out, out=probs)

    def _softmax(self, values: dict, x: Array) -> tuple[Array, Array]:
        """The read-only softmax pair at x, kept in ``values``, x's memo."""
        if "softmax" not in values:
            values["softmax"] = tuple(_read_only(a) for a in self._log_softmax(x))
        return values["softmax"]

    def loss(self, x: Array) -> float:
        x = _check_dim(x, self.dim)
        log_probs = self._softmax(self._values_at(x), x)[0]
        (g0, g1), (w0, w1) = self._groups, self.group_weights
        # −Σ/n is the bits of (−log p).mean(), as negation commutes with rounding;
        # starting from 0.0, as sum() does, keeps a zero loss at +0.0
        return (
            0.0
            + w0 * (-float(log_probs.take(g0.picks).sum()) / g0.picks.shape[0])
            + w1 * (-float(log_probs.take(g1.picks).sum()) / g1.picks.shape[0])
        )

    def component_grad(self, x: Array, component: int) -> Array:
        x = _check_dim(x, self.dim)
        values = self._values_at(x)
        if component not in values:
            values[component] = _read_only(self._group_grad(self._softmax(values, x)[1], component))
        return values[component]

    def _group_grad(self, probs: Array, component: int) -> Array:
        g = self._groups[component]
        residual = probs.take(g.cells)  # gathered n_g×C, the layout the product reads
        residual -= g.onehot  # p − 0.0 is p; p − 1.0 at the label
        return (residual.T.dot(g.features) / g.picks.shape[0]).ravel()

    def grad(self, x: Array) -> Array:
        w0, w1 = self.group_weights
        return w0 * self.component_grad(x, 0) + w1 * self.component_grad(x, 1)

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


def _quadratic_from_spec(
    values: Mapping[str, Any], noise_sigma: float, path: str = "objective", kind: type = Quadratic, **extra
) -> Quadratic:
    """A ``kind`` of quadratic, given its ``extra`` fields, from checked ``values``: from ``offset``,
    from ``minimizer`` (b = A·minimizer), or a zero b of ``dim``."""
    if "offset" in values and "minimizer" in values:
        raise InvalidConfigError("give offset or minimizer, not both", field=f"{path}.minimizer")
    dim = values.get("dim")
    key = "offset" if "offset" in values else "minimizer" if "minimizer" in values else None
    if key is not None:
        vector = values[key]
        if dim is not None and vector.shape != (dim,):
            raise InvalidConfigError(f"{key} has {vector.size} entries, not {dim}", field=f"{path}.dim")
    elif dim is not None:
        vector = np.zeros(dim)
    else:
        raise InvalidConfigError("quadratic needs offset, minimizer, or dim", field=path)
    with blame(f"{path}.curvature"):  # the shape and definiteness checks name no field
        curvature = _as_curvature(values["curvature"], vector.shape[0])
        offset = vector
        if key == "minimizer":
            with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
                offset = curvature * vector if curvature.ndim == 1 else curvature @ vector
            if not np.all(np.isfinite(offset)):
                raise InvalidConfigError("curvature·minimizer overflows", field=f"{path}.minimizer")
        return kind(curvature=curvature, offset=offset, noise_sigma=noise_sigma, **extra)


def from_spec(spec: Mapping[str, Any], slow_weight: float):
    """Build an objective from its config-document form, checked by ``schema.KEYS``.

    ``slow_weight`` comes from the delay section and weighs the slow
    component of a mixture and the slow group of the logistic family: the
    weights are q₁, not the realized sampling proportions, which the delay
    model's integer waits put above q₁ (see ``delays``; ROADMAP item 19).
    """
    family = schema.check("objective.family", spec.get("family"))
    values = schema.walk(spec, "objective", family)
    noise_sigma = values["noise_sigma"]
    if family == "quadratic":
        return _quadratic_from_spec(values, noise_sigma)
    if family == "mixture":
        components = tuple(
            _quadratic_from_spec(c, 0.0, f"objective.components.{i}") for i, c in enumerate(values["components"])
        )
        with blame("objective.components"):  # components of different dimensions
            return Mixture(components, (slow_weight, 1.0 - slow_weight), noise_sigma)
    if family == "nonconvex":
        return _quadratic_from_spec(values, noise_sigma, kind=NonconvexQuadratic, squash_scale=values["squash_scale"])
    classes, feature_dim, samples = values["classes"], values["feature_dim"], values["samples"]
    if classes * feature_dim > MAX_DIM:
        raise InvalidConfigError(f"classes·feature_dim must be at most {MAX_DIM}", field="objective.feature_dim")
    if samples * max(classes, feature_dim) > MAX_DIM**2:
        message = f"samples·max(classes, feature_dim) must be at most {MAX_DIM**2}"
        raise InvalidConfigError(message, field="objective.samples")
    return make_logistic(classes, feature_dim, samples, slow_weight, noise_sigma)


def domain_from_spec(spec: Mapping[str, Any]) -> BallDomain | None:
    """Read the optional feasible-ball description out of an objective spec."""
    raw = spec.get("domain")
    if raw is None:
        return None
    domain = schema.walk(raw, "objective.domain")
    center = domain.get("center")
    if center is None:
        if spec.get("dim") is None:
            message = "domain needs an explicit center when the objective has no dim field"
            raise InvalidConfigError(message, field="objective.domain.center")
        center = np.zeros(schema.check("objective.dim", spec["dim"]))
    return BallDomain(center=center, radius=domain["radius"])
