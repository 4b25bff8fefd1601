"""The 32 settable keys of a config document, one row each, and the walker that checks them.

A row of :data:`KEYS` gives a key's dotted path, its kind, its default, and
the families or methods that read it (none named: every run, or the
commands).  Each mapping of a document is walked by what reads it:
``SimConfig`` the optimizer (by its method), delay and run sections,
``objectives.from_spec`` the objective (by its family), ``domain_from_spec``
its domain, ``config.ExperimentConfig.from_document`` the rest.  A rule relating two values
(iterations at least workers, offset or minimizer, ...) is checked where the
two meet.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import InvalidConfigError
from .optimizers import METHOD_TABLE, METHODS

#: largest ``dim``, worker count and list axis a config may ask for: a dense
#: (nested-list) d×d float64 curvature then takes at most 128 MiB (a dense
#: mixture holds three: both components and their mean), and a larger one is
#: refused before it is allocated; a number or a diagonal is kept as a
#: d-vector.  A logistic dataset, each T-long column of a run and its
#: snapshot rows (T's included) get the same budget of MAX_DIM² floats.
MAX_DIM = 4096

#: largest ball radius: v·v stays finite for every offset v inside the ball
MAX_RADIUS = 1e150

FAMILIES = ("quadratic", "mixture", "nonconvex", "logistic")

#: the run metrics a sweep can report, in ``runs.csv`` column order
METRICS = ("final_loss", "final_excess", "final_distance", "avg_sq_grad_norm")

#: what reads the quadratic keys of each of a mixture's ``components``
COMPONENT = "mixture component"

#: the sections a run reads; the commands read ``sweep``, ``output`` and ``report``
RUN_SECTIONS = ("objective", "optimizer", "delay", "run")


def _only_numbers(value: Any) -> bool:
    """False if ``value`` holds a bool or a string (``float`` reads both) or a non-numeric array."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return all(map(_only_numbers, value))
    return not isinstance(value, (bool, np.bool_, str, bytes))


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


# -- kinds: each checks one value and returns it as the builders take it


@dataclass(frozen=True)
class Of:
    """A value of ``type``, and not an empty string: a flag, a directory, a grid
    (which of its paths are axes is ``config``'s rule)."""

    type: type
    message: str

    def check(self, value: Any, field: str) -> Any:
        if not isinstance(value, self.type) or value == "":
            raise InvalidConfigError(self.message, field=field)
        return value


FLAG = Of(bool, "must be true or false")  # so quoted "no" is not read as a flag


@dataclass(frozen=True)
class Integer:
    """An int (not a bool, nor ``3.0``) of at least ``low``, and at most ``high`` if given."""

    low: int
    high: int | None = None

    def check(self, value: Any, field: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidConfigError("must be an integer", field=field)
        if self.high is None and value < self.low:
            raise InvalidConfigError(f"must be >= {self.low}", field=field)
        if self.high is not None and not self.low <= value <= self.high:
            raise InvalidConfigError(f"must be between {self.low} and {self.high}, got {value}", field=field)
        return value


@dataclass(frozen=True)
class Number:
    """A float between ``low`` and ``high``, each end open unless closed; NaN and ±inf fall outside."""

    low: float
    high: float = math.inf
    low_closed: bool = False
    high_closed: bool = False

    def check(self, value: Any, field: str) -> float:
        try:
            if not _only_numbers(value):
                raise TypeError
            out = float(value)
        except (TypeError, ValueError, OverflowError):
            raise InvalidConfigError(f"must be a number, got {value!r}", field=field) from None
        above = self.low < out or (self.low_closed and out == self.low)
        below = out < self.high or (self.high_closed and out == self.high)
        if not (above and below):
            low, high = "[" if self.low_closed else "(", "]" if self.high_closed else ")"
            raise InvalidConfigError(f"must be in {low}{self.low:g}, {self.high:g}{high}, got {out!r}", field=field)
        return out


@dataclass(frozen=True)
class Numbers:
    """A non-empty flat list of finite numbers; with ``matrix``, a finite number, list
    or list of rows (a curvature, whose shape the objective's dimension decides).
    No axis is longer than :data:`MAX_DIM`."""

    matrix: bool = False

    def check(self, value: Any, field: str) -> np.ndarray:
        try:
            if not _only_numbers(value):
                raise TypeError
            out = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise InvalidConfigError(f"must be a list of numbers, got {value!r}", field=field) from None
        if not np.all(np.isfinite(out)):
            if None in np.asarray(value, dtype=object).ravel().tolist():  # read as NaN above
                raise InvalidConfigError("an entry is null, not a number", field=field)
            raise InvalidConfigError("entries must be finite", field=field)
        if self.matrix and out.ndim > 2:
            raise InvalidConfigError("must be a number, a list of numbers or a list of rows", field=field)
        if not self.matrix and (out.ndim != 1 or out.size == 0):
            raise InvalidConfigError("must be a non-empty list of numbers", field=field)
        if max(out.shape, default=0) > MAX_DIM:
            raise InvalidConfigError(f"must hold at most {MAX_DIM} entries per axis", field=field)
        return out


@dataclass(frozen=True)
class Choice:
    options: tuple[str, ...]

    def check(self, value: Any, field: str) -> str:
        if not isinstance(value, str) or value not in self.options:
            raise InvalidConfigError(f"must be one of {', '.join(self.options)}, got {value!r}", field=field)
        return value


@dataclass(frozen=True)
class Components:
    """Two mappings, slow then fast, of the keys a :data:`COMPONENT` reads."""

    def check(self, value: Any, field: str) -> tuple[dict, ...]:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise InvalidConfigError("a mixture has exactly two components, slow then fast", field=field)
        return tuple(walk(item, "objective", COMPONENT, f"{field}.{i}") for i, item in enumerate(value))


# -- the table

#: the default of a key that must be given (where its readers read it)
REQUIRED = "required"


@dataclass(frozen=True)
class Key:
    """One settable key; ``default`` None: it has none, and is absent unless given."""

    path: str
    kind: Any
    default: Any = None
    readers: tuple[str, ...] = ()


def _methods(reads) -> tuple[str, ...]:
    return tuple(method for method, row in METHOD_TABLE.items() if reads(row))


_QUADRATIC = ("quadratic", "nonconvex", COMPONENT)

KEYS = (
    Key("objective.family", Choice(FAMILIES), REQUIRED, FAMILIES),
    Key("objective.dim", Integer(1, MAX_DIM), None, FAMILIES + (COMPONENT,)),
    Key("objective.curvature", Numbers(matrix=True), 1.0, _QUADRATIC),
    Key("objective.minimizer", Numbers(), None, _QUADRATIC),
    Key("objective.offset", Numbers(), None, _QUADRATIC),
    Key("objective.components", Components(), REQUIRED, ("mixture",)),
    Key("objective.squash_scale", Number(0.0), 1.0, ("nonconvex",)),
    Key("objective.classes", Integer(2, MAX_DIM), 3, ("logistic",)),
    Key("objective.feature_dim", Integer(1, MAX_DIM), 4, ("logistic",)),
    Key("objective.samples", Integer(1, MAX_DIM**2), 200, ("logistic",)),
    Key("objective.noise_sigma", Number(0.0, low_closed=True), 0.0, FAMILIES),
    Key("objective.domain.center", Numbers(), None, FAMILIES),  # none given: zeros of dim
    Key("objective.domain.radius", Number(0.0, MAX_RADIUS, high_closed=True), REQUIRED, FAMILIES),
    Key("optimizer.method", Choice(METHODS), REQUIRED),
    Key("optimizer.theory", FLAG, False, _methods(lambda row: row.theory)),
    Key("optimizer.eta", Number(0.0), None, _methods(lambda row: "eta" in row.takes)),
    Key("optimizer.beta", Number(0.0, 1.0), None, _methods(lambda row: "beta" in row.takes)),
    Key("optimizer.gamma", Number(0.0, 1.0, high_closed=True), None, _methods(lambda row: "gamma" in row.takes)),
    Key("optimizer.tau_filter", Number(0.0), None, _methods(lambda row: "tau_filter" in row.takes)),
    Key("delay.slow_weight", Number(0.0, 1.0), 0.1),
    Key("run.workers", Integer(1, MAX_DIM), REQUIRED),
    Key("run.iterations", Integer(1, MAX_DIM**2), REQUIRED),
    Key("run.seed", Integer(0), 0),
    Key("run.snapshot_stride", Integer(1)),
    Key("run.record_gradients", FLAG, False),
    Key("run.x_init", Numbers()),
    Key("sweep.grid", Of(Mapping, "must map dotted paths to value lists")),
    Key("sweep.seeds.base", Integer(0)),  # none given: run.seed
    Key("sweep.seeds.count", Integer(1, MAX_DIM**2), 1),
    Key("sweep.parallelism", Integer(1), 1),
    Key("output.dir", Of(str, "must be a nonempty path"), "results"),
    Key("report.metric", Choice(METRICS)),  # none given: the family's (cli._select_metric)
)

_ROW = {key.path: key for key in KEYS}


def _children() -> dict[str, dict[str, Key | str]]:
    """Each mapping's path ('' for the document) -> its keys by name, and the paths of its mappings."""
    children: dict[str, dict[str, Key | str]] = {}
    for key in KEYS:
        parts = key.path.split(".")
        for depth in range(1, len(parts)):
            inner = children.setdefault(".".join(parts[: depth - 1]), {})
            inner.setdefault(parts[depth - 1], ".".join(parts[:depth]))
        children.setdefault(".".join(parts[:-1]), {})[parts[-1]] = key
    return children


_CHILDREN = _children()


def _reads(row: Key | str, reader: str | None) -> bool:
    """Whether ``reader`` reads the key, or a key of the mapping at path ``row``."""
    if isinstance(row, str):
        return any(_reads(key, reader) for key in KEYS if key.path.startswith(row + "."))
    return reader is None or not row.readers or reader in row.readers


def walk(node: Any, prefix: str, reader: str | None = None, field: str | None = None) -> dict:
    """Check the mapping ``node`` of the keys and mappings under ``prefix`` that ``reader``
    reads in one pass, in table order: refused on its dotted path (``field``, when errors
    name another one) if it is not a mapping, or has an unknown key, a required key or
    section missing (a section is required when a key directly in it is) or a bad value;
    else each value returned as the builders take it.  A default fills each key left out,
    and ``null`` leaves out one that has none.  A mapping inside ``node`` is returned as
    given once checked to be one (what reads it walks it), and the document as it was:
    ``config_hash`` reads it.
    """
    field = prefix if field is None else field
    rows = {name: _CHILDREN[prefix][name] for name in names(prefix, reader)}
    if not isinstance(node, Mapping):
        raise InvalidConfigError(f"must be a mapping of {', '.join(rows)}", field=field)
    unknown = sorted(set(node) - set(rows), key=str)
    if unknown:
        message = f"unknown key; expected one of {', '.join(rows)}"
        raise InvalidConfigError(message, field=f"{field}.{unknown[0]}" if field else str(unknown[0]))
    out = {}
    for name, row in rows.items():
        path, value = f"{field}.{name}" if field else name, node.get(name)
        if isinstance(row, str):
            if value is not None:
                if not isinstance(value, Mapping):
                    walk(value, row, reader, path)  # refuses it, naming the keys it may hold
                out[name] = value
            elif not prefix and any(getattr(key, "default", None) is REQUIRED for key in _CHILDREN[row].values()):
                raise InvalidConfigError("section is required", field=path)
        elif value is None and row.default is REQUIRED:
            raise InvalidConfigError("value is required", field=path)
        elif value is not None or (name in node and row.default is not None):
            out[name] = row.kind.check(value, path)  # null refused where there is a default
        elif row.default is not None:
            out[name] = row.default
    return out


def names(prefix: str, reader: str | None = None) -> tuple[str, ...]:
    """The names of the keys and mappings directly under ``prefix`` that ``reader`` reads, in table order."""
    return tuple(name for name, row in _CHILDREN[prefix].items() if _reads(row, reader))


def check(path: str, value: Any) -> Any:
    """``value`` checked by the kind of the key at ``path``."""
    return _ROW[path].kind.check(value, path)
