"""Config documents: loading, schema checks, and grid expansion.

A document is YAML with nested sections; ``objective``, ``optimizer`` and
``run`` (with ``workers`` and ``iterations``) are required::

    objective:   family + family-specific keys (see objectives.from_spec)
    optimizer:   method, theory, eta, beta, gamma, tau_filter
    delay:       slow_weight (0.1 without a delay section)
    run:         the keys of RUN_FIELDS
    sweep:       grid (dotted path -> list of values), seeds {base, count},
                 parallelism
    output:      dir
    report:      metric

Sweep expansion is deterministic: grid axes in document order, the
cartesian product in row-major order, seeds innermost as base + index, so
every grid point sees the same seed battery.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import yaml

from .errors import InvalidConfigError
from .objectives import integer_at_least, known_keys
from .simulation import DEFAULT_DELAY, SimConfig

#: each key of the run section -> the ``SimConfig`` field it sets
RUN_FIELDS = {
    "workers": "num_workers",
    "iterations": "total_iterations",
    "seed": "seed",
    "snapshot_stride": "snapshot_stride",
    "record_gradients": "record_gradients",
    "x_init": "x_init",
}
#: the sections a run reads, so the only ones a grid axis may vary
_GRID_SECTIONS = {"objective", "optimizer", "delay", "run"}
_SWEEP_KEYS = {"grid", "seeds", "parallelism"}
_SEED_KEYS = {"base", "count"}
_OUTPUT_KEYS = {"dir"}
_REPORT_KEYS = {"metric"}
_TOP_KEYS = _GRID_SECTIONS | {"sweep", "output", "report"}


class _Loader(yaml.SafeLoader):
    """YAML 1.1 safe loading, plus floats written without a dot (``1e-5``).

    YAML 1.1 reads ``1e-5`` as a string, so the same step size given as
    ``1e-5`` and as ``0.00001`` would hash differently.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise InvalidConfigError(str(exc)) from exc
    except yaml.YAMLError as exc:
        raise InvalidConfigError(f"not valid YAML: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise InvalidConfigError("config document must be a mapping of sections")
    return dict(doc)


def _expect_mapping(doc, key: str, required: bool) -> dict:
    if key not in doc:
        if required:
            raise InvalidConfigError("section is required", field=key)
        return {}
    section = doc[key]
    if not isinstance(section, Mapping):
        raise InvalidConfigError("section must be a mapping", field=key)
    return dict(section)


def check_document(doc: Mapping) -> None:
    """Shape-level schema check: known sections and keys, required ones present.

    Values are checked by their consumers; the run fields by ``SimConfig``.
    """
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InvalidConfigError("unknown section", field=sorted(unknown)[0])
    _expect_mapping(doc, "objective", required=True)
    _expect_mapping(doc, "optimizer", required=True)
    _expect_mapping(doc, "delay", required=False)
    run = _expect_mapping(doc, "run", required=True)
    known_keys(run, RUN_FIELDS, "run")
    required = {f.name for f in fields(SimConfig) if f.default is MISSING}  # no default: must be set
    for key, name in RUN_FIELDS.items():
        if name in required and key not in run:
            raise InvalidConfigError("value is required", field=f"run.{key}")
    known_keys(_expect_mapping(doc, "output", required=False), _OUTPUT_KEYS, "output")
    known_keys(_expect_mapping(doc, "report", required=False), _REPORT_KEYS, "report")
    sweep = _expect_mapping(doc, "sweep", required=False)
    known_keys(sweep, _SWEEP_KEYS, "sweep")
    grid = sweep.get("grid", {})
    if not isinstance(grid, Mapping):
        raise InvalidConfigError("must map dotted paths to value lists", field="sweep.grid")
    for path, values in grid.items():
        if str(path).split(".")[0] not in _GRID_SECTIONS:
            message = f"a grid axis varies a key of {', '.join(sorted(_GRID_SECTIONS))}"
            raise InvalidConfigError(message, field=f"sweep.grid.{path}")
        if path == "run.seed":
            message = "seeds come from sweep.seeds, not a grid axis"
            raise InvalidConfigError(message, field="sweep.grid.run.seed")
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)) or not values:
            raise InvalidConfigError(
                "axis must be a nonempty list", field=f"sweep.grid.{path}"
            )
    known_keys(sweep.get("seeds") or {}, _SEED_KEYS, "sweep.seeds")


def parse_sim_config(doc: Mapping) -> SimConfig:
    check_document(doc)
    return SimConfig(
        objective=dict(doc["objective"]),
        optimizer=dict(doc["optimizer"]),
        delay=dict(doc.get("delay") or DEFAULT_DELAY),
        **{RUN_FIELDS[key]: value for key, value in doc["run"].items()},
    )


def apply_override(doc: Mapping, dotted_path: str, value) -> dict:
    """A new document with ``value`` at the dotted path; only the mappings on it are copied."""
    field = f"sweep.grid.{dotted_path}"
    parts = dotted_path.split(".")
    if not all(parts):
        raise InvalidConfigError("empty segment in grid path", field=field)
    out = node = dict(doc)
    for part in parts[:-1]:
        child = node.get(part, {})  # a missing section is created
        if not isinstance(child, Mapping):
            raise InvalidConfigError(f"the path runs through {part!r}, which is not a mapping", field=field)
        node[part] = dict(child)
        node = node[part]
    node[parts[-1]] = value
    return out


@dataclass(frozen=True)
class ExpandedRun:
    grid_index: int
    seed_index: int
    overrides: tuple[tuple[str, object], ...]
    config: SimConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """One base document plus the sweep axes that vary around it."""

    document: Mapping
    grid: tuple[tuple[str, tuple], ...]
    seed_base: int
    seed_count: int
    output_dir: Path
    parallelism: int = 1
    report: Mapping = field(default_factory=dict)

    @classmethod
    def from_document(cls, doc: Mapping) -> "ExperimentConfig":
        base = parse_sim_config(doc)
        sweep = dict(doc.get("sweep") or {})
        grid_section = sweep.get("grid") or {}
        grid = tuple((str(path), tuple(values)) for path, values in grid_section.items())
        seeds = sweep.get("seeds") or {}
        seed_base = integer_at_least(seeds.get("base", base.seed), "sweep.seeds.base", 0)
        seed_count = integer_at_least(seeds.get("count", 1), "sweep.seeds.count", 1)
        parallelism = integer_at_least(sweep.get("parallelism", 1), "sweep.parallelism", 1)
        output_dir = doc.get("output", {}).get("dir", "results")
        if not isinstance(output_dir, str) or not output_dir:
            raise InvalidConfigError("must be a nonempty path", field="output.dir")
        return cls(
            document=dict(doc),
            grid=grid,
            seed_base=seed_base,
            seed_count=seed_count,
            output_dir=Path(output_dir),
            parallelism=parallelism,
            report=dict(doc.get("report", {})),
        )

    def seeded(self, config: SimConfig) -> list[SimConfig]:
        """``config`` at each seed of the battery, base + index in index order."""
        return [replace(config, seed=self.seed_base + i) for i in range(self.seed_count)]

    def expand(self) -> list[ExpandedRun]:
        """All grid points × seeds, in grid-major, seed-minor order."""
        paths = [path for path, _ in self.grid]
        axes = [values for _, values in self.grid]
        runs: list[ExpandedRun] = []
        for grid_index, combo in enumerate(itertools.product(*axes)):
            doc = self.document
            for path, value in zip(paths, combo):
                doc = apply_override(doc, path, value)
            overrides = tuple(zip(paths, combo))
            for seed_index, config in enumerate(self.seeded(parse_sim_config(doc))):
                runs.append(ExpandedRun(grid_index, seed_index, overrides, config))
        return runs
