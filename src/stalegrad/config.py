"""Config documents: loading, schema checks, and grid expansion.

A document is YAML with nested sections::

    objective:   family + family-specific keys (see objectives.from_spec)
    optimizer:   method + optional hyperparameters (defaults come from theory)
    delay:       slow_weight
    run:         workers, iterations, seed, snapshot_stride,
                 record_gradients, x_init
    sweep:       grid (dotted path -> list of values), seeds {base, count},
                 parallelism, write_traces
    output:      dir
    report:      metric

Sweep expansion is deterministic: grid axes in document order, the
cartesian product in row-major order, seeds innermost as base + index, so
every grid point sees the same seed battery.
"""

from __future__ import annotations

import copy
import itertools
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import InvalidConfigError
from .optimizers import METHODS
from .simulation import SimConfig

OUTPUT_DIR_ENV = "STALEGRAD_OUTPUT_DIR"

_RUN_KEYS = {"workers", "iterations", "seed", "snapshot_stride", "record_gradients", "x_init"}
_SWEEP_KEYS = {"grid", "seeds", "parallelism", "write_traces"}
_TOP_KEYS = {"objective", "optimizer", "delay", "run", "sweep", "output", "report"}


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
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


def _expect_int(section, section_name: str, key: str, minimum: int, default=None):
    if key not in section:
        if default is not None:
            return default
        raise InvalidConfigError("value is required", field=f"{section_name}.{key}")
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfigError("must be an integer", field=f"{section_name}.{key}")
    if value < minimum:
        raise InvalidConfigError(f"must be >= {minimum}", field=f"{section_name}.{key}")
    return value


def check_document(doc: Mapping) -> None:
    """Shape-level schema check; value-level checks live with the consumers."""
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InvalidConfigError("unknown section", field=sorted(unknown)[0])
    objective = _expect_mapping(doc, "objective", required=True)
    if not isinstance(objective.get("family"), str):
        raise InvalidConfigError("must name an objective family", field="objective.family")
    optimizer = _expect_mapping(doc, "optimizer", required=True)
    method = optimizer.get("method")
    if not isinstance(method, str):
        raise InvalidConfigError("must name a method", field="optimizer.method")
    if method not in METHODS:
        raise InvalidConfigError(
            f"unknown method {method!r}; choose one of {', '.join(METHODS)}",
            field="optimizer.method",
        )
    _expect_mapping(doc, "delay", required=False)
    run = _expect_mapping(doc, "run", required=True)
    unknown = set(run) - _RUN_KEYS
    if unknown:
        raise InvalidConfigError("unknown key", field=f"run.{sorted(unknown)[0]}")
    _expect_int(run, "run", "workers", minimum=1)
    _expect_int(run, "run", "iterations", minimum=1)
    if "sweep" in doc:
        sweep = _expect_mapping(doc, "sweep", required=False)
        unknown = set(sweep) - _SWEEP_KEYS
        if unknown:
            raise InvalidConfigError("unknown key", field=f"sweep.{sorted(unknown)[0]}")
        grid = sweep.get("grid", {})
        if not isinstance(grid, Mapping):
            raise InvalidConfigError("must map dotted paths to value lists", field="sweep.grid")
        for path, values in grid.items():
            if not isinstance(values, Sequence) or isinstance(values, (str, bytes)) or not values:
                raise InvalidConfigError(
                    "axis must be a nonempty list", field=f"sweep.grid.{path}"
                )


def parse_sim_config(doc: Mapping) -> SimConfig:
    check_document(doc)
    run = dict(doc["run"])
    delay = dict(doc.get("delay") or {"slow_weight": 0.1})
    x_init = run.get("x_init")
    if x_init is not None:
        try:
            x_init = tuple(float(v) for v in x_init)
        except (TypeError, ValueError):
            raise InvalidConfigError("must be a list of numbers", field="run.x_init") from None
    return SimConfig(
        objective=dict(doc["objective"]),
        optimizer=dict(doc["optimizer"]),
        total_iterations=run["iterations"],
        num_workers=run["workers"],
        delay=delay,
        seed=run.get("seed", 0),
        snapshot_stride=run.get("snapshot_stride"),
        record_gradients=bool(run.get("record_gradients", False)),
        x_init=x_init,
    )


def apply_override(doc: Mapping, dotted_path: str, value) -> dict:
    """New document with the value at the dotted path replaced."""
    parts = dotted_path.split(".")
    if not all(parts):
        raise InvalidConfigError("empty segment in grid path", field=f"sweep.grid.{dotted_path}")
    out = copy.deepcopy(dict(doc))
    node = out
    for part in parts[:-1]:
        child = node.get(part)
        if not isinstance(child, (dict, Mapping)):
            child = {}
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

    @property
    def run_id(self) -> str:
        return f"g{self.grid_index:04d}_s{self.config.seed}"


@dataclass(frozen=True)
class ExperimentConfig:
    """One base document plus the sweep axes that vary around it."""

    document: Mapping
    grid: tuple[tuple[str, tuple], ...]
    seed_base: int
    seed_count: int
    output_dir: Path
    parallelism: int = 1
    write_traces: bool = False
    report: Mapping = field(default_factory=dict)

    @classmethod
    def from_document(cls, doc: Mapping) -> "ExperimentConfig":
        check_document(doc)
        sweep = dict(doc.get("sweep") or {})
        grid_section = sweep.get("grid") or {}
        grid = tuple((str(path), tuple(values)) for path, values in grid_section.items())
        seeds = sweep.get("seeds") or {}
        if not isinstance(seeds, Mapping):
            raise InvalidConfigError("must be a mapping with base and count", field="sweep.seeds")
        seed_base = _expect_int(seeds, "sweep.seeds", "base", minimum=0, default=dict(doc["run"]).get("seed", 0))
        seed_count = _expect_int(seeds, "sweep.seeds", "count", minimum=1, default=1)
        parallelism = _expect_int(sweep, "sweep", "parallelism", minimum=1, default=1)
        output = dict(doc.get("output") or {})
        base_dir = Path(os.environ.get(OUTPUT_DIR_ENV) or output.get("dir") or "results")
        return cls(
            document=dict(doc),
            grid=grid,
            seed_base=seed_base,
            seed_count=seed_count,
            output_dir=base_dir,
            parallelism=parallelism,
            write_traces=bool(sweep.get("write_traces", False)),
            report=dict(doc.get("report") or {}),
        )

    @property
    def grid_size(self) -> int:
        size = 1
        for _, values in self.grid:
            size *= len(values)
        return size

    def expand(self) -> list[ExpandedRun]:
        """All grid points × seeds, in grid-major, seed-minor order."""
        paths = [path for path, _ in self.grid]
        axes = [values for _, values in self.grid]
        runs: list[ExpandedRun] = []
        for grid_index, combo in enumerate(itertools.product(*axes)):
            doc = dict(self.document)
            for path, value in zip(paths, combo):
                doc = apply_override(doc, path, value)
            for seed_index in range(self.seed_count):
                seeded = apply_override(doc, "run.seed", self.seed_base + seed_index)
                runs.append(
                    ExpandedRun(
                        grid_index=grid_index,
                        seed_index=seed_index,
                        overrides=tuple(zip(paths, combo)),
                        config=parse_sim_config(seeded),
                    )
                )
        return runs
