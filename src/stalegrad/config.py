"""Config documents: loading, schema checks, and grid expansion.

A document is YAML with nested sections; ``schema.KEYS`` lists every key
it can set, with its kind and default.  ``objective``, ``optimizer`` and
``run`` (with ``workers`` and ``iterations``) are required.

Sweep expansion is deterministic: grid axes in document order, the
cartesian product in row-major order, seeds innermost as base + index, so
every grid point sees the same seed battery.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from . import schema
from .errors import InvalidConfigError
from .optimizers import METHODS
from .schema import RUN_SECTIONS
from .simulation import DEFAULT_DELAY, RUN_FIELDS, SimConfig, validate_config


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
        raise InvalidConfigError(f"not valid YAML: {' '.join(str(exc).split())}") from exc  # one error line
    if not isinstance(doc, Mapping):
        raise InvalidConfigError("config document must be a mapping of sections")
    return dict(doc)


def _run_config(doc: Mapping, grid: tuple[tuple[str, tuple], ...]) -> SimConfig:
    """The run ``doc`` describes.  Its optimizer leaves out the keys that only other
    methods on an ``optimizer.method`` axis of ``grid`` read; ``SimConfig`` refuses any
    other key its method does not read."""
    axis = dict(grid).get("optimizer.method", ())
    others = {name for method in axis if method in METHODS for name in schema.names("optimizer", method)}
    own = schema.names("optimizer", doc["optimizer"].get("method"))
    return SimConfig(
        objective=dict(doc["objective"]),
        optimizer={key: value for key, value in doc["optimizer"].items() if key in own or key not in others},
        delay=dict(doc.get("delay") or DEFAULT_DELAY),
        **{RUN_FIELDS.get(key, key): value for key, value in doc["run"].items()},
    )


def parse_sim_config(doc: Mapping) -> SimConfig:
    """The run ``doc`` describes, the whole document checked (see ``ExperimentConfig``)."""
    return ExperimentConfig.from_document(doc).base


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
    overrides: tuple[tuple[str, object], ...]
    config: SimConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """One base document, the run it describes, and the sweep axes that vary around it."""

    document: Mapping
    base: SimConfig
    grid: tuple[tuple[str, tuple], ...]
    seed_base: int
    seed_count: int
    output_dir: Path
    parallelism: int = 1
    report: Mapping = field(default_factory=dict)

    @classmethod
    def from_document(cls, doc: Mapping) -> "ExperimentConfig":
        """Check ``doc`` once: its sections (known, each a mapping, the required ones
        present), the run keys (``SimConfig`` takes them as fields), the sweep, output and
        report sections with the grid axes, then, building the base run, the run sections;
        the objective is checked where it is built."""
        schema.walk(doc, "")
        schema.walk(doc["run"], "run")
        commands = [section for section in schema.names("") if section not in RUN_SECTIONS]
        checked = {section: schema.walk(doc.get(section) or {}, section) for section in commands}
        sweep = checked["sweep"]
        seeds = schema.walk(sweep.get("seeds", {}), "sweep.seeds")
        for path, values in sweep.get("grid", {}).items():
            if str(path).split(".")[0] not in RUN_SECTIONS:
                message = f"a grid axis varies a key of {', '.join(sorted(RUN_SECTIONS))}"
                raise InvalidConfigError(message, field=f"sweep.grid.{path}")
            if path == "run.seed":
                message = "seeds come from sweep.seeds, not a grid axis"
                raise InvalidConfigError(message, field="sweep.grid.run.seed")
            if not isinstance(values, Sequence) or isinstance(values, (str, bytes)) or not values:
                raise InvalidConfigError("axis must be a nonempty list", field=f"sweep.grid.{path}")
        grid = tuple((str(path), tuple(values)) for path, values in sweep.get("grid", {}).items())
        base = _run_config(doc, grid)
        return cls(
            document=dict(doc),
            base=base,
            grid=grid,
            seed_base=seeds.get("base", base.seed),
            seed_count=seeds["count"],
            output_dir=Path(checked["output"]["dir"]),
            parallelism=sweep["parallelism"],
            report=checked["report"],
        )

    def seeded(self, config: SimConfig) -> list[SimConfig]:
        """``config`` at each seed of the battery, base + index in index order."""
        return [replace(config, seed=self.seed_base + i) for i in range(self.seed_count)]

    def expand(self) -> list[ExpandedRun]:
        """All grid points × seeds, in grid-major, seed-minor order.  Each point walks what an
        axis can change (the section layout: ``delay`` replaces a section; the run keys), then
        its run is built and validated at its first seed (validation reads no seed).  A
        point's refusal names its field, then the point."""
        runs: list[ExpandedRun] = []
        for grid_index, combo in enumerate(itertools.product(*(values for _, values in self.grid))):
            overrides = tuple(zip((path for path, _ in self.grid), combo))
            try:
                doc = self.document
                for path, value in overrides:
                    doc = apply_override(doc, path, value)
                schema.walk(doc, "")
                schema.walk(doc["run"], "run")
                configs = self.seeded(_run_config(doc, self.grid))
                validate_config(configs[0])
            except InvalidConfigError as exc:
                if not overrides:  # the document's own run: there is no point to name
                    raise
                point = "; ".join(f"{path}={value}" for path, value in overrides)
                raise InvalidConfigError(f"{exc.message} (grid point {grid_index}: {point})", exc.field) from None
            runs.extend(ExpandedRun(grid_index, overrides, config) for config in configs)
        return runs
