"""Per-layer spans recorded from outside the stalegrad package.

The tracer replaces each layer's entry points with wrappers that record a
span (name, start, end, parent span) and restores the originals on
``uninstall``.  Nothing inside ``src/`` knows about it.

Two rules decide which calls open a span:

* A wrapped function is replaced under every name the package binds it to,
  because callers look it up by their own name: ``cli`` imports
  ``simulation.run`` as ``run_simulation`` and ``validate_config`` at
  import time, so patching ``simulation.run`` alone would miss every CLI
  run.
* A call made while the innermost open span has the same name opens no new
  span, so it rolls into the outer span's self time.  Objective
  evaluations (``loss``, ``grad``) open ``objectives.monitor`` only when
  ``simulation.run`` calls them directly; elsewhere (inside the oracle, the
  theory constants, ``analysis.metrics``) they roll into the enclosing
  span.  ``Mixture.loss`` → ``Quadratic.loss`` and oracle →
  ``component_grad`` → ``grad`` therefore count once, in the outer layer.

A span's self time is its duration minus the durations of its direct
children; see :func:`self_times`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

#: every span name the tracer can record, in report order
LAYERS = (
    "delays.draw_ticket",
    "objectives.oracle",
    "objectives.monitor",
    "objectives.project",
    "objectives.build",
    "optimizers.step",
    "simulation.run",
    "simulation.validate",
    "config.load",
    "config.expand",
    "analysis.metrics",
    "cli.write",
    "cli",
)


def self_times(names, name_ids, starts, ends, parents) -> dict[str, tuple[int, float]]:
    """Per-name (calls, self seconds) from a flat span table.

    Span ``i`` is named ``names[name_ids[i]]``, runs from ``starts[i]`` to
    ``ends[i]`` and was opened inside span ``parents[i]`` (−1 for none).
    Its self time is its duration minus its direct children's durations.
    """
    child_time = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += ends[i] - starts[i]
    out: dict[str, tuple[int, float]] = {}
    for i, name_id in enumerate(name_ids):
        name = names[name_id]
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (ends[i] - starts[i]) - child_time[i])
    return out


class Tracer:
    """In-memory span table plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._open: list[int] = []
        self._open_names: list[int] = []
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- span table -------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, name: str, start: float | None = None) -> int:
        """Open a span inside the innermost open one; returns its id."""
        span = len(self.starts)
        name_id = self._intern(name)
        self.name_ids.append(name_id)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(self.clock() if start is None else start)
        self.ends.append(0.0)
        self._open.append(span)
        self._open_names.append(name_id)
        return span

    def close(self, span: int, end: float | None = None) -> None:
        if not self._open or self._open[-1] != span:
            raise RuntimeError("spans must close innermost first")
        self.ends[span] = self.clock() if end is None else end
        self._open.pop()
        self._open_names.pop()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def self_times(self) -> dict[str, tuple[int, float]]:
        if self._open:
            raise RuntimeError("spans still open")
        return self_times(self.names, self.name_ids, self.starts, self.ends, self.parents)

    # -- patching ---------------------------------------------------------

    def wrap(self, fn, name: str, caller=None, after=None):
        """A wrapper recording ``fn`` as span ``name``.

        ``caller``: a code object; the span opens only when that code calls
        directly.  ``after(tracer, args, result)`` runs once the span closed.
        """
        tracer = self
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if caller is not None and sys._getframe(1).f_code is not caller:
                return fn(*args, **kwargs)
            if tracer._open_names and tracer._open_names[-1] == name_id:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, **options) -> None:
        """Wrap a module-level function under every package name bound to it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stalegrad" or mod_name.startswith("stalegrad.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, **options) -> None:
        """Wrap a method on the class in ``cls``'s MRO that defines it."""
        owner = next(c for c in cls.__mro__ if attr in vars(c))
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, **options))
        else:
            replacement = self.wrap(raw, name, **options)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's entry points (see :data:`LAYERS`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from stalegrad import analysis, cli, config, delays, objectives, optimizers, simulation

        run_code = simulation.run.__code__

        def count_applied(tracer, args, trace):
            tracer.count("applied", int(trace.applied.sum()))

        def count_bytes(tracer, args, result):
            tracer.count("cli.write.bytes", os.path.getsize(args[1]))

        self.patch_function(cli, "main", "cli")
        self.patch_function(cli, "_write_trace_csv", "cli.write", after=count_bytes)
        self.patch_function(cli, "_write_snapshot_csv", "cli.write", after=count_bytes)
        self.patch_function(config, "load_document", "config.load")
        self.patch_function(config, "parse_sim_config", "config.load")
        self.patch_method(config.ExperimentConfig, "from_document", "config.load")
        self.patch_method(config.ExperimentConfig, "expand", "config.expand")
        self.patch_function(simulation, "validate_config", "simulation.validate")
        self.patch_function(simulation, "run", "simulation.run", after=count_applied)
        self.patch_method(delays.DelayModel, "draw_ticket", "delays.draw_ticket")
        self.patch_method(objectives.Quadratic, "stochastic_grad", "objectives.oracle")
        self.patch_method(objectives.Quadratic, "stochastic_grad_pair", "objectives.oracle")
        for family in (
            objectives.Quadratic,
            objectives.Mixture,
            objectives.NonconvexQuadratic,
            objectives.Logistic,
        ):
            for attr in ("loss", "grad"):
                self.patch_method(family, attr, "objectives.monitor", caller=run_code)
        self.patch_method(objectives.BallDomain, "project", "objectives.project")
        self.patch_function(objectives, "from_spec", "objectives.build")
        self.patch_function(objectives, "domain_from_spec", "objectives.build")
        for step in ("step_ordered_momentum", "step_ordered_mu2", "step_baseline"):
            self.patch_function(optimizers, step, "optimizers.step")
        self.patch_function(analysis, "convergence_metrics", "analysis.metrics")

    def uninstall(self) -> None:
        """Put back every original, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
