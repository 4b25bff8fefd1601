"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class StalegradError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfigError(StalegradError):
    """A configuration value is missing, malformed, or out of range.

    ``field`` holds a dotted path into the config document (e.g.
    ``"delay.slow_weight"``) when the offending entry is known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class ContractViolationError(StalegradError):
    """An argument violated a documented precondition (wrong shape, bad hash, ...)."""


class ProtocolError(StalegradError):
    """A gradient report is missing data the update rule requires."""


class DivergedRunError(StalegradError):
    """A simulation produced a non-finite iterate.

    Carries the last finite iterate and the iteration at which the
    divergence was detected, so sweep runners can record the failure
    without losing the run.
    """

    def __init__(self, step: int, last_iterate: np.ndarray):
        self.step = step
        self.last_iterate = last_iterate
        super().__init__(f"non-finite iterate produced at iteration {step}")


class ReplayDivergenceError(StalegradError):
    """Re-running a recorded config did not reproduce the trace."""

    def __init__(self, first_index: int):
        self.first_index = first_index
        super().__init__(f"replay diverged from the recorded trace at iteration {first_index}")


class InsufficientTraceError(StalegradError):
    """The trace lacks optional recordings (raw gradients, iterates) the caller needs."""


class InvalidComparisonError(StalegradError):
    """A statistic was given data it cannot compare.

    F1 count vectors that are mismatched in shape or negative, waits too few
    for goodness-of-fit cells, or a trace that lacks a component group.
    """
