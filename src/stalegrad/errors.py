"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class StalegradError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfigError(StalegradError):
    """A configuration value is missing, malformed, or out of range.

    ``field`` holds a dotted path into the config document (e.g.
    ``"delay.slow_weight"``) when the offending entry is known, and
    ``message`` the text without it.
    """

    def __init__(self, message: str, field: str | None = None):
        self.message, self.field = message, field
        super().__init__(f"{field}: {message}" if field else message)


class ContractViolationError(StalegradError):
    """An argument violated a documented precondition (wrong shape, bad hash, a missing
    gradient pair, a trace without what an analysis reads, counts it cannot compare, ...)."""


class DivergedRunError(StalegradError):
    """A simulation produced a non-finite iterate, or a finite iterate whose
    monitored loss or squared gradient norm is not finite.

    Carries the last finite iterate, the iteration at which the
    divergence was detected and the run's resolved parameters (its η,
    given or theory-derived), so sweep runners can record the failure
    without losing the run.
    """

    def __init__(self, step: int, last_iterate: np.ndarray, resolved_params: dict):
        self.step = step
        self.last_iterate = last_iterate
        self.resolved_params = resolved_params
        super().__init__(f"run diverged at iteration {step}")


class ReplayDivergenceError(StalegradError):
    """Re-running a recorded config did not reproduce the trace."""

    def __init__(self, first_index: int):
        self.first_index = first_index
        super().__init__(f"replay diverged from the recorded trace at iteration {first_index}")

