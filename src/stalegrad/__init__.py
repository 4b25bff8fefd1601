"""Asynchronous optimization under data-dependent worker delays.

A deterministic parameter-server simulator where slow workers
systematically carry one data component, plus the optimizers built to
survive that coupling and the analysis oracles used to audit them.
"""

__version__ = "0.1.0"
