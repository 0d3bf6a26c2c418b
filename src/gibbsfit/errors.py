"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: validation and data-format problems,
including a statistic that overflows at a huge sample size, and an
evidence request the data cannot serve exit with 2; solver failures
(infeasible targets, stagnation) with 3.
"""

from __future__ import annotations


class GibbsFitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GibbsFitError, ValueError):
    """Malformed or inconsistent inputs (shapes, tags, preconditions)."""


class DataFormatError(ValidationError):
    """Unparseable or contract-violating data files."""


class InfeasibleTargetError(GibbsFitError):
    """Projection target lies outside the open achievable set.

    Carries the last Newton iterate so callers can inspect how the solve
    diverged.
    """

    def __init__(self, message: str, last_lambda=None, residual=None):
        super().__init__(message)
        self.last_lambda = last_lambda
        self.residual = residual


class NotConvergedError(GibbsFitError):
    """Solver stagnated without an infeasibility signature."""

    def __init__(self, message: str, last_lambda=None, residual=None):
        super().__init__(message)
        self.last_lambda = last_lambda
        self.residual = residual


class EvidenceNotApplicableError(GibbsFitError):
    """Evidence procedure cannot produce a weight for the given data."""
