"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input is 2, assumption or
estimation failures are 3, anything unexpected is 4.
"""

from __future__ import annotations


class FactorBoundsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FactorBoundsError):
    """Malformed user input: files, schemas, shares, option values."""


class InvalidDesignError(InvalidInputError):
    """Factor count or arm structure outside the supported range."""


class InvalidFactorError(InvalidInputError):
    """Factor index out of range, duplicated, or otherwise unusable."""


class InvalidShareError(InvalidInputError):
    """A probability or share outside its admissible range."""


class AssumptionViolationError(FactorBoundsError):
    """A required identification assumption fails on the given population."""


class NoCompliersError(AssumptionViolationError):
    """The relevant complier group is empty, so the estimand is undefined."""


class WeakFirstStageError(FactorBoundsError):
    """Estimated first-stage compliance is zero or negative at the profile."""


class InsufficientDataError(FactorBoundsError):
    """An arm has too few rows to compute moments."""


class GenerationError(FactorBoundsError):
    """Population generation could not satisfy the configured constraints."""
