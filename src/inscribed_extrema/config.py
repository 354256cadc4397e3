"""Defaults of the tolerances a caller can set, each also a CLI flag, and the two checks of a
caller's numbers: check_count for seeds and step budgets, check_tolerance for tolerances."""

import numbers
from dataclasses import dataclass

from .errors import NonPositiveInput


@dataclass(frozen=True)
class ToleranceConfig:
    """Default numeric tolerances.

    inscribed_tol: threshold on the inscription residual, an upper bound on
        |v^T A^{-1} v - 1| over all 2^n vertices computed from the Gram
        matrix of B^{-1}V (see geometry.is_inscribed).
    equalizer_tol: relative diagonal-deviation target for equalizers.
    bound_slack: relative slack allowed above a closed-form bound before
        a value is flagged as a violation.
    """

    inscribed_tol: float = 1e-9
    equalizer_tol: float = 1e-10
    bound_slack: float = 1e-9


DEFAULT_TOLERANCES = ToleranceConfig()


def check_count(value, name, least=0):
    """value as an int if it is a Python or numpy integer >= least, else NonPositiveInput.
    A float is refused even when whole: int() would truncate 2.7 to 2 and fail on NaN."""
    if not isinstance(value, numbers.Integral):
        raise NonPositiveInput(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise NonPositiveInput(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def check_tolerance(value, name):
    """NonPositiveInput unless value can serve as a tolerance, a finite number >= 0;
    a negative one would square to a loose threshold in the equalizers."""
    if not 0.0 <= value < float("inf"):  # written so that NaN fails it
        raise NonPositiveInput(f"{name} must be a finite number >= 0")
