"""Defaults of the tolerances a caller can set; each is also a CLI flag."""

from dataclasses import dataclass


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


def valid_tolerance(value):
    """Whether value can serve as a tolerance: a finite number >= 0. The library
    and the CLI both ask this; a negative one would square to a loose threshold."""
    return 0.0 <= value < float("inf")
