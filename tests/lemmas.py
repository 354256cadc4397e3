"""The paper's scalar lemmas as test oracles: the inequalities behind the two
sharp bounds, checked on random samples by criterion 7 and test_functionals.
The bounds themselves are functionals.bound_L_max and bound_S_max, and the
certificates check attainment; nothing in the package calls these.

Each function accepts a vector or a batch along the leading axes.
"""

import numpy as np

from inscribed_extrema import NonPositiveInput, WrongDimension

CONSTRAINT_TOL = 1e-10


class ConstraintViolated(ValueError):
    """A sample off the constraint surface of the lemma it was passed to."""


def phi(lam):
    """Phi(lambda) = prod(lambda) * sqrt(sum(lambda^-2)).

    Maximized at lambda_i = 2/sqrt(n) subject to sum(lambda^2) = 4, where it
    equals 2^(n-1) n^((2-n)/2). Batch-aware along the last axis.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        raise NonPositiveInput("phi requires strictly positive entries")
    return np.prod(lam, axis=-1) * np.sqrt(np.sum(lam**-2.0, axis=-1))


def phi_max(n):
    return 2.0 ** (n - 1) * n ** ((2 - n) / 2.0)


def beta_product_sum(beta):
    """(prod beta) * (sum 1/beta) for beta on the unit sphere, all entries positive.

    The caller asserts the bound n^((3-n)/2). Batch-aware along the last axis.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0.0):
        raise ConstraintViolated("beta entries must be positive")
    s = np.sum(beta**2, axis=-1)
    if np.any(np.abs(s - 1.0) > CONSTRAINT_TOL):
        raise ConstraintViolated("sum(beta^2) must equal 1")
    return np.prod(beta, axis=-1) * np.sum(1.0 / beta, axis=-1)


def maclaurin_gap(x):
    """prod(x) - mean(x) for positive x with mean(1/x) = 1; nonnegative.

    Batch-aware along the last axis.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ConstraintViolated("entries must be positive")
    hm = np.mean(1.0 / x, axis=-1)
    if np.any(np.abs(hm - 1.0) > CONSTRAINT_TOL):
        raise ConstraintViolated("mean(1/x) must equal 1")
    return np.prod(x, axis=-1) - np.mean(x, axis=-1)


def planar_identity_check(a):
    """For 2x2 SPD A return (det A * tr A^-1, tr A); the two agree identically."""
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise WrongDimension("identity holds for n=2 only")
    det = float(np.linalg.det(a))
    tr_inv = float(np.trace(np.linalg.inv(a)))
    return det * tr_inv, float(np.trace(a))
