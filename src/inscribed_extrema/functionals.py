"""Total edge length L, total facet area S, their sharp bounds, and the one
reading of a parallelepiped that certificates and verify quote.

For an orthotope (U, lambda) on the unit sphere mapped into E by B:
    L = 2^(n-1) * sum_i lambda_i * sqrt(u_i^T A u_i)
    S = 2 * sum_i sqrt(det G_{-i,-i})      (Gram route, G = V^T V)
      = 2 * |det V| * sum_i ||row i of V^-1||
      = 2 * sqrt(det A) * prod(lambda) * sum_i sqrt((U^T C U)_ii) / lambda_i
The middle form is the adjugate identity det G_{-i,-i} = det G (G^-1)_ii.
S and its bound are formed in logs: exact wherever float64 holds S, else OutOfRange.

``evaluate`` is the one implementation of L and the factored S, for one
orthotope or a stack on trailing axes (U (n, n, ...), lambda (n, ...)).
``measure`` reads a parallelepiped: L from its edge lengths, S by the Gram
route, with the bound and the relative gap; certificates and verify quote it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, OutOfRange

LOG_MIN, LOG_MAX = np.log(np.finfo(float).tiny), np.log(np.finfo(float).max)


@dataclass(frozen=True)
class FunctionalValue:
    value: float
    functional_kind: str  # "edge_length" | "facet_area"
    condition: float      # max edge length / min edge length

    def __float__(self):
        return float(self.value)


def diag_quadratic(u, m):
    """diag(U^T M U) as sum_j u_ji (M u_i)_j, for any square M; U is (n, n)
    or an (n, n, ...) stack, and the result (n, ...)."""
    return ((m @ u.reshape(len(m), -1)).reshape(u.shape) * u).sum(axis=0)


def evaluate(e, u, lam, functional):
    """L or the factored S of orthotopes (U, lambda) in E.

    U has shape (n, n, ...) and lambda (n, ...); returns one value per
    trailing index (a 0-d array for a single orthotope).
    """
    if functional == "edge_length":
        g = diag_quadratic(u, e.A)
        return 2.0 ** (e.n - 1) * linalg.lane_sum(lam * np.sqrt(g))
    gc = diag_quadratic(u, e.C)
    log_rest = linalg.lane_sum(np.log(lam)) + np.log(linalg.lane_sum(np.sqrt(gc) / lam))
    return 2.0 * np.exp(0.5 * e.log_det + log_rest)


def exp_in_range(log_value, what):
    """exp(log_value), or OutOfRange when float64 cannot hold it as a normal
    number. A NaN passes through, for the caller's finiteness check."""
    if log_value > LOG_MAX or log_value < LOG_MIN:
        kind = "not finite" if log_value > 0 else "below the smallest normal number"
        raise OutOfRange(f"{what} = exp({log_value:.6g}) is {kind} in float64")
    return math.exp(log_value)


def _orthotope_value(e, q, functional):
    if e.n != q.n:
        raise DimensionMismatch("ellipsoid and orthotope dimensions differ")
    value = float(evaluate(e, q.U, q.lam, functional))
    return FunctionalValue(value, functional, float(q.lam.max() / q.lam.min()))


def edge_length_total(e, q):
    return _orthotope_value(e, q, "edge_length")


def _edge_value(p):
    """L = 2^(n-1) sum ||v_i|| and condition max / min ||v_i|| off P's edges, scaled by powers
    of two (no square overflows) and summed in row order whatever V's memory layout."""
    k = np.frexp(np.max(np.abs(p.V), axis=0))[1]
    lens = np.ldexp(np.linalg.norm(np.ascontiguousarray(np.ldexp(p.V, -k)), axis=0), k)
    value = 2.0 ** (p.n - 1) * float(np.sum(lens))
    return FunctionalValue(value, "edge_length", float(lens.max() / lens.min()))


def facet_area_total_gram(p):
    """S = 2 |det V| sum_i ||row i of V^-1|| (the primary evaluator), with
    sigma_max ||row i of V^-1|| = ||Wt[:, i] / r||, r = sigma / sigma_max."""
    r = p.sigma / p.sigma[0]
    rows = float(np.sum(np.sqrt(np.sum((p.Wt / r[:, None]) ** 2, axis=0))))
    log_s = (p.n - 1) * math.log(p.sigma[0]) + float(np.sum(np.log(r))) + math.log(2.0 * rows)
    return FunctionalValue(exp_in_range(log_s, "S"), "facet_area", _edge_value(p).condition)


def facet_area_total_factored(e, q):
    """S via the factored identity; kept as a cross-check of the Gram route."""
    return _orthotope_value(e, q, "facet_area")


def bound_L_max(e):
    """Sharp upper bound 2^n sqrt(tr A) for the total edge length; tr A is formed
    scaled (Ellipsoid.unit_trace), so the bound is finite wherever float64 holds it."""
    _, t, k = e.unit_trace()
    return 2.0**e.n * math.ldexp(math.sqrt(t), k)


def bound_S_max(e):
    """Sharp upper bound 2^n n^(-(n-2)/2) sqrt(det A) sqrt(tr A^-1)."""
    n = e.n
    log_s = n * math.log(2.0) - 0.5 * (n - 2) * math.log(n) + 0.5 * (e.log_det + math.log(e.tr_C))
    return exp_in_range(log_s, "S_max")


def bound(e, functional):
    """The sharp bound of the named functional: bound_L_max or bound_S_max."""
    if functional == "edge_length":
        return bound_L_max(e)
    if functional == "facet_area":
        return bound_S_max(e)
    raise ValueError(f"unknown functional {functional!r}")


def measure(e, p, functional):
    """(value, bound(e, functional), (bound - value) / bound) for P in E, the value read
    off P's edges (L = 2^(n-1) sum ||v_i||, S by facet_area_total_gram): the one
    reading that a certificate quotes and verify reports."""
    b = bound(e, functional)
    value = _edge_value(p) if functional == "edge_length" else facet_area_total_gram(p)
    return value, b, (b - value.value) / b

