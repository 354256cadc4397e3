"""Extremal inscribed parallelepipeds.

Global maximizers on the ellipsoid's eigenbasis (for the edge length, the
principal-axis box), and vertex-constrained maximizers through any boundary
point: for the edge length (and both functionals at n = 2, where S = L) one
pass of the pinning equalizer on A / tr A - y0 y0^T, and for the facet area
at n >= 3 the seeded barycentric equalizer on M / tr M, M = U0^T C U0, which
raises NotConverged with the best frame where no frame meets its condition.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import equalizer, functionals, geometry, linalg
from .config import DEFAULT_TOLERANCES, check_count
from .errors import (
    DegenerateVertex,
    DimensionMismatch,
    NotOnBoundary,
    WrongDimension,
)

BOUNDARY_TOL = 1e-10
DEGENERATE_TOL = 1e-12  # smallest |z_i| = |u_i . y0| that still gives a nondegenerate edge


@dataclass(frozen=True)
class VertexConstraint:
    """Boundary point x0 and its unit-sphere preimage y0 = B^-1 x0."""

    x0: np.ndarray
    y0: np.ndarray

    @classmethod
    def from_point(cls, e, x0):
        x0 = np.asarray(x0, dtype=float).ravel()
        if x0.size != e.n:
            raise DimensionMismatch("vertex dimension does not match the ellipsoid")
        res = e.boundary_residual(x0)
        if not res <= BOUNDARY_TOL:  # NaN fails it too
            raise NotOnBoundary(f"|x0^T C x0 - 1| = {res:.3e} > {BOUNDARY_TOL:.1e}")
        z = e.eigen_coordinates(x0)
        y0 = e.eigenvectors @ (z / np.linalg.norm(z))
        return cls(x0=x0, y0=y0)


@dataclass(frozen=True)
class ExtremalCertificate:
    achieved: functionals.FunctionalValue
    bound: float
    relative_gap: float
    equality_residuals: dict
    parallelepiped: geometry.Parallelepiped  # its residuals were computed on it; not in to_dict

    def to_dict(self):
        return {
            "achieved": self.achieved.value,
            "functional": self.achieved.functional_kind,
            "condition": self.achieved.condition,
            "bound": self.bound,
            "relative_gap": self.relative_gap,
            "equality_residuals": dict(self.equality_residuals),
        }


def _make_certificate(e, q, functional, x0=None):
    """Certificate of q, x0 being the prescribed all-plus vertex or None: the value,
    bound and gap are functionals.measure of P = B U diag(lambda), as verify reads them.

    The equality residuals are the functional's equality conditions, read
    off the orthotope (U, lambda) and each relative to its scale. L attains
    2^n sqrt(tr A) in the Cauchy-Schwarz case diag(U^T A U) / tr A =
    lambda^2 / 4 (cauchy_schwarz, a 2-norm), and so does S at n = 2, where
    S = L. For n >= 3, S attains S_max when lambda is uniform
    (uniform_lambda, max |lambda sqrt(n) / 2 - 1|) and diag(U^T C U) is
    constant (diagonal_equalization, max |d - t| / t with t = tr(C) / n).
    vertex (over ||x0||), inscribed and, for S, factored_vs_gram go with them.
    """
    p = geometry.orthotope_to_parallelepiped(e, q)
    residuals = {}
    if x0 is not None:
        vertex = np.linalg.norm(geometry.all_plus_vertex(p) - x0) / np.linalg.norm(x0)
        residuals["vertex"] = float(vertex)
    if functional == "edge_length" or e.n == 2:
        g = functionals.diag_quadratic(q.U, e.unit_trace()[0])
        residuals["cauchy_schwarz"] = float(np.linalg.norm(g - q.lam * q.lam / 4.0))
    else:
        t = e.tr_C / e.n
        d = functionals.diag_quadratic(q.U, e.C)
        residuals["uniform_lambda"] = float(np.max(np.abs(q.lam * math.sqrt(e.n) / 2.0 - 1.0)))
        residuals["diagonal_equalization"] = float(np.max(np.abs(d - t)) / t)
    residuals["inscribed"] = geometry.is_inscribed(e, p).max_residual
    achieved, bound, gap = functionals.measure(e, p, functional)
    if functional == "facet_area":
        factored = functionals.facet_area_total_factored(e, q)
        residuals["factored_vs_gram"] = abs(factored.value - achieved.value) / achieved.value
    return ExtremalCertificate(achieved, bound, gap, residuals, p)


def construct_L_max(e):
    """Maximal total edge length: the principal-axis box of A = Q diag(w) Q^T, no random draw.

    U = Q and lambda = 2 sqrt(w / sum w) give P = B U diag(lambda) = 2 Q diag(w) / sqrt(tr A).
    Its vertices x = sum +-w_i q_i / sqrt(sum w) have x^T A^-1 x = 1, and L = 2^n sqrt(tr A).
    """
    w, _ = linalg.even_pow2_scaled(e.eigenvalues)
    q = geometry.SphereOrthotope(e.eigenvectors, 2.0 * np.sqrt(w / w.sum()))
    return q, _make_certificate(e, q, "edge_length")


def construct_S_max(e, tol=DEFAULT_TOLERANCES.equalizer_tol):
    """Maximal total facet area: uniform lambda and an equal-diagonal frame.

    C = Q diag(1/w) Q^T in the ellipsoid's eigenbasis, so the frame is Q
    composed with the pinning equalizer run on diag(1/w) at tol, and
    diag(U^T C U) = tr(C)/n * 1. No second decomposition is taken.
    """
    v = equalizer.equalize_diagonal(np.diag(1.0 / e.eigenvalues), tol=tol).V
    q = geometry.SphereOrthotope(e.eigenvectors @ v, np.full(e.n, 2.0 / math.sqrt(e.n)))
    return q, _make_certificate(e, q, "facet_area")


def vertex_lambdas(u, y0):
    """Flip column signs so the all-plus vertex of (U', 2|U^T y0|) is y0."""
    u = np.asarray(u, dtype=float)
    y0 = linalg.unit_vector(y0)
    z = u.T @ y0
    small = float(np.min(np.abs(z)))
    if not small >= DEGENERATE_TOL:
        raise DegenerateVertex(
            f"frame has an edge direction orthogonal to the vertex (|z|_min = {small:.1e})"
        )
    u_fixed = u * np.where(z < 0.0, -1.0, 1.0)
    return u_fixed, 2.0 * np.abs(z)


def _pinned_vertex(e, x0, functional, tol):
    """The edge-bound maximizer through x0, certified for functional (the
    two coincide at n = 2, where S = L)."""
    vc = VertexConstraint.from_point(e, x0)
    n_mat = e.unit_trace()[0] - np.outer(vc.y0, vc.y0)
    v = equalizer.equalize_diagonal(n_mat, tol=tol).V
    q = geometry.SphereOrthotope(*vertex_lambdas(v, vc.y0))
    return q, _make_certificate(e, q, functional, vc.x0)


def construct_vertex_2d(e, x0, functional="edge_length"):
    """Maximal-perimeter parallelogram through a prescribed boundary point:
    construct_vertex_eigen_L's route, one rotation here, certified for
    functional (S = L in the plane)."""
    if e.n != 2:
        raise WrongDimension("this construction is planar")
    return _pinned_vertex(e, x0, functional, DEFAULT_TOLERANCES.equalizer_tol)


def construct_vertex_eigen_S(e, x0, tol=DEFAULT_TOLERANCES.equalizer_tol, seed=0):
    """Facet-area maximizer through any boundary point (the name predates
    the general case: x0 need not be an eigenvector).

    Uniform lambda = 2/sqrt(n) pins the all-plus vertex at x0 exactly for
    the frames U = U0 V with V 1 = 1, U0 the barycentric basis of y0. Such
    a frame attains S_max when diag(V^T M V) = tr(M)/n, M = U0^T C U0,
    which the barycentric equalizer solves on M / tr M, so no scale of A
    moves its threshold. Where it finds none (at n = 3 almost always, with
    a proven floor; sometimes at odd n or through general points),
    NotConverged propagates with the best frame, its variances in units of
    (tr M)^2. At n = 2, where S = L, it is the edge-length route at tol.
    """
    check_count(seed, "seed")
    if e.n == 2:
        return _pinned_vertex(e, x0, "facet_area", tol)
    vc = VertexConstraint.from_point(e, x0)
    u0 = equalizer.barycentric_basis(vc.y0)
    m = u0.T @ e.C @ u0
    rep = equalizer.equalize_diagonal_barycentric(m / np.trace(m), tol=tol, seed=seed)
    q = geometry.SphereOrthotope(u0 @ rep.V, np.full(e.n, 2.0 / math.sqrt(e.n)))
    return q, _make_certificate(e, q, "facet_area", vc.x0)


def construct_vertex_eigen_L(e, x0, tol=DEFAULT_TOLERANCES.equalizer_tol):
    """Edge-length maximizer through any boundary point, at every n >= 1 (the
    name predates the general case: x0 need not be an eigenvector).

    2^n sqrt(tr A) is attained through x0 exactly when the Cauchy-Schwarz
    equality condition diag(U^T A U) = tr(A) z*z holds, z = U^T y0. As
    |y0| = 1, that is diag(U^T N U) = 0 for N = A / tr A - y0 y0^T, and
    tr N = 0: a zero diagonal is majorized by every spectrum of trace 0, so
    the pinning equalizer reaches it with at most n - 1 Givens rotations
    (Horn, Amer. J. Math. 76, 1954; Chan & Li, J. Math. Anal. Appl. 91,
    1983). No edge vanishes: on that frame z_i^2 = u_i^T A u_i / tr A
    >= w_min / tr A > linalg.SPD_REL_TOL / n, far above DEGENERATE_TOL^2. So
    this route never raises NotConverged or DegenerateVertex. tol is the
    pinning's stopping rule, relative to max|N|, and the pinning refuses a
    bad one; its converged flag is not consulted, since the certificate's
    cauchy_schwarz carries the residual, rounding included.
    """
    return _pinned_vertex(e, x0, "edge_length", tol)


def construct_through_vertex(
    e, x0, functional="facet_area", tol=DEFAULT_TOLERANCES.equalizer_tol, seed=0
):
    """Route a vertex-constrained request to its functional's construction;
    both take any boundary point of any dimension."""
    if functional not in ("edge_length", "facet_area"):
        raise ValueError(f"unknown functional {functional!r}")
    check_count(seed, "seed")
    if functional == "edge_length":
        return construct_vertex_eigen_L(e, x0, tol=tol)
    return construct_vertex_eigen_S(e, x0, tol=tol, seed=seed)
