"""Extremal inscribed parallelepipeds.

Global maximizers for both functionals, and vertex-constrained maximizers
through any boundary point: for n=2 the exact root of one trigonometric
equation, for the edge length the free-z residual
equalizer.restricted_l_residual, and for the facet area the barycentric
equalizer on U0^T C U0. The two n >= 3 cases solve their diagonal
conditions with equalizer.multistart; where no frame meets the condition,
NotConverged carries the best one found.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import equalizer, functionals, geometry, linalg
from .config import DEFAULT_TOLERANCES, valid_tolerance
from .errors import (
    DegenerateVertex,
    DimensionMismatch,
    NonPositiveInput,
    NotConverged,
    NotOnBoundary,
    WrongDimension,
)

BOUNDARY_TOL = 1e-10
DEGENERATE_TOL = 1e-12  # smallest |z_i| = |u_i . y0| that still gives a nondegenerate edge
# free-z starts the edge-length vertex construction tries before giving up
EDGE_STARTS = 60


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
        if res > BOUNDARY_TOL:
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
    """Certificate of q against the functional's sharp bound; x0 is the
    prescribed all-plus vertex or None.

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
        g = functionals.diag_quadratic(q.U, e.A / np.trace(e.A))
        residuals["cauchy_schwarz"] = float(np.linalg.norm(g - q.lam * q.lam / 4.0))
    else:
        t = float(np.trace(e.C)) / e.n
        d = functionals.diag_quadratic(q.U, e.C)
        residuals["uniform_lambda"] = float(np.max(np.abs(q.lam * math.sqrt(e.n) / 2.0 - 1.0)))
        residuals["diagonal_equalization"] = float(np.max(np.abs(d - t)) / t)
    residuals["inscribed"] = geometry.is_inscribed(e, p).max_residual
    bound = functionals.bound(e, functional)
    if functional == "edge_length":
        achieved = functionals.edge_length_total(e, q)
    else:
        achieved = functionals.facet_area_total_gram(p)
        factored = functionals.facet_area_total_factored(e, q)
        residuals["factored_vs_gram"] = abs(factored.value - achieved.value) / achieved.value
    return ExtremalCertificate(achieved, bound, (bound - achieved.value) / bound, residuals, p)


def construct_L_max(e, u=None, seed=0):
    """Maximal total edge length; works for every orthonormal frame.

    Adapted edge lengths lambda_i = 2 sqrt(u_i^T A u_i) / sqrt(tr A) attain
    the bound 2^n sqrt(tr A) regardless of U.
    """
    if u is None:
        u = linalg.random_orthogonal(e.n, seed)
    else:
        u = linalg.require_orthogonal(np.asarray(u, dtype=float))
        if u.shape[0] != e.n:
            raise DimensionMismatch("frame dimension does not match the ellipsoid")
    g = functionals.diag_quadratic(u, e.A)
    root_tr = math.sqrt(float(g.sum()))
    lam = 2.0 * np.sqrt(g) / root_tr
    q = geometry.SphereOrthotope(u, lam)
    return q, _make_certificate(e, q, "edge_length")


def construct_S_max(e):
    """Maximal total facet area: uniform lambda and an equal-diagonal frame.

    C = Q diag(1/w) Q^T in the ellipsoid's eigenbasis, so the frame is Q
    composed with the pinning equalizer run on diag(1/w), and
    diag(U^T C U) = tr(C)/n * 1. No second decomposition is taken.
    """
    n = e.n
    rep = equalizer.equalize_diagonal(np.diag(1.0 / e.eigenvalues))
    u = e.eigenvectors @ rep.V
    lam = np.full(n, 2.0 / math.sqrt(n))
    q = geometry.SphereOrthotope(u, lam)
    return q, _make_certificate(e, q, "facet_area")


def vertex_lambdas(u, y0):
    """Flip column signs so the all-plus vertex of (U', 2|U^T y0|) is y0."""
    u = np.asarray(u, dtype=float)
    y0 = linalg.unit_vector(y0)
    z = u.T @ y0
    small = float(np.min(np.abs(z)))
    if small < DEGENERATE_TOL:
        raise DegenerateVertex(
            f"frame has an edge direction orthogonal to the vertex (|z|_min = {small:.1e})"
        )
    u_fixed = u * np.where(z < 0.0, -1.0, 1.0)
    return u_fixed, 2.0 * np.abs(z)


def construct_vertex_2d(e, x0, functional="edge_length"):
    """Maximal-perimeter parallelogram through a prescribed boundary point.

    With u1 = (cos theta, sin theta), the equality condition g11 = tr(A) z1^2
    reads alpha cos 2theta + beta sin 2theta = 0 (alpha = beta = 0 would make
    A singular). Its roots repeat every quarter turn; the one in [b, b + pi/2),
    b = atan2(y2, y1) + pi/4, is taken. There z_i^2 = g_ii / tr A > 0, so no
    edge vanishes, and the perimeter reaches 4 sqrt(tr A) with the vertex at x0.
    """
    if e.n != 2:
        raise WrongDimension("this construction is planar")
    vc = VertexConstraint.from_point(e, x0)
    (y1, y2), a = vc.y0, e.A
    tr_a = float(np.trace(a))
    alpha = 0.5 * (a[0, 0] - a[1, 1]) - 0.5 * tr_a * (y1 * y1 - y2 * y2)
    beta = a[0, 1] - tr_a * y1 * y2
    base = math.atan2(y2, y1) + 0.25 * math.pi
    theta = base + (0.5 * math.atan2(beta, alpha) + 0.25 * math.pi - base) % (0.5 * math.pi)
    q = geometry.SphereOrthotope(*vertex_lambdas(linalg.givens(2, 0, 1, theta), vc.y0))
    return q, _make_certificate(e, q, functional, vc.x0)


def construct_vertex_eigen_S(e, x0, tol=DEFAULT_TOLERANCES.equalizer_tol, seed=0):
    """Facet-area maximizer through any boundary point (the name predates
    the general case: x0 need not be an eigenvector).

    Uniform lambda = 2/sqrt(n) pins the all-plus vertex at x0 exactly for
    the frames U = U0 V with V 1 = 1, U0 the barycentric basis of y0. Such
    a frame attains S_max when diag(V^T M V) = tr(M)/n, M = U0^T C U0,
    which the barycentric equalizer solves. Where it finds none (at n = 3
    almost always, with a proven floor; sometimes at odd n or through
    general points), NotConverged propagates with the best frame.
    """
    if not valid_tolerance(tol):
        raise NonPositiveInput(f"tol must be a finite number >= 0, got {tol!r}")
    if e.n == 2:
        return construct_vertex_2d(e, x0, functional="facet_area")
    vc = VertexConstraint.from_point(e, x0)
    u0 = equalizer.barycentric_basis(vc.y0)
    rep = equalizer.equalize_diagonal_barycentric(u0.T @ e.C @ u0, tol=tol, seed=seed)
    q = geometry.SphereOrthotope(u0 @ rep.V, np.full(e.n, 2.0 / math.sqrt(e.n)))
    return q, _make_certificate(e, q, "facet_area", vc.x0)


def construct_vertex_eigen_L(e, x0, tol=DEFAULT_TOLERANCES.equalizer_tol, seed=0):
    """Edge-length maximizer through any boundary point (the name predates
    the general case: x0 need not be an eigenvector).

    2^n sqrt(tr A) is attained through x0 exactly when the Cauchy-Schwarz
    equality condition diag(U^T A U) = tr(A) z*z holds, z = U^T y0 free.
    equalizer.multistart solves it on A / tr A (scale-free) from the
    barycentric basis of y0, then from seeded Haar frames, and accepts
    ||r|| <= tol tr(A) with every |z_i| >= 1e-6; otherwise NotConverged
    carries the best report. Every
    point tried so far was solved from the first start: numerical evidence,
    not a theorem.
    """
    if not valid_tolerance(tol):
        raise NonPositiveInput(f"tol must be a finite number >= 0, got {tol!r}")
    if e.n == 2:
        return construct_vertex_2d(e, x0, functional="edge_length")
    n = e.n
    vc = VertexConstraint.from_point(e, x0)
    starts = itertools.chain(
        [equalizer.barycentric_basis(vc.y0)],
        (linalg.random_orthogonal(n, np.random.default_rng((seed, s)))
         for s in range(EDGE_STARTS - 1)),
    )
    rep = equalizer.multistart(
        starts, np.eye(n), equalizer.restricted_l_residual(e.A / np.trace(e.A), vc.y0), tol**2,
        EDGE_STARTS * equalizer.STEPS_PER_START,
        accept=lambda u: float(np.min(np.abs(u.T @ vc.y0))) >= 1e-6,
    )
    if not rep.converged:
        raise NotConverged(
            "restricted diagonal condition not solved after "
            f"{rep.restarts + 1} starts (best residual "
            f"{math.sqrt(rep.final_variance):.3e} tr A)",
            report=rep,
        )
    q = geometry.SphereOrthotope(*vertex_lambdas(rep.V, vc.y0))
    return q, _make_certificate(e, q, "edge_length", vc.x0)


def construct_through_vertex(
    e, x0, functional="facet_area", tol=DEFAULT_TOLERANCES.equalizer_tol, seed=0
):
    """Route a vertex-constrained request to its functional's construction;
    both take any boundary point of any dimension."""
    if functional not in ("edge_length", "facet_area"):
        raise ValueError(f"unknown functional {functional!r}")
    if functional == "edge_length":
        return construct_vertex_eigen_L(e, x0, tol=tol, seed=seed)
    return construct_vertex_eigen_S(e, x0, tol=tol, seed=seed)
