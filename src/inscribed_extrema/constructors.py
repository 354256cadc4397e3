"""Extremal inscribed parallelepipeds.

Global maximizers for both functionals, and vertex-constrained maximizers in
the cases with a known construction: any boundary point for n=2, eigenvector
boundary points for n >= 3. The eigenvector routes solve their diagonal
conditions with equalizer.gauss_newton_frame; for n = 3 edge length that is
the free-z residual equalizer.restricted_l_residual. The general
vertex-constrained case for n >= 3 is open; the dispatcher routes it to
UnsupportedCase and the oracle explorer, on the same solver, gathers
evidence instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import equalizer, functionals, geometry, linalg
from .config import DEFAULT_TOLERANCES
from .errors import (
    DegenerateVertex,
    DimensionMismatch,
    NotConverged,
    NotEigenvector,
    NotOnBoundary,
    UnsupportedCase,
    WrongDimension,
)

EIGENVECTOR_TOL = 1e-8   # deliberately loose; final vertex residuals are the real gate
BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class VertexConstraint:
    """Boundary point x0 and its unit-sphere preimage y0 = B^-1 x0."""

    x0: np.ndarray
    y0: np.ndarray

    @classmethod
    def from_point(cls, e, x0, boundary_tol=BOUNDARY_TOL):
        x0 = np.asarray(x0, dtype=float).ravel()
        if x0.size != e.n:
            raise DimensionMismatch("vertex dimension does not match the ellipsoid")
        res = e.boundary_residual(x0)
        if res > boundary_tol:
            raise NotOnBoundary(f"|x0^T C x0 - 1| = {res:.3e} > {boundary_tol:.1e}")
        y0 = e.Binv @ x0
        y0 = y0 / np.linalg.norm(y0)
        return cls(x0=x0, y0=y0)


@dataclass(frozen=True)
class ExtremalCertificate:
    achieved: functionals.FunctionalValue
    bound: float
    relative_gap: float
    equality_residuals: dict

    def to_dict(self):
        return {
            "achieved": self.achieved.value,
            "functional": self.achieved.functional_kind,
            "condition": self.achieved.condition,
            "bound": self.bound,
            "relative_gap": self.relative_gap,
            "equality_residuals": dict(self.equality_residuals),
        }


def _make_certificate(e, q, kind, bound, residuals):
    p = geometry.orthotope_to_parallelepiped(e, q)
    residuals = dict(residuals)
    residuals["inscribed"] = geometry.is_inscribed(e, p).max_residual
    if kind == "edge_length":
        achieved = functionals.edge_length_total(e, q)
    else:
        achieved = functionals.facet_area_total_gram(p)
        factored = functionals.facet_area_total_factored(e, q)
        residuals["factored_vs_gram"] = abs(factored.value - achieved.value) / achieved.value
    gap = (bound - achieved.value) / bound
    return ExtremalCertificate(
        achieved=achieved,
        bound=bound,
        relative_gap=gap,
        equality_residuals=residuals,
    )


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
    prop = float(np.max(np.abs(lam * root_tr - 2.0 * np.sqrt(g))))
    cert = _make_certificate(
        e, q, "edge_length", functionals.bound_L_max(e),
        {"lambda_proportionality": prop},
    )
    return q, cert


def construct_S_max(e):
    """Maximal total facet area: uniform lambda and an equal-diagonal frame.

    The frame is the eigenframe of C composed with an unconstrained diagonal
    equalizer run on the spectrum, so diag(U^T C U) = tr(C)/n * 1.
    """
    n = e.n
    w, qc = np.linalg.eigh(e.C)
    rep = equalizer.equalize_diagonal(np.diag(w))
    u = qc @ rep.V
    lam = np.full(n, 2.0 / math.sqrt(n))
    q = geometry.SphereOrthotope(u, lam)
    dev = float(np.max(np.abs(functionals.diag_quadratic(u, e.C) - np.sum(w) / n)))
    cert = _make_certificate(
        e, q, "facet_area", functionals.bound_S_max(e),
        {"diagonal_equalization": dev},
    )
    return q, cert


def vertex_lambdas(u, y0, degenerate_tol=1e-12):
    """Flip column signs so the all-plus vertex of (U', 2|U^T y0|) is y0."""
    u = np.asarray(u, dtype=float)
    y0 = linalg.unit_vector(y0)
    z = u.T @ y0
    small = float(np.min(np.abs(z)))
    if small < degenerate_tol:
        raise DegenerateVertex(
            f"frame has an edge direction orthogonal to the vertex (|z|_min = {small:.1e})"
        )
    u_fixed = u * np.where(z < 0.0, -1.0, 1.0)
    return u_fixed, 2.0 * np.abs(z)


def construct_vertex_2d(e, x0, functional="edge_length"):
    """Maximal-perimeter parallelogram through a prescribed boundary point.

    Solves F(theta) = arctan sqrt(g11/g22) - atan2(beta1, beta2) = 0 by
    bisection; F is antisymmetric under a quarter turn, which supplies the
    bracket. At a root the Cauchy-Schwarz equality condition holds, so the
    perimeter reaches 4 sqrt(tr A) while the all-plus vertex stays at x0.
    """
    if e.n != 2:
        raise WrongDimension("this construction is planar")
    vc = VertexConstraint.from_point(e, x0)
    y0 = vc.y0
    base = math.atan2(y0[1], y0[0]) + 0.25 * math.pi

    def f_value(theta):
        u = linalg.givens(2, 0, 1, theta)
        g = functionals.diag_quadratic(u, e.A)
        beta = np.abs(u.T @ y0)
        return math.atan(math.sqrt(g[0] / g[1])) - math.atan2(beta[0], beta[1])

    def solve(theta_lo):
        f_lo = f_value(theta_lo)
        # antisymmetry under the quarter turn supplies the bracket
        return linalg.bracketed_root(f_value, theta_lo, theta_lo + 0.5 * math.pi, f_lo, -f_lo)

    theta = solve(base)
    z = linalg.givens(2, 0, 1, theta).T @ y0
    if float(np.min(np.abs(z))) < 1e-8:
        # degenerate root; shift the bracket and take the other orientation
        theta = solve(base + 1e-4)
        z = linalg.givens(2, 0, 1, theta).T @ y0
        if float(np.min(np.abs(z))) < 1e-8:
            raise DegenerateVertex("both bisection roots give a vanishing edge")
    u_fixed, lam = vertex_lambdas(linalg.givens(2, 0, 1, theta), y0)
    q = geometry.SphereOrthotope(u_fixed, lam)
    p = geometry.orthotope_to_parallelepiped(e, q)
    vertex_res = float(np.linalg.norm(geometry.all_plus_vertex(p) - vc.x0))
    cert = _make_certificate(
        e, q, functional, functionals.bound_L_max(e),
        {"vertex": vertex_res, "root": abs(f_value(theta))},
    )
    return q, cert


def _eigen_residual(e, y0):
    """(||C y0 - mu y0||, gate): y0 counts as an eigenvector direction of C
    when the residual is within the gate."""
    mu = float(y0 @ e.C @ y0)
    res = float(np.linalg.norm(e.C @ y0 - mu * y0))
    return res, EIGENVECTOR_TOL * float(np.max(np.abs(1.0 / e.eigenvalues)))


def _require_eigenvector(e, y0):
    res, gate = _eigen_residual(e, y0)
    if res > gate:
        raise NotEigenvector(
            f"y0 is not an eigenvector direction (residual {res:.3e} > {gate:.1e})"
        )
    return res


def _barycentric_pipeline(e, vc, m_matrix, tol, seed):
    """Shared eigenvector-vertex route: barycentric basis, then the
    constrained equalizer on the conjugated matrix."""
    n = e.n
    u0 = equalizer.barycentric_basis(vc.y0)
    m = linalg.sym_matrix(u0.T @ m_matrix @ u0)
    # the row-sum defect inherits the loose eigenvector gate, not 1e-9||M||
    eig_res, _ = _eigen_residual(e, vc.y0)
    scale = float(np.max(np.abs(m)))
    row_tol = 1e-9 * (scale if scale > 0 else 1.0) + 4.0 * math.sqrt(n) * eig_res * float(
        np.max(np.abs(m_matrix))
    )
    rep = equalizer.equalize_diagonal_barycentric(
        m, tol=tol, seed=seed, row_tol=row_tol
    )
    u = u0 @ rep.V
    lam = np.full(n, 2.0 / math.sqrt(n))
    return geometry.SphereOrthotope(u, lam), rep


def construct_vertex_eigen_S(e, x0, tol=DEFAULT_TOLERANCES.equalizer_tol, seed=0):
    """Facet-area maximizer through an eigenvector boundary point.

    Feasible whenever the constrained equalizer converges: always for
    balls, and for every n = 4, 6 and 8 input seen so far. It is provably
    impossible for n=3 with an anisotropic restriction, and some odd-n
    inputs (n = 5, rarely n = 7) have a positive variance floor; then
    NotConverged propagates with the best frame found.
    """
    if e.n == 2:
        return construct_vertex_2d(e, x0, functional="facet_area")
    vc = VertexConstraint.from_point(e, x0)
    _require_eigenvector(e, vc.y0)
    q, rep = _barycentric_pipeline(e, vc, e.C, tol, seed)
    p = geometry.orthotope_to_parallelepiped(e, q)
    vertex_res = float(np.linalg.norm(geometry.all_plus_vertex(p) - vc.x0))
    dev = float(np.max(np.abs(functionals.diag_quadratic(q.U, e.C) - np.trace(e.C) / e.n)))
    cert = _make_certificate(
        e, q, "facet_area", functionals.bound_S_max(e),
        {
            "vertex": vertex_res,
            "diagonal_equalization": dev,
            "barycentric": float(np.max(np.abs(q.U.T @ vc.y0 - 1.0 / math.sqrt(e.n)))),
        },
    )
    return q, cert


def _solve_restricted_l_3d(e, y0, seed, max_starts=60):
    """diag(U^T A U) = tr(A) (U^T y0)^2 solved directly for n = 3.

    The residual sums to zero identically, so the system is two equations in
    the three rotation generators; Gauss-Newton from seeded random starts
    converges quadratically. Solutions with a near-zero z entry are rejected
    (they cannot carry a nondegenerate parallelepiped).
    """
    thresh = (1e-12 * (1.0 + float(np.trace(e.A)))) ** 2
    residual = equalizer.restricted_l_residual(e.A, y0)
    eye = np.eye(3)
    g = linalg.givens
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(max_starts):
        angles = rng.uniform(0.0, 2.0 * math.pi, 3)
        u0 = g(3, 0, 1, angles[0]) @ g(3, 0, 2, angles[1]) @ g(3, 1, 2, angles[2])
        u, psi, _ = equalizer.gauss_newton_frame(
            u0, eye, residual, thresh, equalizer.STEPS_PER_START
        )
        if psi <= thresh and float(np.min(np.abs(u.T @ y0))) >= 1e-6:
            return u, math.sqrt(psi)
        best = min(best, psi)
    raise NotConverged(
        f"restricted diagonal condition not solved (best residual {math.sqrt(best):.3e})"
    )


def construct_vertex_eigen_L(e, x0, tol=DEFAULT_TOLERANCES.equalizer_tol, seed=0):
    """Edge-length maximizer through an eigenvector boundary point.

    For n >= 4 the barycentric equalizer route applies verbatim. For n = 3
    that route only works when the conjugated matrix has an isotropic
    restriction (balls), so after a cheap attempt the constructor solves the
    underlying diagonal condition with a free z = U^T y0 instead; the bound
    2^n sqrt(tr A) is still attained exactly.
    """
    if e.n == 2:
        return construct_vertex_2d(e, x0, functional="edge_length")
    vc = VertexConstraint.from_point(e, x0)
    _require_eigenvector(e, vc.y0)
    residuals = {}
    try:
        q, _ = _barycentric_pipeline(e, vc, e.A, tol, seed)
    except NotConverged:
        if e.n >= 4:
            raise
        u, residuals["solver"] = _solve_restricted_l_3d(e, vc.y0, seed)
        q = geometry.SphereOrthotope(*vertex_lambdas(u, vc.y0))
    z = q.U.T @ vc.y0
    cond_res = float(
        np.linalg.norm(
            functionals.diag_quadratic(q.U, e.A) - np.trace(e.A) * z * z
        )
    )
    p = geometry.orthotope_to_parallelepiped(e, q)
    vertex_res = float(np.linalg.norm(geometry.all_plus_vertex(p) - vc.x0))
    residuals.update({"vertex": vertex_res, "restricted_diagonal": cond_res})
    cert = _make_certificate(e, q, "edge_length", functionals.bound_L_max(e), residuals)
    return q, cert


def construct_through_vertex(
    e, x0, functional="facet_area", tol=DEFAULT_TOLERANCES.equalizer_tol, seed=0
):
    """Route a vertex-constrained request to the case that can solve it.

    n=2 always works; for n >= 3 only eigenvector boundary points have a
    construction (balls included, every direction is an eigenvector there).
    Everything else is the open case: UnsupportedCase points at the
    restricted Schur-Horn explorer in the oracle module.
    """
    if functional not in ("edge_length", "facet_area"):
        raise ValueError(f"unknown functional {functional!r}")
    if e.n == 2:
        return construct_vertex_2d(e, x0, functional=functional)
    vc = VertexConstraint.from_point(e, x0)
    res, gate = _eigen_residual(e, vc.y0)
    if res > gate:
        raise UnsupportedCase(
            "no construction is known through a non-eigenvector boundary point for "
            "n >= 3; explore_restricted_schur_horn gathers numerical evidence instead"
        )
    if functional == "facet_area":
        return construct_vertex_eigen_S(e, x0, tol=tol, seed=seed)
    return construct_vertex_eigen_L(e, x0, tol=tol, seed=seed)
