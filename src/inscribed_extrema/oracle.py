"""Stochastic verification against the closed-form bounds, a numerical
explorer for the restricted diagonal-prescription problem, and two
diagnostics (first-order stationarity, tangent-normal dump).

Per-trial randomness comes from counter-based streams default_rng((seed,
trial)), so results are independent of chunking and execution order. Trials
are evaluated in fixed-size chunks purely for numpy throughput.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import functionals, geometry, linalg
from .config import DEFAULT_TOLERANCES
from .constructors import VertexConstraint, vertex_lambdas
from .equalizer import StabilizerState, barycentric_basis, diag_after, triple_min
from .errors import NonPositiveInput, NotInscribed

CHUNK = 2048
DEGENERATE_TOL = 1e-12


@dataclass
class SearchReport:
    trials: int
    best_value: float
    bound: float
    best_gap: float
    best_config: object
    violations: int
    degenerate_skips: int = 0
    best_trial: int = -1
    trace: list = field(default=None, repr=False)

    def to_dict(self):
        return {
            "trials": self.trials,
            "best_value": self.best_value,
            "bound": self.bound,
            "best_gap": self.best_gap,
            "best_config": None if self.best_config is None else self.best_config.to_dict(),
            "violations": self.violations,
            "degenerate_skips": self.degenerate_skips,
            "best_trial": self.best_trial,
        }


@dataclass
class RshReport:
    residual: float
    U: np.ndarray
    target: str
    restarts: int

    def to_dict(self):
        return {
            "residual": self.residual,
            "U": self.U.tolist(),
            "target": self.target,
            "restarts": self.restarts,
        }


def _haar_chunk(n, seed, t0, t1, want_lambda):
    """Per-trial Haar frames (and lambda Gaussians) for trials t0..t1-1."""
    m = t1 - t0
    gauss = np.empty((m, n, n))
    extra = np.empty((m, n)) if want_lambda else None
    for j in range(m):
        rng = np.random.default_rng((seed, t0 + j))
        gauss[j] = rng.standard_normal((n, n))
        if want_lambda:
            extra[j] = rng.standard_normal(n)
    return linalg.haar_from_gaussian(gauss), extra


def _bound_for(e, functional):
    if functional == "edge_length":
        return functionals.bound_L_max(e)
    if functional == "facet_area":
        return functionals.bound_S_max(e)
    raise ValueError(f"unknown functional {functional!r}")


def _search(e, functional, trials, seed, bound_slack, keep_trace, want_lambda, rule):
    """The chunked search loop behind both public searches.

    rule(u, h) turns a chunk of frames (and its lambda Gaussians, None
    unless want_lambda) into edge lengths and a mask of usable frames;
    masked frames are skipped and counted. Returns the report without its
    best configuration, plus the best trial's re-drawn frame and Gaussians.
    """
    trials = int(trials)
    if trials < 1:
        raise NonPositiveInput("trials must be >= 1")
    bound = _bound_for(e, functional)
    limit = bound * (1.0 + bound_slack)
    best_value = -np.inf
    best_trial = -1
    violations = 0
    skips = 0
    trace = [] if keep_trace else None
    for t0 in range(0, trials, CHUNK):
        t1 = min(trials, t0 + CHUNK)
        u, h = _haar_chunk(e.n, seed, t0, t1, want_lambda)
        lam, ok = rule(u, h)
        vals = functionals.evaluate(e, u, lam, functional)
        vals[~ok] = -np.inf
        skips += int(np.sum(~ok))
        violations += int(np.sum(vals > limit))
        k = int(np.argmax(vals))
        if vals[k] > best_value:
            best_value = float(vals[k])
            best_trial = t0 + k
        if keep_trace:
            trace.extend(float(v) for v in vals)
    u, h = _haar_chunk(e.n, seed, best_trial, best_trial + 1, want_lambda)
    report = SearchReport(
        trials=trials,
        best_value=best_value,
        bound=bound,
        best_gap=(bound - best_value) / bound,
        best_config=None,
        violations=violations,
        degenerate_skips=skips,
        best_trial=best_trial,
        trace=trace,
    )
    return report, u[0], None if h is None else h[0]


def random_search_global(
    e, functional, trials, seed, bound_slack=DEFAULT_TOLERANCES.bound_slack, keep_trace=False
):
    """Sample Haar frames with folded-Gaussian edge lengths; certify the bound."""

    def rule(u, h):
        habs = np.abs(h)
        lam = 2.0 * habs / np.linalg.norm(habs, axis=1, keepdims=True)
        return lam, np.ones(len(u), dtype=bool)

    report, u, h = _search(e, functional, trials, seed, bound_slack, keep_trace, True, rule)
    # the 1-D norm, not the chunk's row norm: the two can differ in the last
    # bit, and the reported configuration has always used this one
    habs = np.abs(h)
    report.best_config = geometry.SphereOrthotope(u, 2.0 * habs / np.linalg.norm(habs))
    return report


def random_search_vertex(
    e, x0, functional, trials, seed, bound_slack=DEFAULT_TOLERANCES.bound_slack,
    keep_trace=False,
):
    """Like the global search, but every sample's all-plus vertex is pinned to x0.

    Frames whose z = U^T y0 has a near-zero entry cannot carry a
    nondegenerate parallelepiped through the vertex; those draws are skipped
    and counted, not replaced.
    """
    vc = VertexConstraint.from_point(e, x0)

    def rule(u, h):
        z = np.einsum("tij,i->tj", u, vc.y0)
        ok = np.min(np.abs(z), axis=1) >= DEGENERATE_TOL
        lam = 2.0 * np.abs(z)
        lam[~ok] = 1.0  # placeholder, masked out by the loop
        return lam, ok

    report, u, _ = _search(e, functional, trials, seed, bound_slack, keep_trace, False, rule)
    report.best_config = geometry.SphereOrthotope(*vertex_lambdas(u, vc.y0))
    return report


def _rotate_cols(u, i, j, theta):
    out = u.copy()
    c, s = math.cos(theta), math.sin(theta)
    out[:, i] = c * u[:, i] + s * u[:, j]
    out[:, j] = -s * u[:, i] + c * u[:, j]
    return out


def _explore_edge(a, y0, restarts, iters, seed):
    n = a.shape[0]
    tr_a = float(np.trace(a))

    def resid2(u):
        z = u.T @ y0
        r = functionals.diag_quadratic(u, a) - tr_a * z * z
        return float(r @ r)

    sigmas = np.geomspace(0.3, 1e-6, max(iters, 2))
    best_u, best_r2 = np.eye(n), resid2(np.eye(n))
    for rs in range(restarts):
        rng = np.random.default_rng((seed, rs))
        u = linalg.random_orthogonal(n, rng)
        r2 = resid2(u)
        for k in range(iters):
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            theta = float(sigmas[k] * rng.standard_normal())
            u2 = _rotate_cols(u, i, j, theta)
            r2_new = resid2(u2)
            if r2_new < r2:
                u, r2 = u2, r2_new
        # coordinate sweeps with exact one-angle minimization
        for _ in range(200):
            start = r2
            for i in range(n - 1):
                for j in range(i + 1, n):
                    found = linalg.trig_argmin(lambda t: resid2(_rotate_cols(u, i, j, t)))
                    if found is None:
                        continue
                    theta, val = found
                    if val < r2 * (1.0 - 1e-14):
                        u = _rotate_cols(u, i, j, theta)
                        r2 = resid2(u)
            if r2 >= start * (1.0 - 5e-3) or r2 < 1e-30:
                break
        if r2 < best_r2:
            best_u, best_r2 = u.copy(), r2
    return RshReport(
        residual=math.sqrt(max(best_r2, 0.0)), U=best_u, target="edge_length",
        restarts=restarts,
    )


def _explore_facet(a, y0, restarts, iters, seed):
    n = a.shape[0]
    c_mat = linalg.spd_inverse(a)
    u0 = barycentric_basis(y0)
    mt = linalg.sym_matrix(u0.T @ c_mat @ u0)
    t = float(np.trace(mt)) / n
    sigmas = np.geomspace(0.3, 1e-6, max(iters, 2))
    base_state = StabilizerState(mt, t)
    best_v, best_psi = base_state.v.copy(), base_state.psi()
    for rs in range(restarts):
        rng = np.random.default_rng((seed, rs))
        state = StabilizerState(mt, t)
        for _ in range(n):
            trip = rng.permutation(n)[:3]
            state.apply(int(trip[0]), int(trip[1]), int(trip[2]), rng.uniform(0.0, 2.0 * math.pi))
        psi = state.psi()
        for k in range(iters):
            trip = rng.permutation(n)[:3]
            p, q, r = int(trip[0]), int(trip[1]), int(trip[2])
            theta = float(sigmas[k] * rng.standard_normal())
            b6 = state.block6(p, q, r)
            dp, dq, dr = diag_after(b6, theta)
            rest = psi - (b6[0] - t) ** 2 - (b6[1] - t) ** 2 - (b6[2] - t) ** 2
            psi_new = rest + (dp - t) ** 2 + (dq - t) ** 2 + (dr - t) ** 2
            if psi_new < psi:
                state.apply(p, q, r, theta)
                psi = state.psi()
        for _ in range(200):
            start = state.psi()
            for p, q, r in combinations(range(n), 3):
                found = triple_min(state, p, q, r)
                if found is None:
                    continue
                theta, psi_new = found
                if psi_new < state.psi() * (1.0 - 1e-14):
                    state.apply(p, q, r, theta)
            psi = state.psi()
            if psi >= start * (1.0 - 5e-3) or psi < 1e-30:
                break
        state.resync()
        psi = state.psi()
        if psi < best_psi:
            best_v, best_psi = state.v.copy(), psi
    return RshReport(
        residual=math.sqrt(max(best_psi, 0.0)), U=u0 @ best_v, target="facet_area",
        restarts=restarts,
    )


def explore_restricted_schur_horn(a, y0, target, restarts=8, iters=2000, seed=0):
    """Minimize the restricted diagonal-prescription residual over frames.

    target="edge_length": ||diag(U^T A U) - tr(A) z@z||_2 with z = U^T y0
    free; annealed random plane rotations plus exact coordinate sweeps.
    target="facet_area": same residual with M = A^-1 and z pinned to
    1/sqrt(n), i.e. frames U0 V with V in the stabilizer of the ones vector.
    Reports the best residual found; no optimality claim.
    """
    a = linalg.spd_matrix(a)
    y0 = linalg.unit_vector(y0)
    if target == "edge_length":
        return _explore_edge(a, y0, restarts, iters, seed)
    if target == "facet_area":
        return _explore_facet(a, y0, restarts, iters, seed)
    raise ValueError(f"unknown target {target!r}")


def stationarity_check(e, q, functional, h=1e-5):
    """Max |directional central difference| along the constraint manifold.

    Directions: every coordinate-plane frame rotation (lambda fixed), and a
    tangent basis of the sphere sum(lambda^2) = 4 (frame fixed, perturbed
    lambda retracted back to the sphere).
    """
    u0 = q.U
    lam0 = q.lam
    n = e.n

    def value(u, lam):
        return float(functionals.evaluate(e, u, lam, functional))

    worst = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            up = value(_rotate_cols(u0, i, j, h), lam0)
            um = value(_rotate_cols(u0, i, j, -h), lam0)
            worst = max(worst, abs(up - um) / (2.0 * h))
    e1 = np.zeros(n)
    e1[0] = 1.0
    w = linalg.householder_to(e1, lam0 / np.linalg.norm(lam0))
    for k in range(1, n):
        tangent = w[:, k]
        lp = lam0 + h * tangent
        lp = 2.0 * lp / np.linalg.norm(lp)
        lm = lam0 - h * tangent
        lm = 2.0 * lm / np.linalg.norm(lm)
        worst = max(worst, abs(value(u0, lp) - value(u0, lm)) / (2.0 * h))
    return worst


@dataclass(frozen=True)
class TangentNormalsDump:
    vertices: np.ndarray
    normals: np.ndarray
    gram: np.ndarray


def tangent_normals_dump(e, p, tol=DEFAULT_TOLERANCES.inscribed_tol):
    """Outward unit normals C x / ||C x|| at all 2^n vertices, plus their Gram
    matrix. Diagnostic only; nothing is asserted about the angles."""
    rep = geometry.is_inscribed(e, p, tol)
    if not rep.inscribed:
        raise NotInscribed(
            f"parallelepiped is not inscribed (max vertex residual {rep.max_residual:.3e})"
        )
    verts = geometry.vertices(p)
    raw = verts @ e.C
    normals = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return TangentNormalsDump(vertices=verts, normals=normals, gram=normals @ normals.T)
