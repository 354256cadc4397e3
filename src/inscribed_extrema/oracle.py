"""Stochastic verification against the closed-form bounds, and a numerical
explorer for the restricted diagonal-prescription problem (the pinning
equalizer for the edge target, the barycentric equalizer for the facet
target).

Each search trial owns a fixed block of a counter-based Philox stream keyed
by the seed (Salmon, Moraes, Dror & Shaw, SC'11), turned into normals by
Box-Muller, so results are independent of chunking and execution order.
One generator serves a whole search, its chunks being successive counter
ranges. Trials are evaluated in fixed-size chunks purely for numpy
throughput, with the trial axis last and contiguous from the Box-Muller
rows to the values, so every pass is elementwise over trials.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import equalizer, functionals, geometry, linalg
from .config import DEFAULT_TOLERANCES, valid_tolerance
from .constructors import DEGENERATE_TOL, VertexConstraint, vertex_lambdas
from .errors import DimensionMismatch, DimensionTooSmall, NonPositiveInput, NotConverged

CHUNK = 1024
EXPLORER_RESTARTS = 8  # the explorer's default budget, in units of equalizer.STEPS_PER_START


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
        d = {**vars(self), "best_config": self.best_config and self.best_config.to_dict()}
        del d["trace"]  # the per-trial values go to the CSV trace, not the JSON
        return d


@dataclass
class RshReport:
    residual: float
    U: np.ndarray
    target: str
    restarts: int

    def to_dict(self):
        return {**vars(self), "U": self.U.tolist()}


def _stream(seed, t0, k):
    """A search's Philox generator at trial t0, k normals per trial: trial t owns
    the counters t*block+1 .. (t+1)*block, block = ceil(k/4), keyed by the seed."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return np.random.Philox(key=key, counter=[t0 * -(-k // 4), 0, 0, 0])


def _normals(bitgen, trials, k):
    """k standard normals (k even) for each of bitgen's next trials, (k, trials).

    A trial's first k raw words w become the uniforms ((w >> 12) + 1/2)
    2^-52, strictly inside (0, 1): under the exponent bits of 1.0, w >> 12
    is the float 1 + (w >> 12) 2^-52, and subtracting 1 - 2^-53 from it is
    exact (Sterbenz's lemma).
    Box-Muller pairs word i (radius) with word i + k/2 (angle), so every
    trial costs the same fixed number of words.
    """
    block = -(-k // 4)
    raw = bitgen.random_raw(trials * block * 4).reshape(trials, block * 4)
    w = np.right_shift(raw[:, :k].T, 12, out=np.empty((k, trials), np.uint64))
    w |= 0x3FF0000000000000  # the exponent of 1.0
    g = w.view(np.float64)
    g -= 1.0 - 2.0**-53
    r, theta = g[: k // 2], g[k // 2 :]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * math.pi
    s = np.sin(theta)
    np.cos(theta, out=theta)
    theta *= r
    r *= s
    return g


def _frames(n, seed, want_lambda):
    """draw(trials) returns a search's next Haar frames (n, n, trials), from trial 0
    on, and their lambda Gaussians (n, trials), None unless want_lambda."""
    k = n * (n + 1) if want_lambda else n * n + n % 2
    bitgen = _stream(seed, 0, k)

    def draw(trials):
        g = _normals(bitgen, trials, k)
        extra = g[n * n : n * n + n] if want_lambda else None
        return linalg.haar_from_gaussian(g[: n * n].reshape(n, n, trials)), extra

    return draw


def _search(e, functional, trials, seed, bound_slack, keep_trace, want_lambda, rule, config):
    """The chunked search loop behind both public searches.

    rule(u, h) turns a chunk of frames (and its lambda Gaussians, None
    unless want_lambda) into edge lengths and a mask of usable frames;
    masked frames are skipped and counted. The best trial's frame and edge
    lengths are kept from the chunk that scored them, and config(u, lam)
    makes them the report's best_config (None if every trial was skipped).
    """
    trials = int(trials)
    if trials < 1:
        raise NonPositiveInput("trials must be >= 1")
    if seed < 0:
        raise NonPositiveInput("seed must be >= 0")
    if not valid_tolerance(bound_slack):
        raise NonPositiveInput(f"bound_slack must be a finite number >= 0, got {bound_slack!r}")
    bound = functionals.bound(e, functional)
    limit = bound * (1.0 + bound_slack)
    best_value = -np.inf
    best_trial = -1
    best_u = best_lam = None
    violations = 0
    skips = 0
    trace = [] if keep_trace else None
    draw = _frames(e.n, seed, want_lambda)
    for t0 in range(0, trials, CHUNK):
        u, h = draw(min(trials, t0 + CHUNK) - t0)
        lam, ok = rule(u, h)
        vals = functionals.evaluate(e, u, lam, functional)
        vals[~ok] = -np.inf
        skips += int(np.sum(~ok))
        violations += int(np.sum(vals > limit))
        k = int(np.argmax(vals))
        if vals[k] > best_value:
            best_value = float(vals[k])
            best_trial = t0 + k
            best_u, best_lam = u[..., k].copy(), lam[:, k].copy()
        if keep_trace:
            trace.extend(vals.tolist())
    return SearchReport(
        trials=trials,
        best_value=best_value,
        bound=bound,
        best_gap=(bound - best_value) / bound,
        best_config=None if best_u is None else config(best_u, best_lam),
        violations=violations,
        degenerate_skips=skips,
        best_trial=best_trial,
        trace=trace,
    )


def random_search_global(
    e, functional, trials, seed, bound_slack=DEFAULT_TOLERANCES.bound_slack, keep_trace=False
):
    """Sample Haar frames with folded-Gaussian edge lengths; certify the bound.
    best_config carries the edge lengths best_value was computed from."""

    def rule(u, h):
        habs = np.abs(h)
        return 2.0 * habs / np.sqrt(linalg.lane_sum(habs * habs)), np.ones(h.shape[1], dtype=bool)

    return _search(
        e, functional, trials, seed, bound_slack, keep_trace, True, rule, geometry.SphereOrthotope
    )


def random_search_vertex(
    e, x0, functional, trials, seed, bound_slack=DEFAULT_TOLERANCES.bound_slack,
    keep_trace=False,
):
    """Like the global search, but every sample's all-plus vertex is pinned to x0.

    Frames whose z = U^T y0 has a near-zero entry cannot carry a
    nondegenerate parallelepiped through the vertex; those draws are skipped
    and counted, not replaced. best_config carries the edge lengths
    best_value was computed from; vertex_lambdas only sets its column signs.
    """
    vc = VertexConstraint.from_point(e, x0)

    def rule(u, h):
        z = np.sum(vc.y0[:, None, None] * u, axis=0)
        ok = np.min(np.abs(z), axis=0) >= DEGENERATE_TOL
        lam = 2.0 * np.abs(z)
        lam[:, ~ok] = 1.0  # placeholder, masked out by the loop
        return lam, ok

    def config(u, lam):
        return geometry.SphereOrthotope(vertex_lambdas(u, vc.y0)[0], lam)

    return _search(e, functional, trials, seed, bound_slack, keep_trace, False, rule, config)


def explore_restricted_schur_horn(a, y0, target, restarts=EXPLORER_RESTARTS, seed=0):
    """Minimize the restricted diagonal-prescription residual over frames.

    target="edge_length": ||diag(U^T A U) - tr(A) z@z||_2 with z = U^T y0
    free, over all frames U. That is tr(A) ||diag(U^T N U)|| with
    N = A / tr A - y0 y0^T, whose zero diagonal one pass of the pinning
    equalizer reaches (the edge-length vertex construction's route), so the
    residual is 0 up to rounding and restarts and seed do not move it.
    target="facet_area": same residual with M = A^-1 and z pinned to
    1/sqrt(n), i.e. frames U0 V with V in the stabilizer of the ones vector:
    the barycentric equalizer on U0^T C U0 at tol 0, with a budget of
    restarts * STEPS_PER_START solver steps and the seed as its start
    stream. At n = 3 that is the proven closed-form floor, and at n = 2 the
    stabilizer is trivial, so U = U0. Elsewhere it reports the best residual
    found; no optimality claim. Both targets are solved on their matrix
    over its trace (Ellipsoid.unit_trace for A), and the residual is multiplied
    back by that trace, so no scale of A overflows or underflows it.
    """
    n = linalg.as_square(a).shape[0]
    if n < 2:
        raise DimensionTooSmall("the explorer needs n >= 2")
    if restarts < 0:
        raise NonPositiveInput("restarts must be >= 0")
    if seed < 0:
        raise NonPositiveInput("seed must be >= 0")
    e = geometry.Ellipsoid(a)
    y0 = linalg.unit_vector(y0)
    if y0.size != n:
        raise DimensionMismatch("y0 dimension does not match the matrix")
    if target == "edge_length":
        unit, scale, k = e.unit_trace()  # tr A = scale 4^k
        m = unit - np.outer(y0, y0)
        u = equalizer.equalize_diagonal(m).V
        residual = float(np.linalg.norm(functionals.diag_quadratic(u, m)))
    elif target == "facet_area":
        u0 = equalizer.barycentric_basis(y0)
        m = linalg.sym_matrix(u0.T @ e.C @ u0)
        scale, k = float(np.trace(m)), 0
        m = m / scale
        if n == 2:
            u, residual = u0, float(np.linalg.norm(np.diag(m) - np.trace(m) / 2))
        else:
            try:
                rep = equalizer.equalize_diagonal_barycentric(
                    m, tol=0.0, max_iter=restarts * equalizer.STEPS_PER_START, seed=seed
                )
            except NotConverged as exc:
                rep = exc.report
            u, residual = u0 @ rep.V, math.sqrt(rep.final_variance)
    else:
        raise ValueError(f"unknown target {target!r}")
    return RshReport(math.ldexp(residual * scale, 2 * k), u, target, restarts)
