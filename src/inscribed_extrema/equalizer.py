"""Constructive diagonal equalization with plane rotations.

Two regimes:

* equalize_diagonal: unconstrained, a finite pinning scheme that needs at
  most n-1 Givens rotations (the equal-diagonal target is majorized by the
  spectrum, so every step is solvable in closed form).

* equalize_diagonal_barycentric: the frame must fix the all-ones vector.
  At n = 3 the stabilizer is one circle of rotations, on which the diagonal
  variance is a + b cos 3x + c sin 3x: three evaluations give its proven
  minimum, and the problem is feasible only where a = hypot(b, c). For
  n >= 4 gauss_newton_frame solves diag(V^T M V) = tr(M)/n on the
  stabilizer with Cayley steps generated inside the ones-complement, from
  the identity and then from seeded random stabilizer elements; for n=5
  (odd n in general) there are open sets of row-constant inputs whose
  variance has a positive floor. NotConverged then carries the best frame.

equalize_diagonal also builds the edge-length vertex construction: the
Cauchy-Schwarz condition through a boundary point is a zero diagonal for
A / tr A - y0 y0^T. gauss_newton_frame is the one solver for diagonal
prescriptions on a frame, and equalize_diagonal_barycentric its one
caller; the vertex facet construction and the facet target of the
oracle's explorer both go through that equalizer.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import DEFAULT_TOLERANCES, check_count, check_tolerance
from .errors import DimensionTooSmall, NotConverged, OutOfRange

# Gauss-Newton needs a handful of steps near a regular root; a start that
# has not converged in STEPS_PER_START is crawling and gives way to the next
STEPS_PER_START = 60
# consecutive rejected steps that end a start: each rejection damps the
# step 4x harder, so the last one tried is already tiny; near a positive
# floor the steps only crawl, and a fresh start costs less
MAX_REJECTS = 8


@dataclass
class EqualizationReport:
    V: np.ndarray
    iterations: int
    variance_history: list
    converged: bool
    final_variance: float = 0.0
    restarts: int = 0
    threshold: float = 0.0

    def to_dict(self):
        return {**vars(self), "V": self.V.tolist(), "variance_history": list(self.variance_history)}


def barycentric_basis(y0):
    """Orthonormal frame whose columns average to y0/sqrt(n) rescaled.

    Concretely U with U (1/sqrt(n)) 1 = y0, hence <y0, u_i> = 1/sqrt(n)
    for every column.
    """
    y0 = linalg.unit_vector(y0)
    n = y0.size
    return linalg.householder_to(np.full(n, 1.0 / math.sqrt(n)), y0)


def ones_frame(n):
    """Rotation h whose first column is the unit all-ones vector; h[:, 1:]
    is an orthonormal basis of the ones-complement."""
    e1 = np.zeros(n)
    e1[0] = 1.0
    return linalg.householder_to(e1, np.full(n, 1.0 / math.sqrt(n)))


def random_stabilizer(h, rng):
    """Haar random rotation fixing the all-ones direction h[:, 0].

    h is ones_frame(n). The determinant is forced to +1 so every start lies in the identity's
    component, which the Cayley steps never leave.
    """
    n = h.shape[0]
    r = linalg.random_orthogonal(n - 1, rng)
    if np.linalg.det(r) < 0.0:
        r[:, 0] = -r[:, 0]
    block = np.eye(n)
    block[1:, 1:] = r
    return h @ block @ h.T


def equalize_diagonal(m, tol=DEFAULT_TOLERANCES.equalizer_tol):
    """Equalize diag(V^T M V) with at most n-1 Givens rotations.

    Pinning scheme: rotate the (argmax, argmin) diagonal pair so the larger
    entry lands exactly on tr(M)/n, then freeze that index. The angle solves
    (a+c)/2 + ((a-c)/2) cos 2t + b sin 2t = tr(M)/n, always solvable because
    the active maximum and minimum straddle the mean. Entries count as equal
    within tol max|M|, so the scale of M does not matter; the report's
    variances and threshold are in units of max|M| too. The pass also stops
    when the active entries tie: each is then the mean up to rounding, and
    the argmax and argmin pair would be one index, no rotation.
    """
    check_tolerance(tol, "tol")
    m = linalg.require_finite(linalg.sym_matrix(m), OutOfRange)
    n = m.shape[0]
    t = float(np.trace(m)) / n
    scale = float(np.max(np.abs(m))) or 1.0
    entry_tol = tol * scale

    def variance(d):
        return float(np.sum(((d - t) / scale) ** 2))

    v = np.eye(n)
    w = m.copy()
    active = list(range(n))
    history = [variance(np.diag(w))]
    iters = 0
    while iters < n - 1:
        d = np.diag(w)
        act = np.array(active)
        p = act[np.argmax(d[act])]
        q = act[np.argmin(d[act])]
        if p == q or np.max(np.abs(d - t)) <= entry_tol:  # p == q: the active entries tie
            break
        a, c, b = w[p, p], w[q, q], w[p, q]
        u = 0.5 * (a - c)
        radius = math.hypot(u, b)
        want = t - 0.5 * (a + c)
        two_theta = math.atan2(b, u) + math.acos(max(-1.0, min(1.0, want / radius)))
        g = linalg.givens(n, p, q, 0.5 * two_theta)
        v = v @ g
        w = g.T @ w @ g
        active.remove(p)
        iters += 1
        history.append(variance(np.diag(w)))
    final = linalg.sym_matrix(v.T @ m @ v)
    dev = float(np.max(np.abs(np.diag(final) - t)))
    return EqualizationReport(
        V=v,
        iterations=iters,
        variance_history=history,
        converged=dev <= entry_tol,
        final_variance=variance(np.diag(final)),
        threshold=tol,
    )


def diag_residual(m, t, q):
    """Residual diag(V^T M V) - t with its Jacobian, for gauss_newton_frame.

    Along Omega_ab the diagonal moves by 2 diag(W Omega_ab), W = V^T M V,
    which is 2 (P[:, a] * q_b - P[:, b] * q_a) with P = W Q.
    """
    a, b = np.triu_indices(q.shape[1], 1)
    qa, qb = q[:, a], q[:, b]

    def residual(v):
        w = v.T @ m @ v
        p = w @ q
        return np.diag(w) - t, 2.0 * (p[:, a] * qb - p[:, b] * qa)

    return residual


def gauss_newton_frame(v, m, t, q, thresh, max_steps):
    """Riemannian Gauss-Newton with Levenberg-Marquardt damping for the
    residual r(V) = diag(V^T M V) - t of an orthogonal frame.

    The frame moves as V <- V cay(Q S Q^T), S skew and cay the Cayley
    retraction, so V only turns within the span of q's two or more
    orthonormal columns; q spans the ones-complement, and every iterate
    fixes the ones vector. diag_residual gives r and its Jacobian J,
    whose k columns are the derivatives along Omega_ab = q_a q_b^T - q_b q_a^T
    for the pairs a < b in np.triu_indices order. Each step solves
    (J^T J + mu I) s = -J^T r; at mu = 0 that is the minimum-norm
    Gauss-Newton step. A step is accepted when psi = ||r||^2 drops, and then
    mu shrinks 3x; a rejected step grows mu 4x, or sets it to
    1e-3 ||J||_F^2 / k when it is 0. The damping keeps the solver moving
    where r != 0 makes the dropped second-order term matter (Marquardt,
    SIAM J. Appl. Math. 11, 1963). Stops at psi <= thresh, after max_steps
    accepted steps, or after MAX_REJECTS rejections in a row.

    Returns (V, psi, accepted steps).
    """
    residual = diag_residual(m, t, q)
    a, b = np.triu_indices(q.shape[1], 1)
    eye = np.eye(v.shape[0])
    r, jac = residual(v)
    psi = float(r @ r)
    mu, steps, rejects = 0.0, 0, 0
    while psi > thresh and steps < max_steps and rejects < MAX_REJECTS:
        if not rejects:
            # one SVD per point serves every damping tried there
            left, sig, right = np.linalg.svd(jac, full_matrices=False)
            jac_sq = float(sig @ sig)
            keep = sig > np.finfo(float).eps * max(jac.shape) * sig[0]  # lstsq's rank cutoff
            sig, right, coef = sig[keep], right[keep], left[:, keep].T @ r
        s = -right.T @ (coef * sig / (sig * sig + mu))
        x = (q[:, a] * s) @ q[:, b].T  # Q S Q^T = sum over a < b of s_ab Omega_ab
        x = x - x.T
        v_try = v @ np.linalg.solve(eye - 0.5 * x, eye + 0.5 * x)
        r_try, jac_try = residual(v_try)
        psi_try = float(r_try @ r_try)
        if psi_try < psi:
            v, r, jac, psi = v_try, r_try, jac_try, psi_try
            mu /= 3.0
            steps += 1
            rejects = 0
        else:
            mu = 4.0 * mu if mu else 1e-3 * jac_sq / len(a)
            rejects += 1
    return v, psi, steps


def equalize_diagonal_barycentric(m, tol=DEFAULT_TOLERANCES.equalizer_tol, max_iter=None, seed=0):
    """Equalize diag(V^T M V) with V in the stabilizer of the all-ones vector.

    Every such V keeps the trace, so the target t = tr(M)/n holds along the
    whole stabilizer. For n >= 4 gauss_newton_frame runs from the identity,
    then from Haar random stabilizer elements drawn from default_rng(seed), seed >= 0,
    each start for at most STEPS_PER_START steps, until
    psi = ||diag(V^T M V) - t||^2 <= (tol (1 + |t|))^2 or max_iter steps are
    spent; every start costs at least one step. The report's V is the first
    frame under the threshold, or else the lowest-psi one, the identity
    included; restarts counts the starts after the first.

    n = 3 takes 0 steps. The stabilizer is V(x) = h diag(1, R(x)) h^T with
    h = ones_frame(3); a third of a turn permutes the diagonal and psi has
    degree 4, so psi(x) = a + b cos 3x + c sin 3x. Its values at x = 0, pi/6
    and pi/3 on (M - tI) / max|M - tI| fix its least value a - hypot(b, c),
    at 3x = atan2(-c, -b). The threshold is (tol max|M|)^2, and that turn is
    taken only where it lowers ||diag - t|| by more than rounding, 64 eps max|M|.

    NotConverged carries the best report when psi stays above the threshold
    (at n = 3 a proven floor); OutOfRange means psi or the threshold leaves float64.
    """
    check_tolerance(tol, "tol")
    m = linalg.require_finite(linalg.sym_matrix(m), OutOfRange)
    n = m.shape[0]
    if n <= 2:
        raise DimensionTooSmall(
            "barycentric equalization requires n >= 3: the stabilizer of the "
            "ones vector is trivial on 2x2 diagonals"
        )
    max_iter = 500 * n * n if max_iter is None else check_count(max_iter, "max_iter")
    check_count(seed, "seed")
    t, h, eye = float(np.trace(m)) / n, ones_frame(n), np.eye(n)
    q, base = h[:, 1:], eye
    scale = float(np.max(np.abs(m))) if n == 3 else 1.0 + abs(t)
    s = float(tol) * scale  # a float product overflows to inf where ** raises
    psi_eye = sum(d * d for d in (np.diag(m) - t).tolist())
    if not (math.isfinite(s * s) and math.isfinite(psi_eye)):
        raise OutOfRange(f"threshold {s:.3e}^2 or identity variance {psi_eye:.3e} leaves float64")
    thresh = s**2
    if n == 3:
        spread = float(np.max(np.abs(m - t * eye))) or 1.0
        v = h @ np.array([linalg.givens(3, 1, 2, x) for x in (0.0, math.pi / 6, math.pi / 3)]) @ h.T
        p0, p1, p2 = np.sum(np.einsum("kji,jl,kli->ki", v, (m - t * eye) / spread, v) ** 2, axis=1)
        a, b, c = 0.5 * (p0 + p2), 0.5 * (p0 - p2), p1 - 0.5 * (p0 + p2)
        gain = spread * (math.sqrt(p0) - math.sqrt(max(a - math.hypot(b, c), 0.0)))
        if psi_eye > thresh and gain > 64 * np.finfo(float).eps * scale:  # else it gains only rounding
            base = h @ linalg.givens(3, 1, 2, math.atan2(-c, -b) / 3.0) @ h.T
    d = np.diag(base.T @ m @ base) - t
    best_v, best_psi = base, float(d @ d)
    history, converged = [best_psi], best_psi <= thresh
    steps = count = 0
    rng = np.random.default_rng(seed)
    # n = 3 is the closed form alone; a start is drawn only when it will run
    while n > 3 and not converged and steps < max_iter:
        v = random_stabilizer(h, rng) if count else eye
        v, psi, used = gauss_newton_frame(v, m, t, q, thresh, min(STEPS_PER_START, max_iter - steps))
        steps += max(used, 1)
        count += 1
        converged = psi <= thresh
        if converged or psi < best_psi:
            best_v, best_psi = v, psi
            history.append(psi)
    report = EqualizationReport(
        V=best_v, iterations=steps, variance_history=history, converged=converged,
        final_variance=best_psi, restarts=max(count - 1, 0), threshold=thresh,
    )
    if not report.converged:
        raise NotConverged(
            f"proven least diagonal variance {report.final_variance:.6e} on the n=3 "
            f"stabilizer orbit exceeds threshold {thresh:.1e}" if n == 3 else
            f"variance floor {report.final_variance:.6e} not brought under {thresh:.1e} "
            f"after {report.iterations} solver steps and {report.restarts} restarts",
            report=report,
        )
    return report
