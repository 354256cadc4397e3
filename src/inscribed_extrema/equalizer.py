"""Constructive diagonal equalization with plane rotations.

Two regimes:

* equalize_diagonal: unconstrained, a finite pinning scheme that needs at
  most n-1 Givens rotations (the equal-diagonal target is majorized by the
  spectrum, so every step is solvable in closed form).

* equalize_diagonal_barycentric: all rotations must fix the all-ones vector,
  so the only moves are rotations about (e_p+e_q+e_r)/sqrt(3) axes. This
  constrained problem is NOT always feasible: for n=3 the diagonal variance
  is invariant along the whole stabilizer orbit, and for n=5 (odd n in
  general) there are open sets of row-constant inputs whose variance has a
  positive floor. The routine reports the best frame found and raises
  NotConverged honestly in those cases.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .config import DEFAULT_TOLERANCES
from .errors import DimensionTooSmall, NotConverged, NotRowConstant

TWO_PI = 2.0 * math.pi
THIRD = TWO_PI / 3.0
_SQ3 = math.sqrt(3.0)

ACCEPT_DELTA = 1e-6       # relative variance decrease required to accept a root move
SWEEP_GAIN = 5e-3         # keep sweeping while a polish pass gains this fraction
ESCAPE_GAIN = 0.05        # joint two-triple move must drop the variance this much
MAX_RESTARTS = 60
STALL_RESTARTS = 36       # earliest restart count at which stagnation can stop the run
STALL_WINDOW = 18         # hops without 1% best improvement that count as stagnation
RESYNC_EVERY = 64


@dataclass(frozen=True)
class RotationTriple:
    p: int
    q: int
    r: int
    theta: float

    def __post_init__(self):
        if len({self.p, self.q, self.r}) != 3:
            raise IndexError("triple indices must be pairwise distinct")


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
        return {
            "V": self.V.tolist(),
            "iterations": self.iterations,
            "variance_history": list(self.variance_history),
            "converged": self.converged,
            "final_variance": self.final_variance,
            "restarts": self.restarts,
            "threshold": self.threshold,
        }


def _triple_block(theta):
    """Rotation by theta about (1,1,1)/sqrt(3), as a 3x3 block."""
    c = math.cos(theta)
    s = math.sin(theta) / _SQ3
    d = (1.0 - c) / 3.0
    return np.array(
        [
            [c + d, d - s, s + d],
            [s + d, c + d, d - s],
            [d - s, s + d, c + d],
        ]
    )


def rotation_about_ones_axis(n, triple):
    """Embed the triple rotation in dimension n; fixes 1 and all other axes."""
    for i in (triple.p, triple.q, triple.r):
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range for dimension {n}")
    rot = np.eye(n)
    idx = [triple.p, triple.q, triple.r]
    rot[np.ix_(idx, idx)] = _triple_block(triple.theta)
    return rot


def barycentric_basis(y0):
    """Orthonormal frame whose columns average to y0/sqrt(n) rescaled.

    Concretely U with U (1/sqrt(n)) 1 = y0, hence <y0, u_i> = 1/sqrt(n)
    for every column.
    """
    y0 = linalg.unit_vector(y0)
    n = y0.size
    return linalg.householder_to(np.full(n, 1.0 / math.sqrt(n)), y0)


def _random_stabilizer(n, rng):
    """Haar random rotation fixing the all-ones direction.

    Determinant forced to +1 so the result stays in the component the
    ones-axis rotations generate.
    """
    ones_dir = np.full(n, 1.0 / math.sqrt(n))
    e1 = np.zeros(n)
    e1[0] = 1.0
    h = linalg.householder_to(e1, ones_dir)
    r = linalg.random_orthogonal(n - 1, rng)
    if np.linalg.det(r) < 0.0:
        r[:, 0] = -r[:, 0]
    block = np.eye(n)
    block[1:, 1:] = r
    return h @ block @ h.T


def diag_after(b, theta):
    """New (d_p, d_q, d_r) after rotating the symmetric 3x3 block b by theta.

    b = (wpp, wqq, wrr, wpq, wpr, wqr). Quadratic forms of the rotation's
    columns; scalar arithmetic on purpose, this sits in the innermost loop.
    """
    wpp, wqq, wrr, wpq, wpr, wqr = b
    c = math.cos(theta)
    s = math.sin(theta) / _SQ3
    d = (1.0 - c) / 3.0
    a0, a1, a2 = c + d, s + d, d - s
    dp = (
        wpp * a0 * a0 + wqq * a1 * a1 + wrr * a2 * a2
        + 2.0 * (wpq * a0 * a1 + wpr * a0 * a2 + wqr * a1 * a2)
    )
    b0, b1, b2 = d - s, c + d, s + d
    dq = (
        wpp * b0 * b0 + wqq * b1 * b1 + wrr * b2 * b2
        + 2.0 * (wpq * b0 * b1 + wpr * b0 * b2 + wqr * b1 * b2)
    )
    c0, c1, c2 = s + d, d - s, c + d
    dr = (
        wpp * c0 * c0 + wqq * c1 * c1 + wrr * c2 * c2
        + 2.0 * (wpq * c0 * c1 + wpr * c0 * c2 + wqr * c1 * c2)
    )
    return dp, dq, dr


def equalize_diagonal(m, tol=1e-12):
    """Equalize diag(V^T M V) with at most n-1 Givens rotations.

    Pinning scheme: rotate the (argmax, argmin) diagonal pair so the larger
    entry lands exactly on tr(M)/n, then freeze that index. The angle solves
    (a+c)/2 + ((a-c)/2) cos 2t + b sin 2t = tr(M)/n, always solvable because
    the active maximum and minimum straddle the mean.
    """
    m = linalg.sym_matrix(m)
    n = m.shape[0]
    t = float(np.trace(m)) / n
    entry_tol = tol * (1.0 + abs(t))
    v = np.eye(n)
    w = m.copy()
    active = list(range(n))
    history = [float(np.sum((np.diag(w) - t) ** 2))]
    iters = 0
    while iters < n - 1:
        d = np.diag(w)
        if np.max(np.abs(d - t)) <= entry_tol:
            break
        act = np.array(active)
        p = act[np.argmax(d[act])]
        q = act[np.argmin(d[act])]
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
        history.append(float(np.sum((np.diag(w) - t) ** 2)))
    final = linalg.sym_matrix(v.T @ m @ v)
    dev = float(np.max(np.abs(np.diag(final) - t)))
    return EqualizationReport(
        V=v,
        iterations=iters,
        variance_history=history,
        converged=dev <= entry_tol,
        final_variance=float(np.sum((np.diag(final) - t) ** 2)),
        threshold=entry_tol,
    )


class StabilizerState:
    """Bookkeeping for the constrained equalizer: V, W = V^T M V, counters."""

    def __init__(self, m, t):
        self.m = m
        self.n = m.shape[0]
        self.t = t
        self.v = np.eye(self.n)
        self.w = m.copy()
        self.applied = 0
        self._since_resync = 0

    def psi(self):
        dev = np.diag(self.w) - self.t
        return float(dev @ dev)

    def block6(self, p, q, r):
        w = self.w
        return (w[p, p], w[q, q], w[r, r], w[p, q], w[p, r], w[q, r])

    def apply(self, p, q, r, theta):
        block = _triple_block(theta)
        idx = [p, q, r]
        self.v[:, idx] = self.v[:, idx] @ block
        self.w[:, idx] = self.w[:, idx] @ block
        self.w[idx, :] = block.T @ self.w[idx, :]
        self.applied += 1
        self._since_resync += 1
        if self._since_resync >= RESYNC_EVERY:
            self.resync()

    def resync(self):
        self.w = linalg.sym_matrix(self.v.T @ self.m @ self.v)
        self._since_resync = 0

    def snapshot(self):
        return (self.v.copy(), self.applied)

    def restore(self, snap):
        # rolls the rotation counter back too: probes that get reverted
        # must not eat the budget
        v, applied = snap
        self.v = v.copy()
        self.applied = applied
        self.resync()

    def reset_from(self, vmatrix):
        """Replace the frame, keep the counters."""
        self.v = vmatrix.copy()
        self.resync()


def _root_candidates(b6):
    """All equalizing angles over the three cyclic subintervals of [0, 2pi]."""
    wpp, wqq, wrr = b6[0], b6[1], b6[2]

    def f(theta):
        dp, dq, _ = diag_after(b6, theta)
        return dp - dq

    # endpoint values of f at 0, 2pi/3, 4pi/3, 2pi are cyclic permutations
    f_ends = [wpp - wqq, wqq - wrr, wrr - wpp, wpp - wqq]
    ends = [0.0, THIRD, 2.0 * THIRD, TWO_PI]
    roots = []
    for k in range(3):
        f_lo, f_hi = f_ends[k], f_ends[k + 1]
        if f_lo == 0.0:
            roots.append(ends[k])
        elif (f_lo < 0.0) != (f_hi < 0.0) or f_hi == 0.0:
            roots.append(linalg.bracketed_root(f, ends[k], ends[k + 1], f_lo, f_hi))
    return roots


def _best_root_move(state, p, q, r):
    """Lowest-variance equalizing rotation for the triple, or None."""
    b6 = state.block6(p, q, r)
    t = state.t
    rest = state.psi() - sum((x - t) ** 2 for x in (b6[0], b6[1], b6[2]))
    best = None
    for theta in _root_candidates(b6):
        dp, dq, dr = diag_after(b6, theta)
        psi_new = rest + (dp - t) ** 2 + (dq - t) ** 2 + (dr - t) ** 2
        if best is None or psi_new < best[1]:
            best = (theta, psi_new)
    return best


def triple_min(state, p, q, r):
    """Global minimizer (theta, new variance) of the triple's rotation, or None.

    The triple's variance contribution is a trigonometric polynomial of
    degree <= 4 in theta, which linalg.trig_argmin minimizes exactly.
    """
    b6 = state.block6(p, q, r)
    t = state.t

    def contribution(theta):
        dp, dq, dr = diag_after(b6, theta)
        return (dp - t) ** 2 + (dq - t) ** 2 + (dr - t) ** 2

    found = linalg.trig_argmin(contribution)
    if found is None:
        return None
    theta, val = found
    return theta, state.psi() - contribution(0.0) + val


def _newton_finish(state, thresh, max_steps=12):
    """Gauss-Newton endgame on n-1 composed rotation angles.

    Single-triple sweeps converge linearly with a rate set by the local
    conditioning, which for n=4 is routinely bad enough to stall them ten
    orders above the threshold. Near a regular root of the deviation map
    the square Newton system converges quadratically instead. The frame
    stays a product of ones-axis rotations: the step is realized by
    applying the n-1 solved rotations.
    """
    n = state.n
    if n < 4:
        return False
    trips = [(i, (i + 1) % n, (i + 2) % n) for i in range(n - 1)]
    m = len(trips)
    base = state.snapshot()
    base_psi = state.psi()
    t = state.t
    h = 1e-6

    def land_on(theta):
        state.restore(base)
        for (p, q, r), th in zip(trips, theta):
            if th != 0.0:
                state.apply(p, q, r, float(th))

    def residual(theta):
        land_on(theta)
        dev = np.diag(state.w) - t
        return dev[: n - 1].copy(), float(dev @ dev)

    theta = np.zeros(m)
    best_theta, best_psi = None, base_psi
    r0, psi_now = residual(theta)
    for _ in range(max_steps):
        jac = np.empty((n - 1, m))
        for j in range(m):
            probe = theta.copy()
            probe[j] += h
            r_plus, _ = residual(probe)
            probe[j] -= 2.0 * h
            r_minus, _ = residual(probe)
            jac[:, j] = (r_plus - r_minus) / (2.0 * h)
        step = np.linalg.lstsq(jac, -r0, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            break
        improved = False
        for alpha in (1.0, 0.5, 0.25, 0.125, 1.0 / 16.0):
            r_try, psi_try = residual(theta + alpha * step)
            if psi_try < psi_now:
                theta = theta + alpha * step
                r0, psi_now = r_try, psi_try
                improved = True
                break
        if improved and psi_now < best_psi:
            best_theta, best_psi = theta.copy(), psi_now
        if not improved or psi_now <= 0.01 * thresh:
            break
    if best_theta is not None and (
        best_psi <= thresh or best_psi < base_psi * (1.0 - ESCAPE_GAIN)
    ):
        land_on(best_theta)
        state.resync()
        return True
    state.restore(base)
    return False


def _pair_escape(state):
    """Joint move over two rotation triples.

    Coordinate-wise minima can trap the sweep (the n=4 stabilizer is only
    3-dimensional, so they do in practice); a coarse grid on one angle with
    exact minimization on a second triple descends through most of them.
    The accepted burst is still a product of ones-axis rotations.
    """
    n = state.n
    triples = list(combinations(range(n), 3))
    base_psi = state.psi()
    keep = state.snapshot()
    dev = np.abs(np.diag(state.w) - state.t)
    by_dev = sorted(triples, key=lambda tr: -max(dev[list(tr)]))
    first = by_dev if n == 4 else by_dev[:6]
    second_pool = by_dev[:8]
    grid = np.arange(1, 24) * (TWO_PI / 24.0)
    best = None
    for t1 in first:
        for th1 in grid:
            state.apply(t1[0], t1[1], t1[2], float(th1))
            for t2 in second_pool:
                if t2 == t1:
                    continue
                found = triple_min(state, t2[0], t2[1], t2[2])
                if found is None:
                    continue
                mid = state.snapshot()
                state.apply(t2[0], t2[1], t2[2], found[0])
                ps = state.psi()
                if best is None or ps < best[0]:
                    best = (ps, state.snapshot())
                state.restore(mid)
            state.restore(keep)
    if best is not None and best[0] < base_psi * (1.0 - ESCAPE_GAIN):
        state.restore(best[1])
        return True
    state.restore(keep)
    return False


def equalize_diagonal_barycentric(
    m, tol=DEFAULT_TOLERANCES.equalizer_tol, max_iter=None, seed=0, row_tol=None
):
    """Equalize diag(V^T M V) with V in the stabilizer of the all-ones vector.

    M must be symmetric with constant row sums (then the all-ones direction
    is an eigenvector and stays one throughout). Moves are rotations about
    e_p + e_q + e_r axes: equalizing roots of d_p - d_q first, exact
    per-triple variance minimization when those stall, and random
    basin-hopping kicks from the best frame as a last resort.

    Raises NotConverged with the best report attached when the variance
    floor of the instance is above the threshold; for n=3 that floor is
    provably invariant on the whole stabilizer orbit, so the failure is
    detected immediately instead of after max_iter rotations.
    """
    m = linalg.sym_matrix(m)
    n = m.shape[0]
    if n <= 2:
        raise DimensionTooSmall(
            "barycentric equalization requires n >= 3: the stabilizer of the "
            "ones vector is trivial on 2x2 diagonals"
        )
    scale = float(np.max(np.abs(m)))
    if row_tol is None:
        row_tol = 1e-9 * (scale if scale > 0.0 else 1.0)
    row_sums = m @ np.ones(n)
    lam = float(row_sums.sum()) / n
    if float(np.max(np.abs(row_sums - lam))) > row_tol:
        raise NotRowConstant(
            f"row sums deviate by {np.max(np.abs(row_sums - lam)):.3e} (> {row_tol:.1e})"
        )
    if max_iter is None:
        max_iter = 500 * n * n
    t = float(np.trace(m)) / n
    thresh = (tol * (1.0 + abs(t))) ** 2
    rng = np.random.default_rng(seed)

    state = StabilizerState(m, t)
    psi0 = state.psi()
    history = [psi0]
    best_psi = psi0
    best_snap = state.snapshot()
    restarts = 0
    best_at_restart = []

    def note_progress():
        nonlocal best_psi, best_snap
        ps = state.psi()
        if ps < best_psi:
            best_psi = ps
            best_snap = state.snapshot()
            history.append(ps)

    def converged_exactly():
        state.resync()
        if state.psi() <= thresh:
            note_progress()
            return True
        return False

    def try_root_moves():
        d = np.diag(state.w)
        psi = state.psi()
        order = np.argsort(d - t)
        pairs = [(int(order[-1]), int(order[0]))]
        pairs += sorted(
            ((int(i), int(j)) for i, j in combinations(range(n), 2)),
            key=lambda ij: -abs(d[ij[0]] - d[ij[1]]),
        )
        offset = state.applied  # rotates the r cycle between visits
        for p, q in pairs:
            if abs(d[p] - d[q]) <= 1e-18 * (1.0 + abs(t)):
                continue
            rest = [k for k in range(n) if k not in (p, q)]
            for j in range(len(rest)):
                r = rest[(j + offset) % len(rest)]
                move = _best_root_move(state, p, q, r)
                if move is None:
                    continue
                theta, psi_new = move
                if psi - psi_new >= ACCEPT_DELTA * psi:
                    state.apply(p, q, r, theta)
                    note_progress()
                    return True
        return False

    def polish_sweeps():
        # the predicted minimum from the trig polynomial carries absolute
        # error ~eps*scale^2, useless as an accept test near convergence;
        # apply the move and keep it only if the recomputed variance drops
        improved_any = False
        for _ in range(200):
            psi_start = state.psi()
            if psi_start <= thresh:
                break
            for p, q, r in combinations(range(n), 3):
                if state.applied >= max_iter:
                    break
                found = triple_min(state, p, q, r)
                if found is None:
                    continue
                theta, _ = found
                before = state.psi()
                keep = state.snapshot()
                state.apply(p, q, r, theta)
                if state.psi() < before:
                    note_progress()
                    improved_any = True
                else:
                    state.restore(keep)
            psi_end = state.psi()
            if psi_end <= thresh or psi_start - psi_end < SWEEP_GAIN * psi_start:
                break
        return improved_any

    while state.applied < max_iter:
        if state.psi() <= thresh and converged_exactly():
            break
        moved = try_root_moves()
        if state.psi() <= thresh and converged_exactly():
            break
        if moved:
            continue
        polish_sweeps()
        if state.psi() <= thresh and converged_exactly():
            break
        # move-wise local minimum
        if n == 3:
            # the variance is constant on the whole stabilizer orbit; no
            # sequence of moves can improve it
            break
        if _newton_finish(state, thresh):
            note_progress()
            continue
        # joint moves crack traps the second-order step cannot (it needs a
        # regular root nearby); their grid is too coarse for the endgame
        if state.psi() > 1e4 * thresh and _pair_escape(state):
            note_progress()
            continue
        if restarts >= MAX_RESTARTS:
            break
        best_at_restart.append(best_psi)
        # For n=4 the constrained problem is always solvable and a restart
        # costs milliseconds, so patience pays; for n >= 5 there are open
        # sets of genuinely infeasible inputs and stagnation usually means
        # the variance floor is positive.
        if n >= 5 and restarts >= STALL_RESTARTS and len(best_at_restart) > STALL_WINDOW:
            then = best_at_restart[-STALL_WINDOW - 1]
            if best_psi > (1.0 - 1e-2) * then:
                break
        if restarts % 3 == 2:
            # independent draw; jitter around the incumbent cannot leave
            # a wide basin, a fresh stabilizer point can
            state.reset_from(_random_stabilizer(n, rng))
        else:
            state.restore(best_snap)
            for _ in range(1 + restarts % 3):
                trip = rng.permutation(n)[:3]
                state.apply(int(trip[0]), int(trip[1]), int(trip[2]), rng.uniform(0.0, TWO_PI))
        restarts += 1

    best_v = best_snap[0]
    final_w = linalg.sym_matrix(best_v.T @ m @ best_v)
    final_psi = float(np.sum((np.diag(final_w) - t) ** 2))
    report = EqualizationReport(
        V=best_v,
        iterations=best_snap[1],
        variance_history=history,
        converged=final_psi <= thresh,
        final_variance=final_psi,
        restarts=restarts,
        threshold=thresh,
    )
    if not report.converged:
        if n == 3:
            msg = (
                "diagonal variance is invariant along the stabilizer orbit for n=3; "
                f"floor {final_psi:.6e} exceeds threshold {thresh:.1e}"
            )
        else:
            msg = (
                f"variance floor {final_psi:.6e} not brought under {thresh:.1e} "
                f"after {state.applied} rotations and {restarts} restarts"
            )
        raise NotConverged(msg, report=report)
    return report
