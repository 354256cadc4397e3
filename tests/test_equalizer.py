import hashlib

import numpy as np
import pytest
from draws import random_row_constant
from numpy.testing import assert_allclose

from inscribed_extrema import (
    DimensionTooSmall,
    NonPositiveInput,
    NotConverged,
    OutOfRange,
    barycentric_basis,
    equalize_diagonal,
    equalize_diagonal_barycentric,
    householder_to,
    random_orthogonal,
)
from inscribed_extrema.equalizer import (
    STEPS_PER_START,
    diag_residual,
    gauss_newton_frame,
    ones_frame,
    random_stabilizer,
)
from orbit import grid_floor, psi as orbit_psi

ONES_TOL = 1e-12


def random_symmetric(n, rng, scale=1.0):
    g = rng.normal(size=(n, n)) * scale
    return (g + g.T) / 2.0


# ---------------------------------------------------------------- pinning


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_equalize_diagonal_basic(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        m = random_symmetric(n, rng)
        rep = equalize_diagonal(m)
        assert rep.converged
        assert rep.iterations <= n - 1
        w = rep.V.T @ m @ rep.V
        t = np.trace(m) / n
        assert np.max(np.abs(np.diag(w) - t)) <= 1e-10 * (1.0 + abs(t))
        # orthogonal conjugation preserves trace and Frobenius norm
        assert abs(np.trace(w) - np.trace(m)) <= 1e-12 * (1.0 + abs(np.trace(m)))
        assert abs(np.linalg.norm(w) - np.linalg.norm(m)) <= 1e-10 * np.linalg.norm(m)


@pytest.mark.parametrize("s", [1e-150, 1.0, 1e150])
def test_equalize_diagonal_is_scale_free(s):
    # the acceptance threshold scales with M: an absolute one would accept
    # any tiny matrix untouched
    m = s * random_symmetric(6, np.random.default_rng(31))
    rep = equalize_diagonal(m)
    assert rep.converged
    d = np.diag(rep.V.T @ m @ rep.V)
    assert np.max(np.abs(d - np.trace(m) / 6)) <= 1e-12 * np.max(np.abs(m))


def test_equalize_diagonal_already_flat():
    m = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    rep = equalize_diagonal(m)
    assert rep.iterations == 0
    assert_allclose(rep.V, np.eye(3))


@pytest.mark.parametrize("n", [4, 6])
def test_equalize_diagonal_tol_zero_stops_at_a_tie(n):
    # I/n - y y^T with y on two coordinates (the edge vertex route's N on a
    # sphere): at tol = 0 the pass reached active entries that tie up to
    # rounding, paired an index with itself and returned V with U^T U - I
    # of 0.5 (n = 4) and 0.13 (n = 6)
    y = np.zeros(n)
    y[-2:] = 2.0**-0.5
    m = np.eye(n) / n - np.outer(y, y)
    rep = equalize_diagonal(m, tol=0.0)
    assert np.max(np.abs(rep.V.T @ rep.V - np.eye(n))) <= 1e-15
    assert np.max(np.abs(np.diag(rep.V.T @ m @ rep.V))) <= 1e-15


def test_equalize_diagonal_variance_history_decreases():
    rng = np.random.default_rng(77)
    m = random_symmetric(7, rng)
    rep = equalize_diagonal(m)
    h = rep.variance_history
    assert all(b < a for a, b in zip(h, h[1:]))


def test_barycentric_basis_columns():
    rng = np.random.default_rng(21)
    for n in (2, 3, 5, 8):
        y0 = rng.normal(size=n)
        y0 /= np.linalg.norm(y0)
        u = barycentric_basis(y0)
        assert np.linalg.norm(u.T @ u - np.eye(n)) < 1e-13
        assert np.linalg.norm(u @ np.full(n, 1.0 / np.sqrt(n)) - y0) < 1e-12
        assert np.max(np.abs(u.T @ y0 - 1.0 / np.sqrt(n))) < 1e-12


def test_barycentric_basis_canonical():
    y0 = np.full(3, 1.0 / np.sqrt(3.0))
    assert_allclose(barycentric_basis(y0), np.eye(3), atol=1e-14)


# ------------------------------------------------------ constrained equalizer


def test_barycentric_rejects_small_n():
    with pytest.raises(DimensionTooSmall):
        equalize_diagonal_barycentric(np.diag([2.0, 1.0]))


def test_barycentric_non_row_constant_runs_solver():
    # constant row sums are no premise of the n = 3 closed form: without them
    # n = 3 still takes 0 steps and reports the orbit's least variance, and
    # n = 4 runs the solver and converges
    m = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(NotConverged, match="proven least diagonal variance") as info:
        equalize_diagonal_barycentric(m, max_iter=300)
    rep = info.value.report
    assert rep.iterations == 0
    assert np.max(np.abs(rep.V @ np.ones(3) - 1.0)) <= 1e-12
    assert rep.final_variance <= (1.0 + 1e-9) * grid_floor(m)
    assert rep.variance_history == [rep.final_variance]
    assert rep.final_variance < orbit_psi(m, np.eye(3))
    m = np.diag([1.0, 2.0, 3.0, 5.0])
    rep = equalize_diagonal_barycentric(m)
    assert rep.converged
    assert np.max(np.abs(rep.V @ np.ones(4) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.diag(rep.V.T @ m @ rep.V) - 2.75)) <= 1e-9


def test_barycentric_trivial_input():
    m = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    rep = equalize_diagonal_barycentric(m)
    assert rep.converged
    assert rep.iterations == 0
    assert_allclose(rep.V, np.eye(3))


def test_barycentric_known_infeasible_n3():
    # row sums are 4, but the diagonal variance is constant along the whole
    # stabilizer orbit: floor is 2, reached nowhere near tol
    m = np.array([[3.0, 0.0, 1.0], [0.0, 2.0, 2.0], [1.0, 2.0, 1.0]])
    with pytest.raises(NotConverged) as info:
        equalize_diagonal_barycentric(m, tol=1e-10, seed=0)
    rep = info.value.report
    assert rep.final_variance == pytest.approx(2.0, abs=1e-9)
    assert not rep.converged
    # the report still carries a valid stabilizer element
    assert np.linalg.norm(rep.V @ np.ones(3) - np.ones(3)) < ONES_TOL
    assert np.linalg.norm(rep.V.T @ rep.V - np.eye(3)) < 1e-10


def _report_of(m, **kw):
    """The report, returned or carried by NotConverged."""
    try:
        return equalize_diagonal_barycentric(m, **kw)
    except NotConverged as exc:
        return exc.report


def test_barycentric_n3_floor_is_the_orbit_minimum():
    # 100 row-constant and 100 general inputs: the closed-form floor is the
    # least psi on the orbit, at or below a 4,001-point sweep, and never
    # above a Gauss-Newton run on the same stabilizer (the n >= 4 solver)
    rng = np.random.default_rng(3003)
    h = ones_frame(3)
    for k in range(200):
        m = random_row_constant(3, rng) if k % 2 else random_symmetric(3, rng)
        t = np.trace(m) / 3.0
        rep = _report_of(m, seed=k)
        assert rep.iterations == 0 and rep.restarts == 0
        assert np.max(np.abs(rep.V @ np.ones(3) - 1.0)) <= ONES_TOL
        assert abs(np.linalg.det(rep.V) - 1.0) <= ONES_TOL
        assert np.linalg.norm(rep.V.T @ rep.V - np.eye(3)) <= ONES_TOL
        assert rep.final_variance == pytest.approx(orbit_psi(m, rep.V), rel=1e-12, abs=1e-300)
        assert rep.final_variance <= (1.0 + 1e-9) * grid_floor(m)
        if k % 2:
            solver = orbit_psi(m, np.eye(3))
        else:
            starts = (np.eye(3), random_stabilizer(h, rng))
            solver = min(gauss_newton_frame(v, m, t, h[:, 1:], 0.0, STEPS_PER_START)[1]
                         for v in starts)
        assert rep.final_variance <= (1.0 + 1e-9) * solver


def test_barycentric_n3_feasible_inputs_converge_at_once():
    # M = V0 W V0^T with diag W constant and V0 in the stabilizer: V = V0
    # equalizes, and the closed form finds such a frame with 0 steps at
    # every scale
    rng = np.random.default_rng(3004)
    h = ones_frame(3)
    for k in range(100):
        w = random_symmetric(3, rng)
        np.fill_diagonal(w, rng.normal())
        v0 = random_stabilizer(h, rng)
        for s in (1.0, 1e-150, 1e150):
            m = s * (v0 @ w @ v0.T)
            rep = equalize_diagonal_barycentric(m, seed=k)
            assert rep.converged and rep.iterations == 0
            t = np.trace(m) / 3.0
            dev = np.max(np.abs(np.diag(rep.V.T @ m @ rep.V) - t))
            assert dev <= 1e-10 * np.max(np.abs(m - t * np.eye(3)))
            assert s != 1.0 or dev <= 1e-9 * (1.0 + abs(t))
            assert np.max(np.abs(rep.V @ np.ones(3) - 1.0)) <= ONES_TOL


def test_barycentric_n3_keeps_the_identity():
    # psi is flat (row-constant with a constant diagonal) or the identity is
    # already under the threshold: the frame stays exactly the identity, where
    # an angle read off roundoff would turn it. A row-constant infeasible M
    # (shifted, so its row sums are constant only to eps max|M|) keeps it too,
    # its floor the sweep's to within that rounding in ||diag - t||
    rng = np.random.default_rng(3005)
    for k in range(50):
        w = random_symmetric(3, rng)
        np.fill_diagonal(w, rng.normal())
        flat = rng.normal() * np.eye(3) + rng.normal() * np.ones((3, 3))
        nudged = w + 1e-12 * np.max(np.abs(w)) * np.diag(rng.normal(size=3))
        sphere = 10.0 ** rng.uniform(-150, 150) * (np.eye(3) + 1e-15 * w)
        for m in (w, flat, nudged, sphere):
            rep = equalize_diagonal_barycentric(m, seed=k)
            assert rep.converged and rep.iterations == 0
            assert np.array_equal(rep.V, np.eye(3))
    for k in range(100):
        m = random_row_constant(3, rng) + rng.normal() * 10.0 ** rng.integers(0, 7) * np.eye(3)
        with pytest.raises(NotConverged, match="proven least diagonal variance") as info:
            equalize_diagonal_barycentric(m, seed=k)
        rep = info.value.report
        assert rep.iterations == 0
        assert np.array_equal(rep.V, np.eye(3))
        slack = 128 * np.finfo(float).eps * np.max(np.abs(m))
        assert np.sqrt(rep.final_variance) <= np.sqrt(grid_floor(m)) + slack


@pytest.mark.parametrize("k", [-150, -20, 20, 150])
def test_barycentric_n3_is_free_of_shift_and_scale(k):
    # 10^k (M + cI): the shift is in units of M, since 10^k M + cI with
    # |c| >> 10^k max|M| would round M itself away. Frame and floor come from
    # (M - tI) / max|M - tI|; the threshold (tol max|M|)^2 grows with c, but
    # these general floors sit far above it at every c
    rng = np.random.default_rng(3006)
    for trial in range(20):
        m = random_symmetric(3, rng)
        ref = _report_of(m, seed=trial)
        ref_spread = np.max(np.abs(m - np.trace(m) / 3.0 * np.eye(3)))
        for c in (0.0, 1e6 * rng.uniform(-1.0, 1.0), -1e6, 1e6):
            mk = 10.0**k * (m + c * np.eye(3))
            got = _report_of(mk, seed=trial)
            spread = np.max(np.abs(mk - np.trace(mk) / 3.0 * np.eye(3)))
            assert got.converged == ref.converged
            assert np.max(np.abs(got.V - ref.V)) <= 1e-9
            assert abs(got.final_variance / spread**2 - ref.final_variance / ref_spread**2) <= 1e-8


def test_barycentric_overflow_raises_out_of_range():
    # the squared threshold and psi at the identity leave float64:
    # a one-line OutOfRange, never an infinite threshold that accepts any frame
    big = np.diag([1.0, 2.0, 3.0, 5.0]) * 1e200
    wide = np.zeros((4, 4))
    wide[0, 1] = wide[1, 0] = wide[2, 2] = 1e160
    wide[3, 3] = -1e160
    for m in (big, big[:3, :3], wide):
        with pytest.raises(OutOfRange):
            equalize_diagonal_barycentric(m)
    # psi at the identity is finite here while (tol (1 + |t|))^2 is not; a
    # numpy tolerance squares to inf with only a warning, which must not pass
    near = 1e165 * np.eye(4) + 1e152 * np.diag([1.0, -1.0, 2.0, -2.0])
    with pytest.raises(OutOfRange):
        equalize_diagonal_barycentric(near, tol=np.float64(1e-9))


@pytest.mark.parametrize("n", [4, 6, 7, 8])
def test_barycentric_converges_on_feasible_dimensions(n):
    rng = np.random.default_rng(300 + n)
    for k in range(15):
        m = random_row_constant(n, rng)
        rep = equalize_diagonal_barycentric(m, tol=1e-10, seed=k)
        assert rep.converged
        w = rep.V.T @ m @ rep.V
        t = np.trace(m) / n
        assert np.max(np.abs(np.diag(w) - t)) <= 1e-9 * (1.0 + abs(t))
        assert np.linalg.norm(rep.V @ np.ones(n) - np.ones(n)) < ONES_TOL * np.sqrt(n)


def test_barycentric_history_strictly_decreasing():
    rng = np.random.default_rng(31)
    m = random_row_constant(6, rng)
    rep = equalize_diagonal_barycentric(m, seed=0)
    h = rep.variance_history
    assert len(h) >= 2
    assert all(b < a for a, b in zip(h, h[1:]))


def test_barycentric_deterministic_given_seed():
    rng = np.random.default_rng(55)
    m = random_row_constant(5, rng)
    try:
        r1 = equalize_diagonal_barycentric(m, seed=12)
        r2 = equalize_diagonal_barycentric(m, seed=12)
        assert np.array_equal(r1.V, r2.V)
    except NotConverged:
        # also fine: determinism then means identical failure
        with pytest.raises(NotConverged):
            equalize_diagonal_barycentric(m, seed=12)


def test_barycentric_respects_max_iter():
    rng = np.random.default_rng(61)
    m = random_row_constant(5, rng)
    try:
        rep = equalize_diagonal_barycentric(m, seed=3, max_iter=30)
        assert rep.iterations <= 30
    except NotConverged as exc:
        assert exc.report.iterations <= 30


@pytest.mark.parametrize("n", [3, 4])
def test_barycentric_refuses_negative_max_iter(n):
    m = random_symmetric(n, np.random.default_rng(62))
    with pytest.raises(NonPositiveInput, match="max_iter"):
        equalize_diagonal_barycentric(m, seed=1, max_iter=-5)


def test_barycentric_budget_and_identity_baseline():
    m = np.diag([1.0, 2.0, 3.0, 4.0])
    # no budget: no start runs, the identity is the report
    with pytest.raises(NotConverged) as info:
        equalize_diagonal_barycentric(m, max_iter=0)
    rep = info.value.report
    assert rep.iterations == 0 and rep.restarts == 0
    assert np.array_equal(rep.V, np.eye(4)) and rep.variance_history == [5.0]
    # the identity under the threshold ends the run before any start
    m = random_symmetric(4, np.random.default_rng(63))
    np.fill_diagonal(m, 0.7)
    rep = equalize_diagonal_barycentric(m)
    assert rep.converged and rep.iterations == 0 and rep.restarts == 0
    assert np.array_equal(rep.V, np.eye(4))


def test_barycentric_zero_max_iter_takes_no_step():
    m = random_symmetric(4, np.random.default_rng(61))
    with pytest.raises(NotConverged) as exc:
        equalize_diagonal_barycentric(m, seed=1, max_iter=0)
    assert exc.value.report.iterations == 0


# Restricted spectrum (-0.8806, -0.8797, 4.0727): the two close eigenvalues
# make most starts stall, so the solve needs tens of restarts.
NEAR_DEGENERATE_4 = [
    [-0.3278094623430107, -1.4361053375787791, 0.8897039731120989, -0.499051200333102],
    [-1.4361053375787791, 1.5472220040436826, -2.090715899270413, 0.6063372056627169],
    [0.8897039731120989, -2.090715899270413, 0.5140403777242482, -0.6862904787087271],
    [-0.499051200333102, 0.6063372056627169, -0.6862904787087271, -0.7942575537636803],
]


@pytest.mark.parametrize("seed", range(6))
def test_barycentric_near_degenerate_n4_converges(seed):
    m = np.array(NEAR_DEGENERATE_4)
    rep = equalize_diagonal_barycentric(m, tol=1e-9, seed=seed)
    assert rep.converged
    assert np.max(np.abs(rep.V @ np.ones(4) - 1.0)) <= 1e-12


def _report_digest():
    """SHA-256 over every report field of a fixed set of barycentric runs."""
    cases = [
        (np.diag([1.0, 2.0, 3.0]), {}),  # n = 3, turned to its proven floor
        (np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]), {}),  # keeps I
        *((random_row_constant(n, np.random.default_rng(300 + n)), {"seed": 1})
          for n in (4, 6, 8)),  # converged from the identity
        (np.array(NEAR_DEGENERATE_4), {"tol": 1e-9, "seed": 2}),  # converged after 2 restarts
        # criterion 4's n = 5 trial 0, proven infeasible: a budget stop after restarts
        (random_row_constant(5, np.random.default_rng((1004, 5))),
         {"tol": 1e-9, "seed": 0, "max_iter": 300}),
        (np.diag([1.0, 2.0, 3.0, 5.0]), {"max_iter": 0}),
    ]
    h = hashlib.sha256()
    for m, kw in cases:
        rep = _report_of(m, **kw)
        h.update(np.ascontiguousarray(rep.V).tobytes())
        fields = (rep.iterations, rep.restarts, [x.hex() for x in rep.variance_history],
                  rep.final_variance.hex(), rep.threshold.hex(), rep.converged)
        h.update(repr(fields).encode())
    return h.hexdigest()


# Pins the bits of every report field: a change to the start loop or the
# solver that means to keep its results must keep this digest. The frames
# pass through LAPACK's SVD and solve, so another numpy or BLAS build may
# round them differently and move it.
REPORT_DIGEST = "a960455511843b268fbd6bb716be8b28d025d14e3a1bba33d70d1826a9e976a7"


def test_barycentric_report_bits_are_pinned():
    assert _report_digest() == REPORT_DIGEST


# ------------------------------------------------------- Gauss-Newton solver


def _central_difference_jacobian(residual, v, q, h=1e-6):
    """Columns d r(V cay(h Omega_ab)) / dh by central differences."""
    n, k = q.shape
    cols = []
    for a, b in zip(*np.triu_indices(k, 1)):
        omega = np.outer(q[:, a], q[:, b]) - np.outer(q[:, b], q[:, a])
        turns = [np.linalg.solve(np.eye(n) - 0.5 * s * omega, np.eye(n) + 0.5 * s * omega)
                 for s in (h, -h)]
        cols.append((residual(v @ turns[0])[0] - residual(v @ turns[1])[0]) / (2.0 * h))
    return np.column_stack(cols)


def test_diag_residual_jacobian_matches_central_differences():
    rng = np.random.default_rng(8)
    for n in (3, 4, 6):
        m = random_symmetric(n, rng)
        e1 = np.zeros(n)
        e1[0] = 1.0
        for q in (np.eye(n), householder_to(e1, np.full(n, n**-0.5))[:, 1:]):
            residual = diag_residual(m, float(np.trace(m)) / n, q)
            v = random_orthogonal(n, rng)
            jac = residual(v)[1]
            assert_allclose(jac, _central_difference_jacobian(residual, v, q), atol=1e-7)
