import numpy as np
import pytest
from numpy.testing import assert_allclose

from inscribed_extrema import (
    DimensionTooSmall,
    NotConverged,
    barycentric_basis,
    equalize_diagonal,
    equalize_diagonal_barycentric,
    householder_to,
    random_orthogonal,
)
from inscribed_extrema.equalizer import (
    STEPS_PER_START,
    diag_residual,
    multistart,
    restricted_l_residual,
)

ONES_TOL = 1e-12


def random_symmetric(n, rng, scale=1.0):
    g = rng.normal(size=(n, n)) * scale
    return (g + g.T) / 2.0


def random_row_constant(n, rng, scale=3.0):
    # orthogonal completion of the ones direction, then a random spectrum
    g = rng.normal(size=(n, n))
    g[:, 0] = 1.0
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    d = rng.normal(size=n) * scale
    return (q * d) @ q.T


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
    # constant row sums are the premise of the n = 3 orbit argument only:
    # without them n = 3 runs the solver to its budget, and n = 4 converges
    with pytest.raises(NotConverged, match="after 300 solver steps") as info:
        equalize_diagonal_barycentric(np.diag([1.0, 2.0, 3.0]), max_iter=300)
    rep = info.value.report
    assert np.max(np.abs(rep.V @ np.ones(3) - 1.0)) <= 1e-12
    assert rep.final_variance < rep.variance_history[0]
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


def test_restricted_l_residual_jacobian_matches_central_differences():
    rng = np.random.default_rng(9)
    for n in (3, 5):
        g = rng.normal(size=(n, n))
        y0 = rng.normal(size=n)
        residual = restricted_l_residual(g @ g.T + n * np.eye(n), y0 / np.linalg.norm(y0))
        v = random_orthogonal(n, rng)
        jac = residual(v)[1]
        assert_allclose(jac, _central_difference_jacobian(residual, v, np.eye(n)), atol=1e-6)


def test_multistart_passes_over_rejected_solutions():
    # a start under the threshold that fails the acceptance test does not end
    # the loop; the first one that passes it is returned
    residual = restricted_l_residual(np.diag([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 1.0]))
    starts = [random_orthogonal(3, seed) for seed in range(3)]
    seen = []

    def accept(u):
        seen.append(u)
        return len(seen) == 2

    rep = multistart(starts, np.eye(3), residual, 1e-24, 3 * STEPS_PER_START, accept=accept)
    assert rep.converged
    assert rep.restarts == 1
    assert rep.V is seen[1]
    assert rep.final_variance <= 1e-24
    rep = multistart(starts, np.eye(3), residual, 1e-24, 3 * STEPS_PER_START,
                     accept=lambda u: False)
    assert not rep.converged
    assert rep.restarts == 2


def test_multistart_keeps_the_first_start_when_no_psi_is_finite():
    # no baseline, and every start's residual is infinite: the report still
    # carries a frame (the first start's) that the CLI can emit
    def residual(v):
        return np.full(3, np.inf), np.zeros((3, 3))

    starts = [random_orthogonal(3, seed) for seed in range(3)]
    rep = multistart(starts, np.eye(3), residual, 1e-24, 3 * STEPS_PER_START)
    assert not rep.converged and rep.restarts == 2
    assert rep.V is starts[0]
    assert rep.final_variance == np.inf
    assert rep.to_dict()["V"] == starts[0].tolist()


def test_multistart_budget_and_baseline():
    m = np.diag([1.0, 2.0, 3.0, 4.0])
    q = np.eye(4)
    residual = diag_residual(m, 2.5, q)
    # no budget: no start is drawn, the baseline is the report
    rep = multistart(iter([np.eye(4)]), q, residual, 0.0, 0, baseline=np.eye(4))
    assert rep.iterations == 0 and rep.restarts == 0
    assert rep.V is not None and rep.variance_history == [5.0]
    # a baseline under the threshold ends the loop before any start
    rep = multistart([random_orthogonal(4, 0)], q, residual, 5.0, 60, baseline=np.eye(4))
    assert rep.converged and rep.iterations == 0
    assert_allclose(rep.V, np.eye(4))
