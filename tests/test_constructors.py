import numpy as np
import pytest
from draws import random_spd
from numpy.testing import assert_allclose

from inscribed_extrema import (
    DEFAULT_TOLERANCES,
    DegenerateVertex,
    Ellipsoid,
    NotConverged,
    NotOnBoundary,
    VertexConstraint,
    WrongDimension,
    all_plus_vertex,
    barycentric_basis,
    bound_L_max,
    bound_S_max,
    construct_L_max,
    construct_S_max,
    construct_through_vertex,
    construct_vertex_2d,
    construct_vertex_eigen_L,
    construct_vertex_eigen_S,
    diag_quadratic,
    equalize_diagonal,
    is_inscribed,
    orthotope_to_parallelepiped,
    random_orthogonal,
    vertex_lambdas,
)
from inscribed_extrema.functionals import evaluate
from orbit import grid_floor, psi as orbit_psi

VERTEX_TOL = 1e-9

SQRT6_L = 19.595917942265423   # 8 sqrt(6), edge bound of diag(1,2,3)


def spd_with_known_axis(n, rng):
    q = random_orthogonal(n, rng)
    ev = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=n))
    a = (q * ev) @ q.T
    j = int(rng.integers(n))
    return a, q[:, j], ev[j]


# ----------------------------------------------------------- global extremals


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_construct_L_max_attains_bound(n):
    rng, frames = np.random.default_rng(400 + n), np.random.default_rng((400 + n, 1))
    for _ in range(20):
        e = Ellipsoid(random_spd(n, rng))
        q, cert = construct_L_max(e)
        assert abs(float(cert.achieved) - cert.bound) <= 1e-10 * cert.bound
        p = orthotope_to_parallelepiped(e, q)
        assert is_inscribed(e, p).max_residual < VERTEX_TOL
        # the bound is frame-independent: on any frame the adapted edge
        # lengths 2 sqrt(u_i^T A u_i / tr A) attain it too
        u = np.stack([random_orthogonal(n, frames) for _ in range(8)], axis=-1)
        lam = 2.0 * np.sqrt(diag_quadratic(u, e.A) / np.trace(e.A))
        assert_allclose(evaluate(e, u, lam, "edge_length"), cert.bound, rtol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_construct_S_max_attains_bound(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(20):
        e = Ellipsoid(random_spd(n, rng))
        q, cert = construct_S_max(e)
        assert abs(float(cert.achieved) - cert.bound) <= 1e-9 * cert.bound
        assert np.max(np.abs(q.lam - 2.0 / np.sqrt(n))) < 1e-12
        p = orthotope_to_parallelepiped(e, q)
        assert is_inscribed(e, p).max_residual < VERTEX_TOL


def test_construct_S_max_reference_value():
    e = Ellipsoid(np.diag([1.0, 4.0, 9.0]))
    _, cert = construct_S_max(e)
    assert abs(float(cert.achieved) - 32.331615074619044) < 1e-10


def test_construct_S_max_residuals_are_relative():
    # C = diag(1e11, 1, 1): the equalized diagonal sits near 3.3e10, where an
    # absolute residual reads round-off as a defect of the frame
    _, cert = construct_S_max(Ellipsoid(np.diag([1e-11, 1.0, 1.0])))
    assert cert.equality_residuals["diagonal_equalization"] <= 1e-14
    assert abs(cert.relative_gap) <= 1e-12


@pytest.mark.parametrize("k", [-200, 0, 200])
def test_construct_L_max_cauchy_schwarz_residual_is_scale_free(k):
    rng = np.random.default_rng(16)
    for _ in range(20):
        e = Ellipsoid(10.0**k * random_spd(5, rng))
        _, cert = construct_L_max(e)
        assert cert.equality_residuals["cauchy_schwarz"] <= 1e-14


def test_certificate_keys_follow_the_functional_and_n():
    # the equality conditions belong to the functional, not to the route:
    # L (and S at n = 2, where S = L) is the Cauchy-Schwarz case, S at
    # n >= 3 uniform lambda with an equal diag(U^T C U)
    cs = {"cauchy_schwarz", "inscribed"}
    s3 = {"uniform_lambda", "diagonal_equalization", "inscribed", "factored_vs_gram"}
    e2 = Ellipsoid(np.array([[2.0, 0.5], [0.5, 1.0]]))
    x2 = e2.B @ np.array([0.6, 0.8])
    e3 = Ellipsoid(random_spd(3, np.random.default_rng(3)))
    e4 = Ellipsoid(np.diag([1.0, 2.0, 3.0, 4.0]))
    x4 = np.array([0.0, 0.0, 0.0, 2.0])
    routes = [
        (construct_L_max(e2), cs),
        (construct_L_max(e3), cs),
        (construct_S_max(e2), cs | {"factored_vs_gram"}),
        (construct_S_max(e3), s3),
        (construct_vertex_2d(e2, x2, "edge_length"), cs | {"vertex"}),
        (construct_vertex_2d(e2, x2, "facet_area"), cs | {"vertex", "factored_vs_gram"}),
        (construct_vertex_eigen_L(e3, e3.B @ np.array([0.6, 0.0, 0.8])), cs | {"vertex"}),
        (construct_vertex_eigen_S(e4, x4), s3 | {"vertex"}),
    ]
    for (_, cert), keys in routes:
        assert set(cert.equality_residuals) == keys
        assert max(cert.equality_residuals.values()) <= 1e-9
        assert abs(cert.relative_gap) <= 1e-12


# ---------------------------------------------------------------- 2D vertex


def _planar_cases(rng):
    """(A, y0) pairs: eigenvector points, (1, 1)/sqrt(2) and random points, in
    axis-aligned frames up to cond 1e10 and rotated ones up to 1e4 (at 1e6,
    mapping x0 back to y0 alone costs up to 9e-14 of the vertex), and random
    spectra."""
    frames = [(np.eye(2), cond) for cond in (1.0, 1e3, 1e10)]
    frames += [(random_orthogonal(2, rng), cond) for cond in (1e2, 1e4, 1e4)]
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for q, cond in frames:
        ys = [q[:, 0], -q[:, 1], diag, -diag] + list(rng.normal(size=(4, 2)))
        yield from (((q * [1.0, cond]) @ q.T, y / np.linalg.norm(y)) for y in ys)
    for _ in range(20):
        y = rng.normal(size=2)
        yield random_spd(2, rng), y / np.linalg.norm(y)


def test_vertex_2d_hits_vertex_and_bound():
    rng = np.random.default_rng(23)
    cases = list(_planar_cases(rng))
    for k in (-150, 0, 150):
        for a, y in cases:
            e = Ellipsoid(10.0**k * a)
            x0 = e.B @ y
            for functional in ("edge_length", "facet_area"):
                q, cert = construct_through_vertex(e, x0, functional=functional)
                p = orthotope_to_parallelepiped(e, q)
                assert np.linalg.norm(all_plus_vertex(p) - x0) <= 1e-13 * np.linalg.norm(x0)
                # in the plane the vertex constraint costs nothing
                assert abs(cert.relative_gap) <= 1e-13
                assert cert.equality_residuals["cauchy_schwarz"] <= 1e-14


def test_vertex_2d_rejects_other_dimensions():
    e = Ellipsoid.ball(3)
    with pytest.raises(WrongDimension):
        construct_vertex_2d(e, np.array([1.0, 0.0, 0.0]))


def test_vertex_constraint_validates_boundary():
    e = Ellipsoid(np.diag([1.0, 4.0]))
    with pytest.raises(NotOnBoundary):
        VertexConstraint.from_point(e, np.array([5.0, 5.0]))
    # |x0^T C x0 - 1| is NaN at a NaN point, and the gate must not let it through
    e3 = Ellipsoid(np.diag([1.0, 4.0, 9.0]))
    for functional in ("edge_length", "facet_area"):
        with pytest.raises(NotOnBoundary):
            construct_through_vertex(e3, [np.nan, 0.0, 0.0], functional=functional)


def test_vertex_constraint_accepts_computed_points_on_ill_conditioned_ellipses():
    # rotated, cond 1e10, at extreme scales: x0 = B y is on the boundary to
    # round-off, and the eigenbasis maps it back to y without the eps * cond
    # error of the entries of C and B^-1
    for n in (2, 3, 5):
        for scale in (1e-150, 1.0, 1e150):
            rng = np.random.default_rng((n, 7))
            q = random_orthogonal(n, rng)
            e = Ellipsoid(scale * (q * np.geomspace(1.0, 1e10, n)) @ q.T)
            for _ in range(8):
                y = rng.standard_normal(n)
                y /= np.linalg.norm(y)
                vc = VertexConstraint.from_point(e, e.B @ y)
                assert np.max(np.abs(vc.y0 - y)) <= 1e-10, (n, scale)


# ------------------------------------------------------------- eigen vertex


def test_vertex_eigen_L_reference():
    e = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    x0 = np.array([0.0, 0.0, np.sqrt(3.0)])
    q, cert = construct_vertex_eigen_L(e, x0)
    assert abs(float(cert.achieved) - SQRT6_L) <= 1e-8 * SQRT6_L
    p = orthotope_to_parallelepiped(e, q)
    assert np.linalg.norm(all_plus_vertex(p) - x0) <= VERTEX_TOL * np.linalg.norm(x0)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_vertex_eigen_L_random_axes(n):
    rng = np.random.default_rng(600 + n)
    for k in range(10):
        a, y0, ev = spd_with_known_axis(n, rng)
        e = Ellipsoid(a)
        x0 = y0 * np.sqrt(ev)
        q, cert = construct_vertex_eigen_L(e, x0)
        assert abs(float(cert.achieved) - bound_L_max(e)) <= 1e-8 * bound_L_max(e)
        p = orthotope_to_parallelepiped(e, q)
        assert np.linalg.norm(all_plus_vertex(p) - x0) <= VERTEX_TOL * np.linalg.norm(x0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_vertex_L_through_non_eigenvector_point(n):
    # the free-z condition never needs x0 to be an eigenvector
    rng = np.random.default_rng(650 + n)
    e = Ellipsoid(random_spd(n, rng))
    y = rng.normal(size=n)
    x0 = e.B @ (y / np.linalg.norm(y))
    q, cert = construct_through_vertex(e, x0, functional="edge_length", seed=0)
    assert abs(float(cert.achieved) - bound_L_max(e)) <= 1e-12 * bound_L_max(e)
    assert cert.equality_residuals["vertex"] <= VERTEX_TOL
    p = orthotope_to_parallelepiped(e, q)
    assert np.linalg.norm(all_plus_vertex(p) - x0) <= VERTEX_TOL * np.linalg.norm(x0)


def _rescaled_inputs():
    # the acceptance threshold is relative to tr A, so a tiny ellipsoid is
    # solved as accurately as a unit one
    yield Ellipsoid(1e-20 * np.diag([1.0, 4.0, 9.0])), np.array([0.0, 0.0, 3e-10])
    for n in (4, 6):
        a, y0, ev = spd_with_known_axis(n, np.random.default_rng(600 + n))
        yield Ellipsoid(1e-20 * a), y0 * np.sqrt(1e-20 * ev)


def test_vertex_L_is_scale_free():
    for e, x0 in _rescaled_inputs():
        q, cert = construct_through_vertex(e, x0, functional="edge_length", seed=0)
        assert abs(cert.relative_gap) <= 1e-12
        p = orthotope_to_parallelepiped(e, q)
        assert np.linalg.norm(all_plus_vertex(p) - x0) <= VERTEX_TOL * np.linalg.norm(x0)


def _edge_vertex_inputs():
    """(spectrum w, frame P, turn Q, unit y) over n = 2..12, scales 1e-150,
    1 and 1e150 and cond 1, 1e3 and 1e10: A = P diag(w) P^T, x0 = B y."""
    for n in range(2, 13):
        for k in (-150, 0, 150):
            for cond in (1.0, 1e3, 1e10):
                rng = np.random.default_rng((n, k + 150, round(np.log10(cond))))
                w = 10.0**k * np.geomspace(1.0, cond, n)
                frame, turn = random_orthogonal(n, rng), random_orthogonal(n, rng)
                for _ in range(2):
                    y = rng.standard_normal(n)
                    yield cond, w, frame, turn, y / np.linalg.norm(y)


def test_vertex_L_is_exact_and_rotation_equivariant():
    # one pinning pass zeroes diag(U^T N U), N = A / tr A - y0 y0^T, so the
    # Cauchy-Schwarz condition holds to rounding and every |z_i| =
    # sqrt(u_i^T A u_i / tr A) >= sqrt(w_min / tr A)
    worst_vertex = worst_inscribed = 0.0
    for cond, w, frame, turn, y in _edge_vertex_inputs():
        fields = []
        # QAQ^T through Qx0, built from the rotated frame so x0 stays on the boundary
        for p, point in ((frame, y), (turn @ frame, turn @ y)):
            e = Ellipsoid((p * w) @ p.T)
            q, cert = construct_vertex_eigen_L(e, e.B @ point)
            res = cert.equality_residuals
            assert res["cauchy_schwarz"] <= 1e-14, res
            assert abs(cert.relative_gap) <= 1e-14
            z_floor = np.sqrt(np.min(e.eigenvalues) / np.trace(e.A))
            assert np.min(q.lam) / 2.0 >= (1.0 - 1e-12) * z_floor
            worst_vertex = max(worst_vertex, res["vertex"])
            worst_inscribed = max(worst_inscribed, res["inscribed"])
            fields.append(dict(res, relative_gap=cert.relative_gap))
        # the frames differ (the pinning reads the diagonal in the given basis);
        # at cond 1e10 vertex and inscribed are rounding near 1e-11 in both
        keys = fields[0] if cond <= 1e3 else ("cauchy_schwarz", "relative_gap")
        for key in keys:
            assert abs(fields[0][key] - fields[1][key]) <= 1e-12, (key, cond, fields)
    # the solver route's worst on these inputs: vertex 9.0e-12, inscribed 3.0e-11
    assert worst_vertex <= 9.1e-12
    assert worst_inscribed <= 3.1e-11


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_vertex_L_tol_zero_is_exact(n):
    # tol only ends the pinning early; at tol = 0 its report can read
    # unconverged on rounding alone, but the construction is exact, so the
    # route certifies the same bound at tol = 0 and at the default
    rng = np.random.default_rng(660 + n)
    unconverged = 0
    for _ in range(10):
        e = Ellipsoid(random_spd(n, rng, hi=1e6))
        y = rng.normal(size=n)
        y /= np.linalg.norm(y)
        n_mat = e.A / np.trace(e.A) - np.outer(y, y)
        unconverged += not equalize_diagonal(n_mat, tol=0.0).converged
        for tol in (0.0, DEFAULT_TOLERANCES.equalizer_tol):
            _, cert = construct_vertex_eigen_L(e, e.B @ y, tol=tol)
            assert cert.equality_residuals["cauchy_schwarz"] <= 1e-14
            assert abs(cert.relative_gap) <= 1e-14
    assert unconverged > 0
    # on a sphere through a point on two axes the pinning meets a tie
    e = Ellipsoid(1e-150 * np.eye(n))
    y = np.zeros(n)
    y[-2:] = 2.0**-0.5
    for tol in (0.0, DEFAULT_TOLERANCES.equalizer_tol):
        _, cert = construct_vertex_eigen_L(e, e.B @ y, tol=tol)
        assert cert.equality_residuals["cauchy_schwarz"] <= 1e-14


@pytest.mark.parametrize("n", [4, 6, 7])
def test_vertex_eigen_S_random_axes(n):
    rng = np.random.default_rng(700 + n)
    for k in range(8):
        a, y0, ev = spd_with_known_axis(n, rng)
        e = Ellipsoid(a)
        x0 = y0 * np.sqrt(ev)
        q, cert = construct_vertex_eigen_S(e, x0, seed=k)
        assert abs(float(cert.achieved) - bound_S_max(e)) <= 1e-8 * bound_S_max(e)
        p = orthotope_to_parallelepiped(e, q)
        assert np.linalg.norm(all_plus_vertex(p) - x0) <= VERTEX_TOL * np.linalg.norm(x0)


def test_vertex_eigen_S_n3_general_point_runs_solver():
    # off an eigenvector the ones vector is no eigenvector of M = U0^T C U0;
    # the n = 3 closed form still needs no solver step and reports the least
    # variance on the orbit of M / tr M, a floor far above the threshold
    e = Ellipsoid(np.diag([1.0, 4.0, 9.0]))
    x0 = np.array([0.6, 0.8, 0.0])
    x0 /= np.sqrt(x0 @ e.C @ x0)
    with pytest.raises(NotConverged, match="proven least diagonal variance") as info:
        construct_vertex_eigen_S(e, x0)
    rep = info.value.report
    u0 = barycentric_basis(VertexConstraint.from_point(e, x0).y0)
    m = u0.T @ e.C @ u0
    assert rep.iterations == 0
    assert np.max(np.abs(rep.V @ np.ones(3) - 1.0)) <= 1e-12
    assert rep.final_variance <= (1.0 + 1e-9) * grid_floor(m / np.trace(m))
    assert rep.final_variance < orbit_psi(m / np.trace(m), np.eye(3))


@pytest.mark.parametrize("c", [1e-150, 1e-6, 1.0, 1e6, 1e150])
def test_vertex_eigen_S_n3_sphere_certifies(c):
    # on a sphere M = U0^T C U0 is cI up to rounding, so every frame attains
    # S_max; near-spheres I + 1e-14 W likewise, within their 1e-14 spread
    rng = np.random.default_rng(705)
    w = rng.normal(size=(3, 3))
    for a in (np.eye(3), np.eye(3) + 1e-14 * (w + w.T)):
        e = Ellipsoid(c * a)
        for _ in range(5):
            y = rng.normal(size=3)
            q, cert = construct_vertex_eigen_S(e, e.B @ (y / np.linalg.norm(y)))
            assert abs(cert.relative_gap) <= 1e-9
            for key in ("uniform_lambda", "diagonal_equalization", "vertex", "inscribed"):
                assert cert.equality_residuals[key] <= 1e-9, (key, cert.equality_residuals)


# inputs k (seed k) of _general_points(n) that reach S_max; the others at
# n = 4, 5, 6 and 8 stop unconverged after the whole budget
GENERAL_POINTS_ATTAINED = {
    4: (0, 3, 4, 5, 6),
    5: (1, 2, 4, 5, 7),
    6: (0, 1, 2, 3, 4),
    7: (0, 1, 2, 3, 4),
    8: (0, 1, 2, 3, 4),
}


def _general_points(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(20):
        e = Ellipsoid(random_spd(n, rng))
        y = rng.normal(size=n)
        yield e, e.B @ (y / np.linalg.norm(y))


@pytest.mark.parametrize("n", sorted(GENERAL_POINTS_ATTAINED))
def test_vertex_S_through_general_points(n):
    for k, (e, x0) in enumerate(_general_points(n)):
        if k not in GENERAL_POINTS_ATTAINED[n]:
            continue
        q, cert = construct_through_vertex(e, x0, functional="facet_area", seed=k)
        res = cert.equality_residuals
        assert abs(cert.relative_gap) <= 1e-9
        for key in ("uniform_lambda", "diagonal_equalization", "vertex", "inscribed"):
            assert res[key] <= 1e-9, (k, key, res[key])


@pytest.mark.parametrize("k", [-6, 0, 6])
def test_vertex_S_tilted_eigenvector_same_outcome_at_every_scale(k):
    # a 3e-9 tilt off an eigenvector makes U0^T C U0 row-constant only
    # approximately; whether a certificate comes back must not depend on the
    # scale of A. diagonal_equalization is left out: at 1e6 the equalizer's
    # absolute threshold accepts a larger relative deviation (ROADMAP item 1)
    a, y0, _ = spd_with_known_axis(4, np.random.default_rng(704))
    y = y0 + 3e-9 * np.roll(y0, 1)
    e = Ellipsoid(10.0**k * a)
    x0 = e.B @ (y / np.linalg.norm(y))
    q, cert = construct_through_vertex(e, x0, functional="facet_area", seed=0)
    assert abs(cert.relative_gap) <= 1e-9
    assert cert.equality_residuals["uniform_lambda"] <= 1e-9
    assert cert.equality_residuals["vertex"] <= 1e-9


def test_vertex_eigen_S_n3_floor_is_honest():
    # generic n=3 constrained facet problem sits on an invariant-variance
    # orbit; the pipeline must refuse rather than return a bad frame
    e = Ellipsoid(np.diag([1.0, 4.0, 9.0]))
    x0 = np.array([0.0, 0.0, 3.0])
    with pytest.raises(NotConverged):
        construct_vertex_eigen_S(e, x0)


def test_ball_any_vertex_works():
    rng = np.random.default_rng(41)
    for n in (3, 4, 5):
        e = Ellipsoid.ball(n, radius=1.5)
        y = rng.normal(size=n)
        x0 = 1.5 * y / np.linalg.norm(y)
        q, cert = construct_through_vertex(e, x0, functional="edge_length", seed=1)
        assert abs(float(cert.achieved) - bound_L_max(e)) <= 1e-8 * bound_L_max(e)


# ----------------------------------------------------------------- dispatch


def test_dispatch_unknown_functional():
    e = Ellipsoid.ball(2)
    with pytest.raises(ValueError):
        construct_through_vertex(e, np.array([1.0, 0.0]), functional="volume")


def test_dispatch_2d_routes():
    e = Ellipsoid(np.diag([1.0, 4.0]))
    x0 = np.array([1.0, 0.0])
    q, cert = construct_through_vertex(e, x0, functional="facet_area")
    assert cert.achieved.functional_kind == "facet_area"


def test_dispatch_facet_through_general_point():
    # the facet area through a non-eigenvector point takes the same route as
    # through an eigenvector one
    e = Ellipsoid(np.diag([1.0, 2.0, 4.0, 8.0]))
    y = np.array([0.1, 0.2, 0.3, 0.9])
    x0 = y / np.sqrt(y @ e.C @ y)
    q, cert = construct_through_vertex(e, x0, functional="facet_area")
    assert abs(cert.relative_gap) <= 1e-9
    assert cert.equality_residuals["vertex"] <= VERTEX_TOL


def test_vertex_lambdas_signs():
    u = np.eye(3)
    y0 = np.array([0.5, -0.5, np.sqrt(0.5)])
    u_fixed, lam = vertex_lambdas(u, y0)
    assert np.all(lam > 0)
    z = u_fixed.T @ y0
    assert np.all(z > 0)
    assert abs(np.sum(z * z) - 1.0) < 1e-12
    assert abs(np.sum(lam * lam) - 4.0) < 1e-12
    with pytest.raises(DegenerateVertex):
        vertex_lambdas(np.eye(3), np.array([1.0, 0.0, 0.0]))
