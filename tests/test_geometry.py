import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from inscribed_extrema import (
    DegenerateParallelepiped,
    DimensionMismatch,
    Ellipsoid,
    InscribedExtremaError,
    NotInscribed,
    NotOrthotope,
    NotPositiveDefinite,
    Parallelepiped,
    SphereOrthotope,
    all_plus_vertex,
    construct_L_max,
    construct_S_max,
    is_inscribed,
    orthotope_to_parallelepiped,
    parallelepiped_to_orthotope,
    random_orthogonal,
)

from draws import random_orthotope, random_spd
from enumeration import sign_vectors, vertices


def test_ellipsoid_rejects_non_spd():
    with pytest.raises(NotPositiveDefinite):
        Ellipsoid(np.diag([1.0, -2.0]))


def test_ellipsoid_caches_consistent_decompositions():
    rng = np.random.default_rng(3)
    a = random_spd(4, rng)
    e = Ellipsoid(a)
    assert_allclose(e.B @ e.B, a, atol=1e-12)
    # B^-1 is applied in the eigenbasis: B^-1 X = Q eigen_coordinates(X), for a point or columns
    x = rng.standard_normal((4, 3))
    assert_allclose(e.eigenvectors @ e.eigen_coordinates(e.B @ x), x, atol=1e-12)
    assert_allclose(e.eigenvectors @ e.eigen_coordinates(e.B @ x[:, 0]), x[:, 0], atol=1e-12)
    assert_allclose(a @ e.C, np.eye(4), atol=1e-11)


def test_ball_constructor():
    e = Ellipsoid.ball(3, radius=2.0)
    assert_allclose(e.A, 4.0 * np.eye(3))
    x = np.array([2.0, 0.0, 0.0])
    assert abs(e.boundary_residual(x)) < 1e-15


def test_orthotope_validation():
    u = np.eye(3)
    lam = np.array([2.0, 0.0, 0.0])
    # zero edge
    with pytest.raises(DegenerateParallelepiped):
        SphereOrthotope(u, lam)
    # off the sphere inscription budget
    with pytest.raises(NotInscribed):
        SphereOrthotope(u, np.array([1.0, 1.0, 1.0]))
    # a NaN entry, which a `value > tol` gate would let through
    with pytest.raises(DimensionMismatch):
        SphereOrthotope(np.diag([np.nan, 1.0, 1.0]), np.full(3, 2.0 / np.sqrt(3.0)))
    with pytest.raises(DegenerateParallelepiped):
        SphereOrthotope(u, np.array([np.nan, 1.0, 1.0]))


def test_sign_vectors_order_and_count():
    s = sign_vectors(2)
    assert s.shape == (4, 2)
    assert np.array_equal(s[0], [-1, -1])
    assert np.array_equal(s[-1], [1, 1])
    assert len({tuple(row) for row in sign_vectors(4)}) == 16


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_round_trip_orthotope_parallelepiped(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(15):
        e = Ellipsoid(random_spd(n, rng))
        q = random_orthotope(n, rng)
        p = orthotope_to_parallelepiped(e, q)
        q2 = parallelepiped_to_orthotope(e, p)
        p2 = orthotope_to_parallelepiped(e, q2)
        assert_allclose(p2.V, p.V, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_vertices_on_boundary(n):
    rng = np.random.default_rng(20 + n)
    e = Ellipsoid(random_spd(n, rng))
    q = random_orthotope(n, rng)
    p = orthotope_to_parallelepiped(e, q)
    rep = is_inscribed(e, p)
    assert rep.inscribed
    assert rep.max_residual < 1e-10
    for x in vertices(p):
        assert abs(e.boundary_residual(x)) < 1e-9


def test_all_plus_vertex_is_half_edge_sum():
    rng = np.random.default_rng(4)
    e = Ellipsoid(random_spd(3, rng))
    q = random_orthotope(3, rng)
    p = orthotope_to_parallelepiped(e, q)
    assert_allclose(all_plus_vertex(p), 0.5 * p.V.sum(axis=1), atol=1e-14)


def enumerated_max_residual(e, p):
    """The reference is_inscribed bounds: the worst of all 2^n vertex residuals."""
    x = vertices(p)
    return float(np.max(np.abs(np.einsum("ij,jk,ik->i", x, e.C, x) - 1.0)))


def cross_check_inputs(n, rng):
    """(kind, ellipsoid, parallelepiped): constructed, 1e-6 noise on V, and a
    single-pair orthogonality break <w_i, w_j> = delta as in criterion 9."""
    for _ in range(4):
        e = Ellipsoid(random_spd(n, rng))
        q = random_orthotope(n, rng)
        p = orthotope_to_parallelepiped(e, q)
        yield "constructed", e, p
        yield "noise", e, Parallelepiped(p.V + 1e-6 * rng.standard_normal((n, n)))
        w = q.U * q.lam
        i, j = rng.choice(n, size=2, replace=False)
        w[:, j] += (1e-4 * (1.0 + rng.random()) / q.lam[i]) * q.U[:, i]
        yield "pair_break", e, Parallelepiped(e.B @ w)


@pytest.mark.parametrize("n", range(2, 13))
def test_inscribed_residual_bounds_every_vertex(n):
    rng = np.random.default_rng(30 + n)
    tol = 1e-9
    for kind, e, p in cross_check_inputs(n, rng):
        rep = is_inscribed(e, p, tol=tol)
        worst = enumerated_max_residual(e, p)
        assert worst <= rep.max_residual + 1e-13, (kind, worst, rep.max_residual)
        if n == 2 and kind != "constructed":
            assert abs(rep.max_residual - worst) <= 1e-13, (kind, worst, rep.max_residual)
        if worst >= 10.0 * tol or worst <= 0.1 * tol:
            assert rep.inscribed == (worst <= tol), (kind, worst, rep.max_residual)


@pytest.mark.parametrize("n", [24, 64])
def test_certificates_past_vertex_enumeration_cap(n):
    _, cert = construct_S_max(Ellipsoid.ball(n))
    assert cert.equality_residuals["inscribed"] <= 1e-12


def test_is_inscribed_allocates_no_vertex_arrays():
    n = 16
    e = Ellipsoid(random_spd(n, np.random.default_rng(16)))
    p = orthotope_to_parallelepiped(e, random_orthotope(n, np.random.default_rng(17)))
    is_inscribed(e, p)  # warm up numpy's lazily loaded paths
    tracemalloc.start()
    try:
        rep = is_inscribed(e, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.inscribed
    # one 2^16 x 16 float64 vertex array alone is 8 MB
    assert peak < 1_000_000


def test_not_inscribed_detected():
    e = Ellipsoid(np.diag([1.0, 4.0]))
    v = np.array([[1.0, 0.0], [0.0, 1.0]])  # too small: vertices interior
    p = Parallelepiped(v)
    rep = is_inscribed(e, p)
    assert not rep.inscribed


def test_parallelepiped_to_orthotope_rejects_skew():
    e = Ellipsoid.ball(3)
    v = np.eye(3)
    v[0, 1] = 0.8  # edges no longer orthogonal in the sphere pullback
    v *= 2.0 / np.sqrt(3.0)
    with pytest.raises((NotOrthotope, NotInscribed)):
        parallelepiped_to_orthotope(e, Parallelepiped(v))
    v = np.eye(3)
    v[0, 1] = 1e-9  # cosine 1e-9, above linalg.ORTHO_TOL; sum ||w_i||^2 = 4 to rounding
    v *= 2.0 / np.sqrt(3.0)
    with pytest.raises(NotOrthotope):
        parallelepiped_to_orthotope(e, Parallelepiped(v))


def test_parallelepiped_rejects_singular_edges():
    v = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(DegenerateParallelepiped):
        Parallelepiped(v)


def test_parallelepiped_dict_round_trip():
    rng = np.random.default_rng(9)
    e = Ellipsoid(random_spd(3, rng))
    p = orthotope_to_parallelepiped(e, random_orthotope(3, rng))
    p2 = Parallelepiped.from_dict(p.to_dict())
    assert_allclose(p2.V, p.V)


def _longdouble_inscribed_residual(e, v):
    """is_inscribed's bound for the ellipsoid Q diag(w) Q^T of e's eigenpairs, in longdouble."""
    q, w = e.eigenvectors.astype(np.longdouble), e.eigenvalues.astype(np.longdouble)
    z = (q.T @ v.astype(np.longdouble)) / np.sqrt(w)[:, None]
    g = z.T @ z
    off = np.abs(g)
    np.fill_diagonal(off, 0.0)
    return abs(np.trace(g) / 4 - 1) + off.sum() / 4


def test_inscribed_residual_tracks_a_longdouble_reference():
    # cond 1e10 at scales 1e-20, 1 and 1e20, n = 2..20, both global constructions.
    # W = B^-1 V is formed in the eigenbasis; through the entries of B^-1 this set's
    # error was 1.16e-11 at worst and 2.1e-12 in the median
    errors = []
    for n in range(2, 21):
        for k in (-20, 0, 20):
            rng = np.random.default_rng((0, n, k + 20))
            q = random_orthogonal(n, rng)
            e = Ellipsoid(10.0**k * (q * np.geomspace(1.0, 1e10, n)) @ q.T)
            for build in (construct_L_max, construct_S_max):
                _, cert = build(e)
                ref = _longdouble_inscribed_residual(e, cert.parallelepiped.V)
                errors.append(float(abs(np.longdouble(cert.equality_residuals["inscribed"]) - ref)))
    assert max(errors) < 1.1e-11
    assert np.median(errors) < 1e-13


def test_reverse_reduction_round_trips_at_cond_1e11():
    # 80 global constructions, n = 2..10: reading W = B^-1 V through the entries
    # of B^-1 raised on 6 of them (sum lambda^2 off 4 by about 1e-10)
    raised = 0
    for i in range(40):
        n = 2 + i % 9
        rng = np.random.default_rng((3, i))
        q = random_orthogonal(n, rng)
        e = Ellipsoid((q * np.logspace(0.0, 11.0, n)) @ q.T)
        for build in (construct_L_max, construct_S_max):
            try:
                parallelepiped_to_orthotope(e, build(e)[1].parallelepiped)
            except InscribedExtremaError:
                raised += 1
    assert raised <= 1
