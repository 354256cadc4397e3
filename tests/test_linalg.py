import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from inscribed_extrema import Ellipsoid, linalg
from inscribed_extrema.errors import DimensionMismatch, NotPositiveDefinite, OutOfRange

TOL = 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64])
def test_random_orthogonal_is_orthogonal(n):
    for seed in range(20):
        q = linalg.random_orthogonal(n, seed)
        assert np.linalg.norm(q.T @ q - np.eye(n)) < 1e-13
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-12


def test_random_orthogonal_deterministic():
    a = linalg.random_orthogonal(5, 42)
    b = linalg.random_orthogonal(5, 42)
    assert np.array_equal(a, b)


def test_random_orthogonal_accepts_generator():
    rng = np.random.default_rng(7)
    a = linalg.random_orthogonal(4, rng)
    b = linalg.random_orthogonal(4, rng)
    # consecutive draws from one generator must differ
    assert np.linalg.norm(a - b) > 1e-3


def test_spd_matrix_rejects_indefinite():
    m = np.diag([1.0, -0.5])
    with pytest.raises(NotPositiveDefinite):
        linalg.spd_matrix(m)


def test_spd_matrix_rejects_singular():
    with pytest.raises(NotPositiveDefinite):
        linalg.spd_matrix(np.diag([1.0, 0.0]))


def test_spd_matrix_keeps_entries_near_the_float64_limit():
    # A + A^T overflows here; A/2 + A^T/2 does not
    d = np.diag([1e308, 1e308])
    a, w, q = linalg.spd_matrix(d)
    assert np.array_equal(a, d)
    assert np.array_equal(w, [1e308, 1e308])
    assert np.array_equal(q, np.eye(2))
    assert Ellipsoid(d).log_det == pytest.approx(2.0 * math.log(1e308), rel=1e-15)


def test_spd_matrix_refuses_eigenvalues_beyond_float64():
    # rank 1 with eigenvalue 2e308: refused at the boundary, not carried on as NaN
    with pytest.raises(OutOfRange, match="not finite in float64"):
        linalg.spd_matrix(np.full((2, 2), 1e308))


@pytest.mark.parametrize("n", [2, 3, 6])
def test_householder_to_maps_a_to_b(n):
    rng = np.random.default_rng(n)
    for _ in range(25):
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        b = rng.normal(size=n)
        b /= np.linalg.norm(b)
        w = linalg.householder_to(a, b)
        assert np.linalg.norm(w @ a - b) < TOL
        assert np.linalg.norm(w.T @ w - np.eye(n)) < TOL
        # orthogonality gives the reverse mapping for free
        assert np.linalg.norm(w.T @ b - a) < TOL


def test_householder_to_identity_when_equal():
    a = np.array([0.0, 1.0, 0.0])
    w = linalg.householder_to(a, a.copy())
    assert_allclose(w, np.eye(3), atol=1e-14)


def test_require_orthogonal_raises():
    m = np.eye(3)
    m[0, 1] = 1e-6
    with pytest.raises(DimensionMismatch):
        linalg.require_orthogonal(m)
    with pytest.raises(DimensionMismatch):  # a NaN comparison is False: the gate must fail on it
        linalg.require_orthogonal(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_unit_vector_validates_norm():
    v = linalg.unit_vector(np.array([0.6, 0.8]))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15
    with pytest.raises(DimensionMismatch):
        linalg.unit_vector(np.array([3.0, 4.0]))
    with pytest.raises(DimensionMismatch):
        linalg.unit_vector([np.nan, 0.0, 0.0])


def test_sym_matrix_symmetrizes():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = linalg.sym_matrix(m)
    assert np.array_equal(s, s.T)
    assert s[0, 1] == 1.0


def test_haar_stack_matches_single_draws():
    # search determinism across CHUNK rests on this: a frame is bit-identical
    # whatever stack it is computed in
    for n in range(2, 17):
        g = np.random.default_rng(n).standard_normal((n, n, 1024))
        stacked = linalg.haar_from_gaussian(g)
        for width in (*range(1, 34), 100, 904):
            for t0 in {0, 5, min(333, 1024 - width), 1024 - width}:
                part = linalg.haar_from_gaussian(g[..., t0 : t0 + width])
                assert np.array_equal(stacked[..., t0 : t0 + width], part), (n, width, t0)
        for k in (0, 511, 1023):
            assert np.array_equal(stacked[..., k], linalg.haar_from_gaussian(g[..., k])), (n, k)


def test_haar_from_gaussian_is_the_sign_fixed_qr_factor():
    # numpy's QR is the reference only: Q with R = Q^T G upper triangular, diag > 0
    for n in range(2, 9):
        g = np.random.default_rng(100 + n).standard_normal((n, n, 256))
        q = np.moveaxis(linalg.haar_from_gaussian(g), -1, 0)
        g = np.moveaxis(g, -1, 0)
        r_diag = np.diagonal(np.swapaxes(q, -1, -2) @ g, axis1=-2, axis2=-1)
        assert np.all(r_diag > 0.0)
        q_ref, r_ref = np.linalg.qr(g)
        q_ref = q_ref * np.sign(np.diagonal(r_ref, axis1=-2, axis2=-1))[..., None, :]
        assert np.max(np.abs(q - q_ref)) <= 1e-12, n


def test_givens_rotates_the_coordinate_plane():
    g = linalg.givens(4, 1, 3, 0.3)
    assert_allclose(g.T @ g, np.eye(4), atol=TOL)
    assert_allclose(g @ np.eye(4)[1], [0.0, np.cos(0.3), 0.0, np.sin(0.3)], atol=TOL)
    assert_allclose(g[[0, 2]][:, [0, 2]], np.eye(2), atol=0.0)

