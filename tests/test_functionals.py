import numpy as np
import pytest
from draws import random_orthotope, random_spd
from lemmas import (
    ConstraintViolated,
    beta_product_sum,
    maclaurin_gap,
    phi,
    phi_max,
    planar_identity_check,
)

from inscribed_extrema import (
    Ellipsoid,
    NonPositiveInput,
    Parallelepiped,
    SphereOrthotope,
    WrongDimension,
    bound_L_max,
    bound_S_max,
    diag_quadratic,
    edge_length_total,
    facet_area_total_factored,
    facet_area_total_gram,
    orthotope_to_parallelepiped,
    random_orthogonal,
)

# closed forms for diag(1,4,9): L bound 8*sqrt(14), S bound 56/sqrt(3)
L_149 = 29.93325909419153
S_149 = 32.331615074619044


def test_bounds_on_reference_ellipsoid():
    e = Ellipsoid(np.diag([1.0, 4.0, 9.0]))
    assert abs(bound_L_max(e) - L_149) < 1e-12
    assert abs(bound_S_max(e) - S_149) < 1e-12


def test_cube_in_ball_attains_both_bounds():
    n = 3
    e = Ellipsoid.ball(n)
    q = SphereOrthotope(np.eye(n), np.full(n, 2.0 / np.sqrt(n)))
    p = orthotope_to_parallelepiped(e, q)
    assert abs(float(edge_length_total(e, q)) - bound_L_max(e)) < 1e-12
    assert abs(float(facet_area_total_gram(p)) - bound_S_max(e)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_gram_and_factored_agree(n):
    rng = np.random.default_rng(30 + n)
    for _ in range(25):
        e = Ellipsoid(random_spd(n, rng))
        q = random_orthotope(n, rng)
        p = orthotope_to_parallelepiped(e, q)
        s1 = float(facet_area_total_gram(p))
        s2 = float(facet_area_total_factored(e, q))
        assert abs(s1 - s2) <= 1e-10 * s1


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_gram_route_matches_principal_minors(n):
    # reference: S = 2 sum_i sqrt(det G_{-i,-i}) with G = V^T V, minor by
    # minor, on general (skew, unequal) edges rather than inscribed ones
    rng = np.random.default_rng(60 + n)
    for _ in range(25):
        v = rng.standard_normal((n, n))
        g = v.T @ v
        keep = ~np.eye(n, dtype=bool)
        ref = 2.0 * sum(np.sqrt(np.linalg.det(g[np.ix_(k, k)])) for k in keep)
        assert float(facet_area_total_gram(Parallelepiped(v))) == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_bounds_dominate_random_samples(n):
    rng = np.random.default_rng(40 + n)
    e = Ellipsoid(random_spd(n, rng))
    l_bound, s_bound = bound_L_max(e), bound_S_max(e)
    for _ in range(50):
        q = random_orthotope(n, rng)
        p = orthotope_to_parallelepiped(e, q)
        assert float(edge_length_total(e, q)) <= l_bound * (1.0 + 1e-12)
        assert float(facet_area_total_gram(p)) <= s_bound * (1.0 + 1e-12)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_diag_quadratic_matches_the_full_product(n):
    rng = np.random.default_rng(40 + n)
    frames = np.stack([random_orthogonal(n, rng) for _ in range(64)])
    u = np.moveaxis(frames, 0, -1)
    m = rng.standard_normal((n, n))  # not symmetric: the identity holds for any square M
    full = np.diagonal(np.swapaxes(frames, -1, -2) @ m @ frames, axis1=-2, axis2=-1).T
    tol = 1e-14 * np.linalg.norm(m, 2)  # relative to max |(U^T M U)_ii|
    assert np.max(np.abs(diag_quadratic(u, m) - full)) <= tol
    assert np.max(np.abs(diag_quadratic(u[..., 5], m) - full[:, 5])) <= tol


def test_phi_max_values():
    # Phi(lambda) = (prod lambda) * sqrt(sum lambda^-2) on sum lambda^2 = 4
    assert abs(phi_max(2) - 2.0) < 1e-14
    assert abs(phi_max(3) - 4.0 / np.sqrt(3.0)) < 1e-14
    assert abs(phi_max(4) - 2.0) < 1e-14
    assert abs(phi_max(5) - 1.4310835055998654) < 1e-12


def test_phi_attains_max_at_uniform():
    for n in (2, 3, 4, 5):
        lam = np.full(n, 2.0 / np.sqrt(n))
        assert abs(phi(lam) - phi_max(n)) < 1e-13


def test_phi_batch_and_bound():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        h = np.abs(rng.normal(size=(500, n))) + 1e-12
        lam = 2.0 * h / np.linalg.norm(h, axis=1, keepdims=True)
        vals = phi(lam)
        assert vals.shape == (500,)
        assert np.all(vals <= phi_max(n) * (1.0 + 1e-12))


def test_phi_rejects_nonpositive():
    with pytest.raises(NonPositiveInput):
        phi(np.array([1.0, 0.0]))


def test_beta_product_sum_bound():
    # (prod beta) * (sum 1/beta) <= n^{(3-n)/2} on the unit sphere, beta > 0
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5, 6):
        b = np.abs(rng.normal(size=(400, n))) + 1e-9
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        vals = beta_product_sum(b)
        assert np.all(vals <= n ** ((3.0 - n) / 2.0) * (1.0 + 1e-10))
        uniform = np.full(n, 1.0 / np.sqrt(n))
        assert abs(beta_product_sum(uniform) - n ** ((3.0 - n) / 2.0)) < 1e-13


def test_beta_product_sum_requires_unit_norm():
    with pytest.raises(ConstraintViolated):
        beta_product_sum(np.array([1.0, 1.0]))


def test_maclaurin_gap_nonnegative():
    # prod x - mean x >= 0 whenever mean(1/x) = 1
    rng = np.random.default_rng(13)
    for n in (2, 3, 4, 5):
        y = np.abs(rng.normal(size=(300, n))) + 0.05
        x = y * np.mean(1.0 / y, axis=1, keepdims=True)  # now mean(1/x) = 1
        gaps = maclaurin_gap(x)
        assert np.all(gaps >= -1e-12)
    assert abs(maclaurin_gap(np.array([2.0, 1.0, 2.0 / 3.0])) - 1.0 / 9.0) < 1e-14


def test_maclaurin_gap_zero_at_ones():
    assert abs(maclaurin_gap(np.ones(4))) < 1e-15


def test_maclaurin_gap_checks_constraint():
    with pytest.raises(ConstraintViolated):
        maclaurin_gap(np.array([2.0, 2.0, 2.0]))


def test_planar_identity():
    # det(A) tr(A^-1) = tr(A) holds exactly in the plane
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = random_spd(2, rng)
        lhs, rhs = planar_identity_check(a)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    with pytest.raises(WrongDimension):
        planar_identity_check(np.eye(3))


def test_planar_bounds_coincide():
    # facets of a parallelogram are its edges, so both bounds are 4 sqrt(tr A)
    rng = np.random.default_rng(19)
    for _ in range(20):
        e = Ellipsoid(random_spd(2, rng))
        assert abs(bound_S_max(e) - bound_L_max(e)) < 1e-10 * bound_L_max(e)
