import functools
import hashlib
import itertools
import math

import numpy as np
import pytest
from draws import random_spd as draw_spd
from numpy.testing import assert_allclose

from inscribed_extrema import (
    DimensionMismatch,
    DimensionTooSmall,
    Ellipsoid,
    NonPositiveInput,
    NotConverged,
    NotOnBoundary,
    edge_length_total,
    equalize_diagonal_barycentric,
    explore_restricted_schur_horn,
    facet_area_total_factored,
    householder_to,
    orthotope_to_parallelepiped,
    random_search_global,
    random_search_vertex,
)
from inscribed_extrema import oracle
from inscribed_extrema.equalizer import STEPS_PER_START, barycentric_basis, diag_residual
from inscribed_extrema.functionals import evaluate
from inscribed_extrema.linalg import sym_matrix
from orbit import grid_floor

N3_ORBIT_FLOOR = 0.30618621784789724  # sqrt(2/3) * (3/8), the invariant-orbit residual below
random_spd = functools.partial(draw_spd, lo=0.2, hi=5.0)


def test_search_rejects_zero_trials():
    e = Ellipsoid.ball(2)
    with pytest.raises(NonPositiveInput):
        random_search_global(e, "edge_length", 0, seed=1)


@pytest.mark.parametrize("search", ["global", "vertex"])
def test_search_rejects_negative_seed(search):
    e = Ellipsoid.ball(2)
    with pytest.raises(NonPositiveInput):
        if search == "global":
            random_search_global(e, "edge_length", 5, seed=-1)
        else:
            random_search_vertex(e, np.array([1.0, 0.0]), "edge_length", 5, seed=-1)


VALUE_OF = {"edge_length": edge_length_total, "facet_area": facet_area_total_factored}


@pytest.mark.parametrize("search, functional", [
    ("global", "facet_area"), ("global", "edge_length"), ("vertex", "edge_length"),
])
def test_search_does_not_depend_on_chunking(monkeypatch, search, functional):
    rng = np.random.default_rng(21)
    e = Ellipsoid(random_spd(3, rng))
    y = rng.normal(size=3)
    x0 = e.B @ (y / np.linalg.norm(y))

    def run():
        if search == "global":
            return random_search_global(e, functional, 2500, seed=13, keep_trace=True)
        return random_search_vertex(e, x0, functional, 2500, seed=13, keep_trace=True)

    wide = run()
    monkeypatch.setattr(oracle, "CHUNK", 7)
    narrow = run()
    for name in ("best_value", "best_trial", "violations", "degenerate_skips", "trace"):
        assert getattr(wide, name) == getattr(narrow, name), name
    for rep in (wide, narrow):
        value = float(VALUE_OF[functional](e, rep.best_config))
        assert abs(value - rep.best_value) <= 1e-9 * rep.best_value
    # the best configuration was kept from a later chunk than the first
    assert narrow.best_trial >= oracle.CHUNK


@pytest.mark.parametrize("n", [2, 5, 8])
def test_search_is_bit_identical_at_every_chunk_size(monkeypatch, n):
    # from n = 8 on a lone lane would sum its terms pairwise; a chunk of one
    # trial must still give the bits of a chunk of many
    rng = np.random.default_rng(30 + n)
    e = Ellipsoid(random_spd(n, rng))
    y = rng.normal(size=n)
    x0 = e.B @ (y / np.linalg.norm(y))
    for search, functional in itertools.product(("global", "vertex"), VALUE_OF):
        seen = []
        for chunk in (1, 7, 333, 1024):
            monkeypatch.setattr(oracle, "CHUNK", chunk)
            if search == "global":
                rep = random_search_global(e, functional, 2500, seed=5, keep_trace=True)
            else:
                rep = random_search_vertex(e, x0, functional, 2500, seed=5, keep_trace=True)
            seen.append((rep.trace, rep.best_trial, rep.best_config.U.tobytes(),
                         rep.best_config.lam.tobytes()))
        assert all(s == seen[0] for s in seen[1:]), (search, functional)


@pytest.mark.parametrize("chunk", [1, 7, 1024])
def test_search_reports_the_edge_lengths_it_scored(monkeypatch, chunk):
    # best_config carries the lambda its trial was scored with, so evaluating
    # it gives best_value to the bit, in both searches and both functionals
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    for n in range(2, 9):
        rng = np.random.default_rng(60 + n)
        e = Ellipsoid(random_spd(n, rng))
        y = rng.normal(size=n)
        x0 = e.B @ (y / np.linalg.norm(y))
        for functional in VALUE_OF:
            for rep in (random_search_global(e, functional, 400, seed=n),
                        random_search_vertex(e, x0, functional, 400, seed=n)):
                cfg = rep.best_config
                value = float(evaluate(e, cfg.U, cfg.lam, functional))
                assert value == rep.best_value, (n, functional, rep.best_trial)


@pytest.mark.parametrize("chunk", [1, 7, 1024])
def test_search_builds_one_generator(monkeypatch, chunk):
    # each search draws every trial, its best one included, from one Philox stream
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    rng = np.random.default_rng(8)
    e = Ellipsoid(random_spd(4, rng))
    x0 = e.B @ np.full(4, 0.5)
    for functional in VALUE_OF:
        for search in (lambda: random_search_global(e, functional, 50, seed=3),
                       lambda: random_search_vertex(e, x0, functional, 50, seed=3)):
            built.clear()
            search()
            assert len(built) == 1, (chunk, functional)


def test_vertex_search_with_every_trial_skipped_has_no_best(monkeypatch):
    # a tolerance no |z_i| can meet masks every frame: nothing is scored
    monkeypatch.setattr(oracle, "DEGENERATE_TOL", 2.0)
    rep = random_search_vertex(Ellipsoid.ball(3), np.array([1.0, 0.0, 0.0]), "edge_length", 40,
                               seed=1)
    assert rep.degenerate_skips == 40
    assert rep.best_trial == -1 and rep.best_value == -np.inf
    assert rep.best_config is None and rep.to_dict()["best_config"] is None


# SHA-256 of the float64 bytes of _normals(seed, t0, t1, k), trial-major:
# a change to the sampler's layout or speed must keep every normal bit for bit
NORMALS_SHA256 = {
    (1, 0, 1024, 6): "1c62ea71d5d3cab3b0f1bc52582b9eddbbe5d1bd4514a278628ab0e12b6c41ba",
    (7, 1000, 2100, 30): "8d30dbcabcc16d890cf6dba23fbb5090761dcd24eb7bf24c988cc54c24e57a10",
    (13, 5, 300, 72): "44fe86585e86c90fe5badc3f67e118f2f7e2bc9de0b7a29ff76d55fab4e861fd",
    (2026, 3, 4, 20): "fa5bc828befcab1c0cebcb857240e2957a69f234b634e7c066ac55f8383856b9",
}


def _digest(g):
    return hashlib.sha256(np.ascontiguousarray(g.T).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(NORMALS_SHA256))
def test_search_normals_are_pinned(case):
    seed, t0, t1, k = case
    assert _digest(oracle._normals(oracle._stream(seed, t0, k), t1 - t0, k)) == NORMALS_SHA256[case]


def test_search_stream_chunks_are_successive_counter_ranges():
    # one generator per search: successive draws continue where the last stopped
    seed, t0, t1, k = case = (7, 1000, 2100, 30)
    bitgen = oracle._stream(seed, t0, k)
    parts = [oracle._normals(bitgen, width, k) for width in (24, 1, t1 - t0 - 25)]
    assert _digest(np.concatenate(parts, axis=1)) == NORMALS_SHA256[case]


def test_search_normals_are_standard_gaussian():
    g = oracle._normals(oracle._stream(2026, 0, 10), 20000, 10).T
    x = g.ravel()
    size = x.size
    # 200,000 draws: the bounds below are 5-6 standard errors wide
    assert abs(x.mean()) < 0.012
    assert abs(x.var() - 1.0) < 0.02
    assert abs(np.mean(x**4) - 3.0) < 0.12
    # the k normals of a trial are uncorrelated, the Box-Muller pairs included
    assert np.max(np.abs(g.T @ g / len(g) - np.eye(10))) < 0.04
    # Kolmogorov-Smirnov distance to N(0, 1); 1.95/sqrt(N) is the 0.1% level
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in np.sort(x)])
    steps = np.arange(1, size + 1) / size
    ks = max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / size)))
    assert ks < 1.95 / math.sqrt(size)


def _assert_haar_moments(n):
    u, _ = oracle._frames(n, 2026, False)(20000)
    u = np.moveaxis(u, -1, 0)
    assert_allclose(np.einsum("tij,tik->tjk", u, u), np.broadcast_to(np.eye(n), u.shape),
                    atol=1e-12)
    # Haar entries: E[U_ij] = 0, E[U_ij^2] = 1/n, E[U_ij^4] = 3/(n(n+2))
    assert np.max(np.abs(u.mean(axis=0))) < 0.02
    assert_allclose(np.mean(u**2, axis=0), np.full((n, n), 1.0 / n), atol=0.01)
    assert_allclose(np.mean(u**4, axis=0), np.full((n, n), 3.0 / (n * (n + 2))), atol=0.01)


def test_search_frames_are_haar():
    _assert_haar_moments(3)


def test_search_frames_are_haar_at_n8():
    _assert_haar_moments(8)


def test_search_is_deterministic_and_reconstructs_best():
    rng = np.random.default_rng(2)
    e = Ellipsoid(random_spd(3, rng))
    r1 = random_search_global(e, "facet_area", 4000, seed=11)
    r2 = random_search_global(e, "facet_area", 4000, seed=11)
    assert r1.best_value == r2.best_value
    assert r1.best_trial == r2.best_trial
    # best_config must evaluate back to best_value
    p = orthotope_to_parallelepiped(e, r1.best_config)
    from inscribed_extrema import facet_area_total_gram

    assert abs(float(facet_area_total_gram(p)) - r1.best_value) <= 1e-9 * r1.best_value


@pytest.mark.parametrize("functional", ["edge_length", "facet_area"])
def test_search_never_beats_bound(functional):
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        e = Ellipsoid(random_spd(n, rng))
        rep = random_search_global(e, functional, 20000, seed=n)
        assert rep.violations == 0
        assert rep.best_value <= rep.bound * (1.0 + 1e-9)
        assert rep.best_gap >= -1e-9


def test_search_trace_kept_on_request():
    e = Ellipsoid.ball(2)
    rep = random_search_global(e, "edge_length", 500, seed=4, keep_trace=True)
    assert rep.trace is not None and len(rep.trace) == 500
    assert max(rep.trace) == rep.best_value
    # and absent by default, reports stay light
    rep2 = random_search_global(e, "edge_length", 500, seed=4)
    assert rep2.trace is None
    assert "trace" not in rep2.to_dict()


def test_vertex_search_respects_vertex():
    rng = np.random.default_rng(7)
    e = Ellipsoid(random_spd(3, rng))
    y = rng.normal(size=3)
    y /= np.linalg.norm(y)
    x0 = e.B @ y
    rep = random_search_vertex(e, x0, "edge_length", 5000, seed=5)
    assert rep.violations == 0
    p = orthotope_to_parallelepiped(e, rep.best_config)
    from inscribed_extrema import all_plus_vertex

    assert np.linalg.norm(all_plus_vertex(p) - x0) < 1e-9


def test_vertex_search_refuses_a_nan_vertex():
    # before, every trial was skipped and best_value came back -inf
    with pytest.raises(NotOnBoundary):
        random_search_vertex(Ellipsoid.ball(3), [np.nan, 0.0, 0.0], "facet_area", 10, seed=0)


def test_vertex_search_beats_nothing_above_global_bound():
    e = Ellipsoid(np.diag([1.0, 4.0, 9.0]))
    x0 = np.array([0.0, 0.0, 3.0])
    rep = random_search_vertex(e, x0, "facet_area", 20000, seed=9)
    # constrained search stays under the global bound with a visible gap here
    assert rep.violations == 0
    assert rep.best_gap > 0.01


def test_explorer_edge_target_drives_residual_down():
    # free-z edge condition is solvable for n=3; the explorer should get close
    a = np.diag([1.0, 2.0, 3.0])
    y0 = np.array([0.0, 0.0, 1.0])
    rep = explore_restricted_schur_horn(a, y0, "edge_length", restarts=4, seed=2)
    assert rep.residual < 1e-8
    assert rep.U.shape == (3, 3)


def test_explorer_facet_target_finds_orbit_floor():
    # for n=3 the constrained facet residual has an invariant positive floor
    a = np.diag([1.0, 4.0, 9.0])
    y0 = np.array([0.0, 0.0, 1.0])
    rep = explore_restricted_schur_horn(a, y0, "facet_area", restarts=3, seed=0)
    assert abs(rep.residual - N3_ORBIT_FLOOR) < 1e-6


def _facet_floor_input():
    # general y0, n = 5; the restricted facet residual has a positive floor here
    rng = np.random.default_rng((2026, 5, 4))
    g = rng.normal(size=(5, 5))
    y = rng.normal(size=5)
    return g @ g.T + 0.5 * np.eye(5), y / np.linalg.norm(y)


def test_explorer_facet_floor_from_one_start():
    a, y0 = _facet_floor_input()
    rep = explore_restricted_schur_horn(a, y0, "facet_area", restarts=1, seed=0)
    # the annealing explorer that preceded the damped solver reached
    # 0.20529042 here with its defaults (8 restarts of 2000 annealing
    # steps), and 0.20726635 from one restart
    assert rep.residual <= 0.20529042
    assert rep.residual > 0.1


def test_explorer_facet_floor_is_first_order_stationary():
    a, y0 = _facet_floor_input()
    rep = explore_restricted_schur_horn(a, y0, "facet_area", restarts=1, seed=0)
    u0 = barycentric_basis(y0)
    m = u0.T @ np.linalg.inv(a) @ u0
    ones_complement = householder_to(np.eye(5)[0], np.full(5, 5**-0.5))[:, 1:]
    residual = diag_residual(m, float(np.trace(m)) / 5, ones_complement)
    r, jac = residual(u0.T @ rep.U)
    assert_allclose(np.linalg.norm(r), rep.residual, rtol=1e-9)
    # ||J^T r|| / (||J||_F ||r||): 1.3e-7 here; the annealer's frame had 1.5e-2
    assert np.linalg.norm(jac.T @ r) <= 1e-2 * np.linalg.norm(jac) * np.linalg.norm(r)


def _bary_report(m, **kw):
    try:
        return equalize_diagonal_barycentric(m, **kw)
    except NotConverged as exc:
        return exc.report


@pytest.mark.parametrize("n", [3, 4, 5])
def test_explorer_facet_target_is_the_barycentric_equalizer(n):
    # the facet target is the barycentric equalizer on U0^T C U0 / tr at tol 0,
    # with restarts * STEPS_PER_START solver steps; at n = 3 it is the closed
    # form, so every budget gives the proven floor
    rng = np.random.default_rng((2027, n))
    a = random_spd(n, rng)
    y0 = rng.normal(size=n)
    y0 /= np.linalg.norm(y0)
    u0 = barycentric_basis(y0)
    m = sym_matrix(u0.T @ Ellipsoid(a).C @ u0)
    scale = float(np.trace(m))
    m = m / scale
    for restarts in (0, 1, 8):
        rep = explore_restricted_schur_horn(a, y0, "facet_area", restarts=restarts, seed=5)
        bary = _bary_report(m, tol=0.0, max_iter=restarts * STEPS_PER_START, seed=5)
        assert np.array_equal(rep.U, u0 @ bary.V)
        assert rep.residual == math.sqrt(bary.final_variance) * scale
        if n == 3:
            floor = _bary_report(m, tol=0.0).final_variance
            assert rep.residual == math.sqrt(floor) * scale
            assert floor <= (1.0 + 1e-9) * grid_floor(m)


def test_explorer_facet_n2_keeps_the_barycentric_frame():
    # the stabilizer of the ones vector is trivial for n = 2: no frame moves
    y0 = np.array([0.6, 0.8])
    rep = explore_restricted_schur_horn(np.diag([1.0, 3.0]), y0, "facet_area", restarts=2)
    assert_allclose(rep.U, barycentric_basis(y0), atol=1e-15)
    assert rep.residual > 0.0


def test_explorer_rejects_unknown_target():
    with pytest.raises(ValueError):
        explore_restricted_schur_horn(np.eye(3), np.array([1.0, 0.0, 0.0]), "volume")


@pytest.mark.parametrize("target", ["edge_length", "facet_area"])
def test_explorer_rejects_n1(target):
    with pytest.raises(DimensionTooSmall):
        explore_restricted_schur_horn(np.array([[2.0]]), np.array([1.0]), target)


def test_explorer_rejects_negative_restarts():
    with pytest.raises(NonPositiveInput):
        explore_restricted_schur_horn(
            np.diag([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 1.0]), "edge_length", restarts=-2
        )


@pytest.mark.parametrize("target", ["edge_length", "facet_area"])
def test_explorer_rejects_vertex_of_wrong_dimension(target):
    with pytest.raises(DimensionMismatch):
        explore_restricted_schur_horn(np.diag([1.0, 2.0, 3.0]), np.array([0.6, 0.8]), target)
