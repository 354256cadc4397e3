"""The paper's problem is scale-free and rotation-equivariant, and so must the
code be: A -> sA scales L by sqrt(s) and S by s^((n-1)/2), A -> R A R^T
changes neither bound nor certificate, and neither needs a small n.
"""

import json
import math

import numpy as np
import pytest
from draws import random_spd

from inscribed_extrema import cli
from inscribed_extrema import (
    Ellipsoid,
    OutOfRange,
    Parallelepiped,
    bound_L_max,
    bound_S_max,
    construct_L_max,
    construct_S_max,
    diag_quadratic,
    facet_area_total_gram,
    is_inscribed,
    orthotope_to_parallelepiped,
    random_orthogonal,
)
from inscribed_extrema.functionals import measure

REL = 1e-12
LOG10 = math.log(10.0)


def values(e):
    """Bounds, both constructions' achieved values and the verify values of the L one."""
    q_l, c_l = construct_L_max(e)
    _, c_s = construct_S_max(e)
    p = orthotope_to_parallelepiped(e, q_l)
    return {
        "L_max": bound_L_max(e),
        "S_max": bound_S_max(e),
        "L_construct": c_l.achieved.value,
        "S_construct": c_s.achieved.value,
        "L_verify": measure(e, p, "edge_length")[0].value,
        "S_verify": facet_area_total_gram(p).value,
    }, p


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("k", [-100, -30, 0, 30, 100])
def test_scaling_law(n, k):
    a = random_spd(n, np.random.default_rng((n, 7)))
    ref, p = values(Ellipsoid(a))
    s = 10.0**k
    e = Ellipsoid(s * a)
    # S of an (n-1)-dimensional facet picks up s^((n-1)/2); where that leaves
    # the float64 range the S values must refuse, not round to 0 or inf
    log_s = math.log(ref["S_max"]) + 0.5 * (n - 1) * k * LOG10
    if not math.log(np.finfo(float).tiny) < log_s < math.log(np.finfo(float).max):
        with pytest.raises(OutOfRange):
            bound_S_max(e)
        with pytest.raises(OutOfRange):
            construct_S_max(e)
        return
    got, _ = values(e)
    for key, value in got.items():
        power = 0.5 if key.startswith("L") else 0.5 * (n - 1)
        assert value == pytest.approx(ref[key] * s**power, rel=REL), key
    # the reference parallelepiped, rescaled, verifies against sA unchanged
    p_s = Parallelepiped(math.sqrt(s) * p.V)
    s_verify = ref["S_verify"] * s ** (0.5 * (n - 1))
    assert facet_area_total_gram(p_s).value == pytest.approx(s_verify, rel=REL)
    assert is_inscribed(e, p_s).max_residual <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_rotation_and_permutation_invariance(n):
    rng = np.random.default_rng((n, 11))
    a = random_spd(n, rng)
    e = Ellipsoid(a)
    _, c_l = construct_L_max(e)
    _, c_s = construct_S_max(e)
    for r in (random_orthogonal(n, rng), np.eye(n)[rng.permutation(n)]):
        e_r = Ellipsoid(r @ a @ r.T)
        assert bound_L_max(e_r) == pytest.approx(bound_L_max(e), rel=REL)
        assert bound_S_max(e_r) == pytest.approx(bound_S_max(e), rel=REL)
        _, c_lr = construct_L_max(e_r)
        _, c_sr = construct_S_max(e_r)
        assert abs(c_lr.relative_gap - c_l.relative_gap) <= REL
        assert abs(c_sr.relative_gap - c_s.relative_gap) <= REL


@pytest.mark.parametrize("n", [32, 64])
def test_global_constructions_certified_at_large_n(n):
    # cond(A) <= 100: the edges are well conditioned, and only a floor that
    # drifts with n (|det V| against ||V||^n) would reject them
    for i in range(3):
        e = Ellipsoid(random_spd(n, np.random.default_rng((n, i))))
        for q, cert in (construct_L_max(e), construct_S_max(e)):
            assert abs(cert.relative_gap) <= REL
            assert is_inscribed(e, orthotope_to_parallelepiped(e, q)).inscribed


def _rotated_spd(n, rng, cond):
    q = random_orthogonal(n, rng)
    return (q * np.logspace(0.0, math.log10(cond), n)) @ q.T


@pytest.mark.parametrize("k", [-200, -100, 0, 100, 200])
def test_edge_vertex_construction_is_scale_free(tmp_path, capsys, k):
    # the free-z solver works on A / tr A: at 1e200 its threshold and residual
    # would otherwise overflow, and at 1e-200 the certificate's residual
    # underflow; --tol-equalizer bounds the Cauchy-Schwarz residual
    for cond in (10.0, 1e6, 1e10):
        rng = np.random.default_rng((4, int(math.log10(cond))))
        e = Ellipsoid(10.0**k * _rotated_spd(4, rng, cond))
        y = rng.normal(size=4)
        x0 = e.B @ (y / np.linalg.norm(y))
        m = tmp_path / "a.json"
        m.write_text(json.dumps({"n": 4, "data": e.A.tolist()}))
        v = tmp_path / "x0.json"
        v.write_text(json.dumps({"n": 4, "data": x0.tolist()}))
        code = cli.main(["construct", "--matrix", str(m), "--functional", "edge",
                         "--vertex", str(v), "--seed", "0", "--tol-equalizer", "1e-12"])
        out, err = capsys.readouterr()
        assert code == 0, (cond, err)
        cert = json.loads(out)["result"]["certificate"]
        assert abs(cert["relative_gap"]) <= REL, cond
        assert cert["equality_residuals"]["cauchy_schwarz"] <= REL, cond


def _cli_result(tmp_path, capsys, a, argv, vertex=None):
    """Exit code and result of one CLI call on the matrix a (and vector vertex)."""
    m = tmp_path / "a.json"
    m.write_text(json.dumps({"n": len(a), "data": np.asarray(a).tolist()}))
    argv = [argv[0], "--matrix", str(m)] + argv[1:]
    if vertex is not None:
        v = tmp_path / "v.json"
        v.write_text(json.dumps({"n": len(vertex), "data": np.asarray(vertex).tolist()}))
        argv += ["--vertex", str(v)]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 0, (argv, err)
    return json.loads(out)["result"]


@pytest.mark.parametrize("k", [-300, -200, 200, 300])
def test_pinning_equalizer_report_is_scale_free(tmp_path, capsys, k):
    # the 3x3 input of test_extreme_scales_exit_cleanly; the report's variances
    # are in units of max|M|, so at 1e200 and 1e300 they no longer overflow
    # (exit 1) and at 1e-200 they no longer underflow to 0
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    a = (q * np.array([0.2, 1.0, 7.0])) @ q.T
    a = 0.5 * (a + a.T)
    ref = _cli_result(tmp_path, capsys, a, ["equalize"])
    got = _cli_result(tmp_path, capsys, 10.0**k * a, ["equalize"])
    assert got["converged"] is ref["converged"] is True
    assert got["threshold"] == ref["threshold"]
    assert len(got["variance_history"]) == len(ref["variance_history"])
    for x, y in zip(got["variance_history"] + [got["final_variance"]],
                    ref["variance_history"] + [ref["final_variance"]]):
        assert abs(x - y) <= 1e-12


@pytest.mark.parametrize("k", [-200, 200])
@pytest.mark.parametrize("functional", ["edge", "facet"])
def test_explorer_residual_is_scale_free(tmp_path, capsys, functional, k):
    # the explorer solves on its matrix over the trace and multiplies the
    # residual back; the reported residual over that trace matches the one
    # recomputed from U, and the unscaled run's, at n = 3 (a positive facet
    # floor) and n = 4
    for n in (3, 4):
        rng = np.random.default_rng((n, 16))
        a = _rotated_spd(n, rng, 1e3)
        y = rng.normal(size=n)
        y /= np.linalg.norm(y)
        argv = ["explore-rsh", "--functional", functional, "--restarts", "2", "--seed", "0"]
        rel = []
        for s in (1.0, 10.0**k):
            res = _cli_result(tmp_path, capsys, s * a, argv, vertex=y)
            e = Ellipsoid(s * a)
            u = np.asarray(res["U"])
            z = u.T @ y
            if functional == "edge":
                tr = float(np.trace(e.A))
                r = np.diag(u.T @ (e.A / tr) @ u) - z * z
            else:
                tr = float(np.trace(e.C))
                r = np.diag(u.T @ (e.C / tr) @ u) - 1.0 / n
            assert abs(res["residual"] / tr - float(np.linalg.norm(r))) <= 1e-12, n
            rel.append(res["residual"] / tr)
        assert abs(rel[1] - rel[0]) <= 1e-12, (n, rel)


def test_facet_vertex_construction_is_scale_free(tmp_path, capsys):
    # the barycentric equalizer solves on M / tr M, M = U0^T C U0: under an
    # absolute threshold (tol (1 + |t|))^2, A 1e20 passed the identity frame
    # untouched (gaps up to 0.017, exit 0) and A 1e-170 left float64 (exit 1)
    def construct(a, name):
        e = Ellipsoid(a)
        x0 = math.sqrt(e.eigenvalues[0]) * e.eigenvectors[:, 0]
        m, v = tmp_path / f"a-{name}.json", tmp_path / f"x0-{name}.json"
        m.write_text(json.dumps({"n": 4, "data": e.A.tolist()}))
        v.write_text(json.dumps({"n": 4, "data": x0.tolist()}))
        code = cli.main(["construct", "--matrix", str(m), "--functional", "facet",
                         "--vertex", str(v), "--seed", "0"])
        out, err = capsys.readouterr()
        assert code in (0, 2), err
        return code, json.loads(out)["result"].get("certificate")

    rng = np.random.default_rng(4)
    for i in range(12):
        a = random_spd(4, rng)
        code, cert = construct(a, f"{i}")
        for k in (-20, 20):
            got_code, got = construct(10.0**k * a, f"{i}-{k}")
            assert got_code == code, (i, k)
            if code == 0:
                assert abs(got["relative_gap"]) <= REL, (i, k)
                assert abs(got["relative_gap"] - cert["relative_gap"]) <= REL, (i, k)
    code, cert = construct(1e-170 * np.diag([1.0, 4.0, 9.0, 16.0]), "tiny")
    assert code == 0
    assert abs(cert["relative_gap"]) <= REL


@pytest.mark.parametrize("n", [3, 5])
def test_edge_requests_where_tr_a_overflows(tmp_path, capsys, n):
    # tr A of 1e308 Q diag(0.5..1) Q^T overflows while L_max (about 1e155)
    # fits: the global and vertex constructions and the search form tr A
    # scaled by a power of two, so none sees an infinite bound or lambda
    q = random_orthogonal(n, 7)
    a = 1e308 * (q * np.linspace(0.5, 1.0, n)) @ q.T
    a = 0.5 * a + 0.5 * a.T
    e = Ellipsoid(a)
    x0 = math.sqrt(e.eigenvalues[0]) * e.eigenvectors[:, 0]
    for vertex in (None, x0):
        cert = _cli_result(tmp_path, capsys, a, ["construct", "--functional", "edge"], vertex)
        cert = cert["certificate"]
        assert abs(cert["relative_gap"]) <= REL
        assert cert["equality_residuals"]["cauchy_schwarz"] <= REL
        search = ["search", "--functional", "edge", "--trials", "100", "--seed", "0"]
        assert _cli_result(tmp_path, capsys, a, search)["bound"] == cert["bound"]


def test_scaled_trace_keeps_the_bits_in_range():
    # where tr A fits, the scaled forms of sqrt(tr A), w / sum w and A / tr A
    # give the plain formulas' bits: the same bound, box and certificate
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        e = Ellipsoid(10.0 ** rng.uniform(-150, 150) * random_spd(n, rng, 1e-5, 1e5))
        assert bound_L_max(e) == 2.0**n * float(np.sqrt(np.trace(e.A)))
        w = e.eigenvalues
        q, cert = construct_L_max(e)
        assert np.array_equal(q.lam, 2.0 * np.sqrt(w / w.sum()))
        g = diag_quadratic(q.U, e.A / np.trace(e.A))
        residual = float(np.linalg.norm(g - q.lam * q.lam / 4.0))
        assert cert.equality_residuals["cauchy_schwarz"] == residual
