import hashlib
import inspect
import json
import math
import os
import re

import numpy as np
import pytest

from draws import random_spd
from inscribed_extrema import Ellipsoid, cli, explore_restricted_schur_horn, oracle
from orbit import grid_floor, psi as orbit_psi

SQRT14_L = 29.93325909419153
OVER_SQRT3_S = 32.331615074619044
IMPOSSIBLE_3X3 = [[3.0, 0.0, 1.0], [0.0, 2.0, 2.0], [1.0, 2.0, 1.0]]


def write_matrix(tmp_path, name, rows):
    rows = [list(map(float, r)) for r in rows]
    path = tmp_path / name
    path.write_text(json.dumps({"n": len(rows), "data": rows}))
    return str(path)


def write_vector(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"n": len(entries), "data": list(map(float, entries))}))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_values_and_manifest(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 4.0, 9.0]).tolist())
    code, out, _ = run_cli(capsys, ["bounds", "--matrix", m])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "inscribed-extrema/1"
    res = doc["result"]
    assert res["n"] == 3
    assert abs(res["L_max"] - SQRT14_L) < 1e-12
    assert abs(res["S_max"] - OVER_SQRT3_S) < 1e-12
    assert abs(res["tr_A"] - 14.0) < 1e-12
    assert abs(res["det_A"] - 36.0) < 1e-9
    assert abs(res["log_det_A"] - math.log(36.0)) < 1e-12
    man = doc["manifest"]
    assert man["command"] == "bounds"
    assert len(man["inputs"]["matrix"]["sha256"]) == 64
    assert man["version"]


def test_bounds_det_a_out_of_range_is_null(tmp_path, capsys):
    # det A leaves float64 long before the bounds do; its log is always reported
    m = write_matrix(tmp_path, "a.json", (1e-217 * np.diag([1.0, 2.0, 3.0])).tolist())
    code, out, _ = run_cli(capsys, ["bounds", "--matrix", m])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["det_A"] is None
    assert abs(res["log_det_A"] - (math.log(6.0) - 651.0 * math.log(10.0))) < 1e-9
    assert res["tr_A"] == pytest.approx(6e-217, rel=1e-12)


def test_bounds_and_edge_explorer_where_tr_a_overflows(tmp_path, capsys):
    # tr A = 2e308 leaves float64, L_max = S_max = 4 sqrt(2e308) does not
    m = write_matrix(tmp_path, "a.json", np.diag([1e308, 1e308]).tolist())
    code, out, err = run_cli(capsys, ["bounds", "--matrix", m])
    assert (code, err) == (0, "")
    res = json.loads(out)["result"]
    assert res["tr_A"] is None
    assert res["L_max"] == pytest.approx(4.0 * math.sqrt(2.0) * math.sqrt(1e308), rel=1e-15)
    assert res["S_max"] == pytest.approx(res["L_max"], rel=1e-12)  # S_max is formed in logs
    v = write_vector(tmp_path, "y0.json", [0.6, 0.8])
    code, out, err = run_cli(
        capsys, ["explore-rsh", "--matrix", m, "--vertex", v, "--functional", "edge"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["residual"] <= 2e-15 * 1e308  # relative to tr A = 2e308


def test_bounds_tr_a_is_the_plain_trace_where_it_fits(tmp_path, capsys):
    # tr A is formed on A scaled by a power of four, which keeps every bit in range
    rng = np.random.default_rng(11)
    for k in range(-300, 301, 25):
        a = 10.0**k * random_spd(int(rng.integers(2, 4)), rng, lo=1e-3, hi=1e3)
        m = write_matrix(tmp_path, "a.json", (0.5 * a + 0.5 * a.T).tolist())
        code, out, _ = run_cli(capsys, ["bounds", "--matrix", m])
        assert code == 0, k
        doc = json.loads(out)
        assert doc["result"]["tr_A"] == float(np.trace(0.5 * a + 0.5 * a.T)), k


def test_explorer_restarts_default_has_one_source():
    args = cli.build_parser().parse_args(
        ["explore-rsh", "--matrix", "a.json", "--vertex", "y.json", "--functional", "facet"]
    )
    default = inspect.signature(explore_restricted_schur_horn).parameters["restarts"].default
    assert args.restarts == default == oracle.EXPLORER_RESTARTS


def test_construct_then_verify_round_trip(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", [[2.0, 0.3], [0.3, 1.0]])
    out_path = str(tmp_path / "built.json")
    code, out, _ = run_cli(
        capsys, ["construct", "--matrix", m, "--functional", "edge", "--seed", "3",
                 "--output", out_path]
    )
    assert code == 0
    assert out == ""  # routed to the file instead
    with open(out_path) as fh:
        doc = json.load(fh)
    pe_path = tmp_path / "p.json"
    pe_path.write_text(json.dumps(doc["result"]["parallelepiped"]))
    code, out, _ = run_cli(capsys, ["verify", "--matrix", m, "--parallelepiped", str(pe_path)])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["inscribed"] is True
    assert res["max_vertex_residual"] < 1e-9
    assert abs(res["L"] - res["L_bound"]) < 1e-8 * res["L_bound"]
    assert abs(res["L_gap"]) < 1e-8


def test_construct_facet_attains_bound(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 4.0, 9.0]).tolist())
    code, out, _ = run_cli(capsys, ["construct", "--matrix", m, "--functional", "facet"])
    assert code == 0
    cert = json.loads(out)["result"]["certificate"]
    assert abs(cert["achieved"] - OVER_SQRT3_S) < 1e-9 * OVER_SQRT3_S


def test_construct_edge_is_the_principal_axis_box(tmp_path, capsys):
    # the global edge maximizer draws no frame: the seed does not move it, and
    # it is A's eigenbasis with lambda = 2 sqrt(w / tr A)
    a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    m = write_matrix(tmp_path, "a.json", a.tolist())
    results = []
    for seed in (["--seed", "1"], ["--seed", "2"], []):
        code, out, _ = run_cli(capsys, ["construct", "--matrix", m, "--functional", "edge"] + seed)
        assert code == 0
        results.append(json.dumps(json.loads(out)["result"]))
    assert results[0] == results[1] == results[2]
    orthotope = json.loads(results[0])["orthotope"]
    e = Ellipsoid(a)
    w = e.eigenvalues
    assert np.array_equal(orthotope["U"], e.eigenvectors)
    np.testing.assert_allclose(orthotope["lambda"], 2.0 * np.sqrt(w / w.sum()), rtol=1e-15)


def test_construct_facet_applies_tol_equalizer(tmp_path, capsys):
    # the manifest records --tol-equalizer, so the global facet route applies it:
    # at 0.5 the pinning pass on diag(1/w) stops after one rotation of three
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 4.0, 9.0, 16.0]).tolist())
    argv = ["construct", "--matrix", m, "--functional", "facet"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    tight = json.loads(out)["result"]["certificate"]
    code, out, _ = run_cli(capsys, argv + ["--tol-equalizer", "0.5"])
    assert code == 0
    doc = json.loads(out)
    loose = doc["result"]["certificate"]
    assert doc["manifest"]["tolerances"] == {"equalizer_tol": 0.5}
    assert abs(tight["relative_gap"]) <= 1e-12
    assert loose["relative_gap"] > 0.01
    assert loose["equality_residuals"]["diagonal_equalization"] > 0.5


def test_global_edge_manifest_omits_unapplied_tol_equalizer(tmp_path, capsys):
    # the principal-axis box applies no tolerance: --tol-equalizer moves no byte
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 4.0, 9.0, 16.0]).tolist())
    argv = ["construct", "--matrix", m, "--functional", "edge"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["manifest"]["tolerances"] == {}
    code, loose, _ = run_cli(capsys, argv + ["--tol-equalizer", "0.5"])
    assert code == 0
    assert loose == out


def test_edge_box_condition_is_its_edge_ratio(tmp_path, capsys):
    # condition is P's longest over shortest edge for both functionals: the box
    # of diag(1, 4, 9) has edges 2 w_i / sqrt(tr A), lambda only 2 sqrt(w_i / tr A)
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 4.0, 9.0]).tolist())
    code, out, _ = run_cli(capsys, ["construct", "--matrix", m, "--functional", "edge"])
    assert code == 0
    assert json.loads(out)["result"]["certificate"]["condition"] == 9.0


def _construct_and_verify(tmp_path, capsys, m, argv):
    """The certificate of construct on m and the result of verify on the file it wrote,
    or None when construct exits 2. Each call writes new files."""
    built = tmp_path / f"built-{len(list(tmp_path.iterdir()))}.json"
    code, _, err = run_cli(capsys, ["construct", "--matrix", m, "--output", str(built)] + argv)
    if code == 2:
        return None
    assert code == 0, err
    with open(built) as fh:
        doc = json.load(fh)["result"]
    pe = tmp_path / f"p-{built.stem}.json"
    pe.write_text(json.dumps(doc["parallelepiped"]))
    code, out, err = run_cli(capsys, ["verify", "--matrix", m, "--parallelepiped", str(pe)])
    assert code == 0, err
    return doc["certificate"], json.loads(out)["result"]


@pytest.mark.parametrize("n", range(2, 11))
def test_verify_reproduces_the_certificate(tmp_path, capsys, n):
    # a certificate quotes what verify reads off the written edges: value,
    # bound and gap are equal, not close. S scales as s^((n - 1) / 2), so the
    # scale shrinks with n to keep it in float64. The facet route through a
    # general point gets cond 4 and may exit 2 (always at n = 3)
    rng = np.random.default_rng((n, 30))
    k = min(150, 450 // (n - 1))
    checked = []
    for scale in (10.0**-k, 1.0, 10.0**k):
        for cond in (1e10, 4.0):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            a = scale * (q * np.logspace(0.0, math.log10(cond), n)) @ q.T
            a = 0.5 * (a + a.T)
            name = f"{scale:.0e}-{cond:.0e}"
            m = write_matrix(tmp_path, f"a-{name}.json", a.tolist())
            y = rng.standard_normal(n)
            x0 = Ellipsoid(a).B @ (y / np.linalg.norm(y))
            v = write_vector(tmp_path, f"x0-{name}.json", x0)
            runs = [["--functional", "edge"], ["--functional", "facet"],
                    ["--functional", "edge", "--vertex", v]]
            if cond == 4.0:
                runs.append(["--functional", "facet", "--vertex", v, "--seed", "0"])
            for argv in runs:
                pair = _construct_and_verify(tmp_path, capsys, m, argv)
                if pair is None:
                    assert "--seed" in argv, argv  # only the facet route through a vertex
                    continue
                cert, res = pair
                key = "L" if cert["functional"] == "edge_length" else "S"
                assert res[key] == cert["achieved"], argv
                assert res[key + "_bound"] == cert["bound"], argv
                assert res[key + "_gap"] == cert["relative_gap"], argv
                checked.append(argv)
    facet_vertex = sum("--seed" in argv for argv in checked)
    assert len(checked) - facet_vertex == 18
    assert facet_vertex >= (0 if n == 3 else 2)


def test_construct_and_verify_where_edge_squares_overflow(tmp_path, capsys):
    # the box of 5e307 diag(1, 2) has edges near 1.6e154, whose squares
    # overflow; L, S and both bounds fit, and no warning is raised
    m = write_matrix(tmp_path, "a.json", (5e307 * np.diag([1.0, 2.0])).tolist())
    cert, res = _construct_and_verify(tmp_path, capsys, m, ["--functional", "edge"])
    assert res["L"] == cert["achieved"] and res["L_gap"] == cert["relative_gap"]
    assert abs(cert["relative_gap"]) <= 1e-12
    assert abs(res["S_gap"]) <= 1e-12


def test_construct_then_verify_past_vertex_enumeration_cap(tmp_path, capsys):
    m = write_matrix(tmp_path, "ball.json", np.eye(24).tolist())
    code, out, _ = run_cli(capsys, ["construct", "--matrix", m, "--functional", "facet"])
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["certificate"]["equality_residuals"]["inscribed"] <= 1e-12
    pe_path = tmp_path / "p.json"
    pe_path.write_text(json.dumps(doc["parallelepiped"]))
    code, out, _ = run_cli(capsys, ["verify", "--matrix", m, "--parallelepiped", str(pe_path)])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["inscribed"] is True
    assert res["max_vertex_residual"] <= 1e-12


@pytest.mark.parametrize("k", [-20, -12, 0, 12])
def test_asymmetric_matrix_rejected(tmp_path, capsys, k):
    # the symmetry test is relative to max|A|, so no scale slips through
    a = 10.0**k * np.array([[2.0, 0.5, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    m = write_matrix(tmp_path, "a.json", a.tolist())
    code, out, err = run_cli(capsys, ["bounds", "--matrix", m])
    assert code == 1
    assert "not symmetric" in err


def test_unreadable_json_rejected(tmp_path, capsys):
    # malformed JSON, bytes that are not UTF-8 and nesting too deep for the parser
    # are all refused, whichever file holds them
    m = write_matrix(tmp_path, "a.json", [[1.0, 0.0], [0.0, 2.0]])
    bad = str(tmp_path / "broken.json")
    for content in (b"{not json", b'{"n": 2, "data": \xff}', b"[" * 100000 + b"]" * 100000):
        with open(bad, "wb") as fh:
            fh.write(content)
        for argv in (["bounds", "--matrix", bad],
                     ["construct", "--matrix", m, "--functional", "edge", "--vertex", bad],
                     ["verify", "--matrix", m, "--parallelepiped", bad]):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (1, ""), (content, argv)
            assert err.startswith(f"error: cannot parse {bad}: "), err


def test_each_input_file_is_opened_once(tmp_path, capsys, monkeypatch):
    # the manifest hashes the bytes that were parsed, not a second read of the file
    m = write_matrix(tmp_path, "a.json", [[1.0, 0.0], [0.0, 2.0]])
    v = write_vector(tmp_path, "v.json", [1.0, 0.0])
    code, out, _ = run_cli(capsys, ["construct", "--matrix", m, "--functional", "edge",
                                    "--seed", "0"])
    assert code == 0
    p = tmp_path / "p.json"
    p.write_text(json.dumps(json.loads(out)["result"]["parallelepiped"]))
    p = str(p)
    digest = {}
    for path in (m, v, p):
        with open(path, "rb") as fh:
            digest[path] = hashlib.sha256(fh.read()).hexdigest()
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    for argv, inputs in (
        (["bounds", "--matrix", m], {"matrix": m}),
        (["search", "--matrix", m, "--functional", "facet", "--trials", "5", "--seed", "1",
          "--vertex", v], {"matrix": m, "vertex": v}),
        (["verify", "--matrix", m, "--parallelepiped", p], {"matrix": m, "parallelepiped": p}),
        (["explore-rsh", "--matrix", m, "--vertex", v, "--functional", "edge",
          "--restarts", "1"], {"matrix": m, "vertex": v}),
    ):
        opened.clear()
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        assert [opened.count(path) for path in inputs.values()] == [1] * len(inputs), argv
        assert json.loads(out)["manifest"]["inputs"] == {
            name: {"path": path, "sha256": digest[path]} for name, path in inputs.items()
        }


def test_vector_length_mismatch_rejected(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 2.0, 3.0]).tolist())
    v = tmp_path / "v.json"
    v.write_text(json.dumps({"n": 3, "data": [0.0, 1.0]}))
    code, _, err = run_cli(
        capsys, ["construct", "--matrix", m, "--functional", "edge", "--vertex", str(v)]
    )
    assert code == 1
    assert "does not match" in err


def test_search_zero_trials_rejected(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", [[1.0, 0.0], [0.0, 1.0]])
    code, _, err = run_cli(
        capsys, ["search", "--matrix", m, "--functional", "edge", "--trials", "0"]
    )
    assert code == 1
    assert "trials" in err


def test_search_deterministic_and_csv_trace(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", [[3.0, 1.0], [1.0, 2.0]])
    csv_path = tmp_path / "trace.csv"
    argv = ["search", "--matrix", m, "--functional", "facet", "--trials", "400",
            "--seed", "7", "--csv-trace", str(csv_path)]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    res = json.loads(out1)["result"]
    assert res["violations"] == 0
    assert 0.0 <= res["best_gap"] <= 1.0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "trial,value"
    assert len(lines) == 401
    best_from_csv = max(float(line.split(",")[1]) for line in lines[1:])
    assert best_from_csv == res["best_value"]


def test_vertex_search_runs(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 4.0, 9.0]).tolist())
    v = write_vector(tmp_path, "x0.json", [0.0, 0.0, 3.0])
    code, out, _ = run_cli(
        capsys, ["search", "--matrix", m, "--functional", "edge", "--trials", "2000",
                 "--seed", "1", "--vertex", v]
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["violations"] == 0
    assert res["best_value"] <= res["bound"]


def test_equalize_pinning_report(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", [[4.0, 1.0, 0.0], [1.0, 1.0, 0.5], [0.0, 0.5, 2.0]])
    code, out, _ = run_cli(capsys, ["equalize", "--matrix", m])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["converged"] is True
    assert res["iterations"] <= 2
    v = np.asarray(res["V"])
    d = np.diag(v.T @ np.array([[4.0, 1.0, 0.0], [1.0, 1.0, 0.5], [0.0, 0.5, 2.0]]) @ v)
    assert np.max(np.abs(d - 7.0 / 3.0)) < 1e-9


def test_equalize_barycentric_n2_rejected(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", [[2.0, 1.0], [1.0, 2.0]])
    code, _, err = run_cli(capsys, ["equalize", "--matrix", m, "--barycentric", "--seed", "0"])
    assert code == 1
    assert "requires n >= 3" in err


def test_equalize_barycentric_negative_max_iter_exits_1(tmp_path, capsys):
    # a negative step budget is bad input, not a solver that ran out of steps
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 2.0, 3.0, 4.0]).tolist())
    argv = ["equalize", "--matrix", m, "--barycentric", "--seed", "1", "--max-iter"]
    assert run_cli(capsys, argv + ["-5"]) == (1, "", "error: max_iter must be >= 0, got -5\n")
    # a zero budget stays allowed: the identity is reported after no step
    code, out, _ = run_cli(capsys, argv + ["0"])
    assert code == 2
    assert json.loads(out)["result"]["iterations"] == 0


def test_equalize_barycentric_impossible_case(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", IMPOSSIBLE_3X3)
    code, out, _ = run_cli(capsys, ["equalize", "--matrix", m, "--barycentric", "--seed", "0"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "NotConverged"
    res = doc["result"]
    assert res["converged"] is False
    # the variance is invariant on the whole stabilizer orbit for n=3
    assert abs(res["final_variance"] - 2.0) < 1e-9


def test_equalize_barycentric_non_row_constant_runs_solver(tmp_path, capsys):
    # n = 3 needs no row-constant premise and no solver: the closed form
    # reports the orbit's least variance after 0 steps, whatever --max-iter says
    a = np.diag([1.0, 2.0, 3.0])
    m = write_matrix(tmp_path, "a.json", a.tolist())
    code, out, _ = run_cli(
        capsys, ["equalize", "--matrix", m, "--barycentric", "--seed", "0", "--max-iter", "300"]
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "NotConverged"
    assert "proven least diagonal variance" in doc["error"]["message"]
    res = doc["result"]
    assert res["iterations"] == 0 and res["converged"] is False
    v = np.asarray(res["V"])
    assert np.max(np.abs(v @ np.ones(3) - 1.0)) <= 1e-12
    assert res["final_variance"] <= (1.0 + 1e-9) * grid_floor(a)
    assert res["final_variance"] < orbit_psi(a, np.eye(3))


def test_ci_mode_requires_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("INSCRIBED_EXTREMA_CI", "1")
    m = write_matrix(tmp_path, "a.json", [[1.0, 0.0], [0.0, 1.0]])
    code, _, err = run_cli(
        capsys, ["search", "--matrix", m, "--functional", "edge", "--trials", "10"]
    )
    assert code == 1
    assert "--seed is required" in err
    code, out, _ = run_cli(
        capsys, ["search", "--matrix", m, "--functional", "edge", "--trials", "10",
                 "--seed", "2"]
    )
    assert code == 0


def test_explore_rsh_edge_solvable(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 2.0, 3.0]).tolist())
    v = write_vector(tmp_path, "y0.json", [0.0, 0.0, 1.0])
    code, out, _ = run_cli(
        capsys, ["explore-rsh", "--matrix", m, "--vertex", v, "--functional", "edge",
                 "--restarts", "4", "--seed", "1"]
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["residual"] < 1e-8
    u = np.asarray(res["U"])
    assert np.max(np.abs(u.T @ u - np.eye(3))) < 1e-9


def test_explore_rsh_iters_flag_rejected(tmp_path, capsys):
    # the explorer's step budget is the solver's STEPS_PER_START, not a flag
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 2.0, 3.0]).tolist())
    v = write_vector(tmp_path, "y0.json", [0.0, 0.0, 1.0])
    with pytest.raises(SystemExit) as stop:
        cli.main(["explore-rsh", "--matrix", m, "--vertex", v, "--functional", "edge",
                  "--iters", "5"])
    assert stop.value.code == 2
    assert "--iters" in capsys.readouterr().err


@pytest.mark.parametrize("matrix, vertex, restarts, message", [
    ([[2.0]], [1.0], "1", "n >= 2"),
    (np.diag([1.0, 2.0, 3.0]).tolist(), [0.0, 0.0, 1.0], "-2", "restarts must be >= 0"),
    (np.diag([1.0, 2.0, 3.0]).tolist(), [0.6, 0.8], "1", "does not match"),
], ids=["n1", "negative_restarts", "vertex_dimension"])
@pytest.mark.parametrize("functional", ["edge", "facet"])
def test_explore_rsh_bad_input_exits_1(tmp_path, capsys, matrix, vertex, restarts, message,
                                       functional):
    m = write_matrix(tmp_path, "a.json", matrix)
    v = write_vector(tmp_path, "y0.json", vertex)
    code, out, err = run_cli(
        capsys, ["explore-rsh", "--matrix", m, "--vertex", v, "--functional", functional,
                 "--restarts", restarts, "--seed", "0"]
    )
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command, args", [
    ("construct", ["--functional", "edge"]),
    ("search", ["--functional", "edge", "--trials", "5"]),
    ("equalize", ["--barycentric"]),
    ("explore-rsh", ["--functional", "edge", "--restarts", "1"]),
])
def test_negative_seed_exits_1(tmp_path, capsys, command, args):
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 2.0, 3.0]).tolist())
    if command == "explore-rsh":
        args = args + ["--vertex", write_vector(tmp_path, "y0.json", [0.0, 0.0, 1.0])]
    # cli.main must return, not raise: a raised numpy ValueError is the traceback
    code, out, err = run_cli(capsys, [command, "--matrix", m, "--seed", "-1"] + args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--seed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_construct_edge_through_non_eigenvector_vertex(tmp_path, capsys, n):
    rng = np.random.default_rng(90 + n)
    g = rng.normal(size=(n, n))
    a = g @ g.T + n * np.eye(n)
    y = rng.normal(size=n)
    x0 = y / np.sqrt(y @ np.linalg.solve(a, y))
    m = write_matrix(tmp_path, "a.json", a.tolist())
    v = write_vector(tmp_path, "x0.json", x0)
    code, out, _ = run_cli(
        capsys, ["construct", "--matrix", m, "--functional", "edge", "--vertex", v,
                 "--seed", "0"]
    )
    assert code == 0
    res = json.loads(out)["result"]
    edges = np.asarray(res["parallelepiped"]["edges"]).T
    assert np.linalg.norm(0.5 * edges.sum(axis=1) - x0) <= 1e-9
    cert = res["certificate"]
    bound = 2.0**n * math.sqrt(np.trace(a))
    assert abs(cert["bound"] - bound) <= 1e-12 * bound
    assert abs(cert["achieved"] - bound) <= 1e-12 * bound
    assert cert["equality_residuals"]["vertex"] <= 1e-9


def test_output_file_atomic_and_clean(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", [[1.0, 0.0], [0.0, 2.0]])
    out_path = tmp_path / "res.json"
    code, out, _ = run_cli(capsys, ["bounds", "--matrix", m, "--output", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["result"]["n"] == 2
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".inscribed-")]
    assert leftovers == []


@pytest.mark.parametrize("case", ["bounds_missing_dir", "csv_missing_dir", "construct_into_dir"])
def test_unwritable_output_exits_1(tmp_path, capsys, case):
    # each of these escaped cli.main as a FileNotFoundError or IsADirectoryError
    m = write_matrix(tmp_path, "a.json", [[1.0, 0.0], [0.0, 2.0]])
    if case == "construct_into_dir":
        target = tmp_path / "out"
        target.mkdir()
        argv = ["construct", "--matrix", m, "--functional", "edge", "--output", str(target)]
    else:
        target = tmp_path / "missing" / "x.out"
        flag = "--output" if case == "bounds_missing_dir" else "--csv-trace"
        argv = (["bounds", "--matrix", m] if case == "bounds_missing_dir" else
                ["search", "--matrix", m, "--functional", "edge", "--trials", "5", "--seed", "1"])
        argv += [flag, str(target)]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert list(target.parent.glob(".inscribed-*.tmp")) == []
    assert list(tmp_path.glob(".inscribed-*.tmp")) == []


def test_construct_vertex_cli_2d(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", [[4.0, 0.0], [0.0, 1.0]])
    x0 = [2.0 * math.cos(0.8), math.sin(0.8)]
    v = write_vector(tmp_path, "x0.json", x0)
    code, out, _ = run_cli(
        capsys, ["construct", "--matrix", m, "--functional", "edge", "--vertex", v]
    )
    assert code == 0
    res = json.loads(out)["result"]
    edges = np.asarray(res["parallelepiped"]["edges"]).T
    vertex = 0.5 * edges.sum(axis=1)
    assert np.linalg.norm(vertex - np.asarray(x0)) < 1e-9
    # for the planar case the constrained maximum meets the global bound
    cert = res["certificate"]
    assert abs(cert["achieved"] - cert["bound"]) < 1e-9


def test_construct_impossible_vertex_facet_exits_2(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 4.0, 9.0]).tolist())
    v = write_vector(tmp_path, "x0.json", [0.0, 0.0, 3.0])
    code, out, _ = run_cli(
        capsys, ["construct", "--matrix", m, "--functional", "facet", "--vertex", v,
                 "--seed", "0"]
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "NotConverged"


def test_manifest_tolerances_match_the_flags(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", [[1.0, 0.0], [0.0, 2.0]])
    pe = tmp_path / "p.json"
    pe.write_text(json.dumps({"n": 2, "edges": [[1.0, 0.0], [0.0, 1.0]]}))
    y0 = write_vector(tmp_path, "y0.json", [0.6, 0.8])
    # subcommand -> (arguments of a valid run, the tolerance flags it applies)
    runs = {
        "bounds": ([], []),
        "construct": (["--functional", "facet", "--seed", "0"], ["--tol-equalizer"]),
        "verify": (["--parallelepiped", str(pe)], ["--tol-inscribed"]),
        "search": (["--functional", "edge", "--trials", "5", "--seed", "0"],
                   ["--tol-bound-slack"]),
        "equalize": (["--seed", "0"], ["--tol-equalizer"]),
        "explore-rsh": (["--vertex", y0, "--functional", "edge", "--restarts", "1",
                         "--seed", "0"], []),
    }
    for command, (args, applied) in runs.items():
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        flags = sorted(set(re.findall(r"--tol-[a-z-]+", capsys.readouterr().out)))
        assert flags == sorted(applied), command
        argv = [command, "--matrix", m] + args
        for k, flag in enumerate(flags):
            argv += [flag, f"{k + 1}e-3"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, command
        recorded = json.loads(out)["manifest"]["tolerances"]
        # every flag is recorded, and every recorded tolerance came from a flag
        assert sorted(recorded.values()) == [(k + 1) * 1e-3 for k in range(len(flags))]
        assert sorted(recorded) == sorted(cli.TOLERANCE_FLAGS[flag] for flag in flags)


# a valid run of each subcommand that applies the flag; PE is the parallelepiped
TOLERANCE_RUNS = {
    "--tol-equalizer": ["construct", "--functional", "facet", "--seed", "0"],
    "--tol-inscribed": ["verify", "--parallelepiped", "PE"],
    "--tol-bound-slack": ["search", "--functional", "edge", "--trials", "5", "--seed", "0"],
}


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize("flag", sorted(TOLERANCE_RUNS))
def test_bad_tolerance_rejected(tmp_path, capsys, flag, value):
    # the equalizer thresholds square the tolerance: a negative one would
    # turn into a loose positive threshold, so the boundary refuses it
    m = write_matrix(tmp_path, "a.json", np.diag([1.0, 4.0, 9.0, 16.0]).tolist())
    pe = tmp_path / "p.json"
    pe.write_text(json.dumps({"n": 4, "edges": np.eye(4).tolist()}))
    argv = [str(pe) if arg == "PE" else arg for arg in TOLERANCE_RUNS[flag]]
    code, out, err = run_cli(capsys, argv + ["--matrix", m, flag, value])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {flag} must be a finite number >= 0"]


@pytest.mark.parametrize("argv, scale", [
    (["equalize", "--barycentric", "--seed", "0"], 1e200),
], ids=["equalize-1e200"])
def test_barycentric_threshold_overflow_exits_1(tmp_path, capsys, argv, scale):
    # the squared threshold leaves float64 once tol times its scale, 1 + |t|
    # or at n = 3 max|M|, passes about 1e154: one line naming it, not a
    # traceback, and never an infinite threshold. The facet route through a
    # vertex solves on M / tr M, so only equalize reaches it
    a = np.diag([1.0, 4.0, 9.0]) + np.ones((3, 3))
    m = write_matrix(tmp_path, "a.json", (scale * a).tolist())
    code, out, err = run_cli(capsys, argv[:1] + ["--matrix", m] + argv[1:])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "leaves float64" in err


def test_tol_ortho_flag_rejected(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", [[1.0, 0.0], [0.0, 2.0]])
    # --tol-ortho exists nowhere; --tol-equalizer exists, but bounds applies no tolerance
    for flag in ("--tol-ortho", "--tol-equalizer"):
        with pytest.raises(SystemExit) as stop:
            cli.main(["bounds", "--matrix", m, flag, "1e-3"])
        assert stop.value.code == 2
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [[[1.0, 0.0], [0.0, 1.0]], {"n": 2}, {"n": 2, "edges": [["a", "b"], [1.0, 2.0]]}],
    ids=["json-list", "no-edges", "non-numeric"],
)
def test_verify_malformed_parallelepiped_rejected(tmp_path, capsys, doc):
    m = write_matrix(tmp_path, "a.json", [[2.0, 0.0], [0.0, 1.0]])
    pe = tmp_path / "p.json"
    pe.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["verify", "--matrix", m, "--parallelepiped", str(pe)])
    assert code == 1
    assert out == ""
    assert "expected {'n': int, 'edges'" in err


@pytest.mark.parametrize("n", [1.5, 1.0, True, "1"], ids=["fraction", "float", "bool", "string"])
def test_non_integer_n_rejected(tmp_path, capsys, n):
    # int() used to accept each of these as n = 1
    m = tmp_path / "a.json"
    m.write_text(json.dumps({"n": n, "data": [[1.0]]}))
    code, out, err = run_cli(capsys, ["bounds", "--matrix", str(m)])
    assert code == 1
    assert out == ""
    assert "expected {'n': int, 'data'" in err


@pytest.mark.parametrize("text", ["NaN", "Infinity", "1e999"])
def test_non_finite_inputs_rejected(tmp_path, capsys, text):
    bad_matrix = tmp_path / "a.json"
    bad_matrix.write_text('{"n": 2, "data": [[%s, 0.0], [0.0, 1.0]]}' % text)
    bad_vector = tmp_path / "x0.json"
    bad_vector.write_text('{"n": 2, "data": [%s, 0.0]}' % text)
    bad_edges = tmp_path / "p.json"
    bad_edges.write_text('{"n": 2, "edges": [[%s, 0.0], [0.0, 1.0]]}' % text)
    good = write_matrix(tmp_path, "good.json", [[1.0, 0.0], [0.0, 1.0]])
    for argv, path in (
        (["bounds", "--matrix", str(bad_matrix)], bad_matrix),
        (["construct", "--matrix", good, "--functional", "edge", "--vertex", str(bad_vector)],
         bad_vector),
        (["verify", "--matrix", good, "--parallelepiped", str(bad_edges)], bad_edges),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert f"{path}: entries must be finite" in err


def test_non_finite_result_refused_not_printed(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", [[1e308, 1e308], [1e308, 1e308]])
    code, out, err = run_cli(capsys, ["bounds", "--matrix", m])
    assert code == 1
    assert out == ""
    assert "not finite" in err


def test_huge_ball_determinant_floor_does_not_overflow(tmp_path, capsys):
    # ||V||^n overflows a float at this scale; degeneracy is decided by sigma_min / sigma_max
    m = write_matrix(tmp_path, "a.json", (1e200 * np.eye(8)).tolist())
    code, out, _ = run_cli(capsys, ["construct", "--matrix", m, "--functional", "edge"])
    assert code == 0
    assert abs(json.loads(out)["result"]["certificate"]["relative_gap"]) < 1e-12
    code, out, err = run_cli(capsys, ["construct", "--matrix", m, "--functional", "facet"])
    assert code == 1
    assert out == ""
    assert "not finite" in err


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("k", range(-300, 301, 100))
def test_extreme_scales_exit_cleanly(tmp_path, capsys, k):
    # every value either fits in float64 and is printed as strict JSON, or
    # the request exits 1 with a message; no raw exception escapes
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    a = (q * np.array([0.2, 1.0, 7.0])) @ q.T
    a = 0.5 * (a + a.T)
    m = write_matrix(tmp_path, "a.json", (10.0**k * a).tolist())
    ref = write_matrix(tmp_path, "ref.json", a.tolist())
    code, out, _ = run_cli(capsys, ["construct", "--matrix", ref, "--functional", "edge"])
    assert code == 0
    edges = np.asarray(json.loads(out)["result"]["parallelepiped"]["edges"]) * 10.0 ** (k / 2)
    par = tmp_path / "p.json"
    par.write_text(json.dumps({"n": 3, "edges": edges.tolist()}))
    for argv in (
        ["bounds", "--matrix", m],
        ["construct", "--matrix", m, "--functional", "edge"],
        ["construct", "--matrix", m, "--functional", "facet"],
        ["verify", "--matrix", m, "--parallelepiped", str(par)],
        ["equalize", "--matrix", m],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code in (0, 1), argv
        if code == 0:
            _strict_json(out)
        else:
            assert out == ""
            assert any(line.startswith("error:") for line in err.splitlines()), err


def test_linear_algebra_failure_exits_1(tmp_path, capsys, monkeypatch):
    m = write_matrix(tmp_path, "a.json", [[1e308, 1e308], [1e308, 1e308]])
    code, out, err = run_cli(capsys, ["construct", "--matrix", m, "--functional", "edge"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "bound_L_max", fail)
    ok = write_matrix(tmp_path, "ok.json", [[1.0, 0.0], [0.0, 2.0]])
    code, out, err = run_cli(capsys, ["bounds", "--matrix", ok])
    assert code == 1
    assert out == ""
    assert "error: linear algebra failure: SVD did not converge" in err


def test_missing_vertex_file_rejected(tmp_path, capsys):
    m = write_matrix(tmp_path, "a.json", [[1.0, 0.0], [0.0, 2.0]])
    missing = str(tmp_path / "absent.json")
    for argv in (["construct", "--matrix", m, "--functional", "edge", "--vertex", missing],
                 ["search", "--matrix", m, "--functional", "edge", "--trials", "5",
                  "--seed", "0", "--vertex", missing]):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert "cannot read" in err
