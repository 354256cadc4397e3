"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import check
import gen
import run
import spans


@pytest.fixture
def workdir():
    """Scratch directory inside the checkout's own work area."""
    path = run.WORK / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _edge_construct(n, seed=0):
    """A global L construction built here, with the payload the CLI would print."""
    rng = np.random.default_rng(seed)
    q, ev = gen.spd_spec(rng, n)
    spec = {"n": n, "q": q, "ev": ev, "k": 0, "functional": "edge", "vertex": None}
    e = check.Ellipse(spec)
    u = gen.haar(rng, n)
    g = np.einsum("ji,jk,ki->i", u, e.a0, u)
    lam = 2.0 * np.sqrt(g) / math.sqrt(g.sum())
    v = e.b0 @ u @ np.diag(lam)
    op = gen.Op("construct", [], spec)
    return op, e, v


def _construct_payload(e, v):
    value = check.edge_total(v)
    result = {
        "parallelepiped": {"n": e.n, "edges": v.T.tolist()},
        "certificate": {"achieved": value, "bound": math.exp(e.log_l)},
    }
    return json.dumps({"result": result})


@pytest.mark.parametrize("n", [3, 14])
def test_checker_rejects_vertex_off_ellipsoid(n):
    op, e, v = _edge_construct(n)
    assert check.classify(op, 0, _construct_payload(e, v), None) == ("ok", None)
    pushed = v.copy()
    pushed[:, 0] *= 1.0 + 1e-6   # one edge longer: its vertices leave the ellipsoid
    status, reason = check.classify(op, 0, _construct_payload(e, pushed), None)
    assert status == "failed"
    assert reason in ("check:vertex_off_ellipsoid", "check:lambda_sum_not_4")


def test_checker_rejects_nan_payload():
    op, e, v = _edge_construct(3)
    text = _construct_payload(e, v).replace(json.dumps(check.edge_total(v)), "NaN", 1)
    assert "NaN" in text
    assert check.classify(op, 0, text, None) == ("failed", "nonstrict_json")


def test_checker_classifies_exit_codes():
    op, _, _ = _edge_construct(2)
    unconverged = json.dumps({"error": {"type": "NotConverged"}, "result": None})
    assert check.classify(op, 2, unconverged, None) == ("unconverged", "NotConverged")
    assert check.classify(op, None, "", OverflowError())[1] == "OverflowError"
    assert check.classify(op, 1, "", None, stderr="error: bad\n") == ("failed", "exit1: error: bad")
    assert check.classify(op, 3, "{}", None)[0] == "failed"


def _files(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_reproducible_from_seed(workload, workdir):
    a, b, c = workdir / "a", workdir / "b", workdir / "c"
    ops_a = gen.make_round(workload, 7, 1, str(a))
    ops_b = gen.make_round(workload, 7, 1, str(b))
    gen.make_round(workload, 8, 1, str(c))
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)
    assert [[x.replace(str(a), "") for x in op.argv] for op in ops_a] == \
        [[x.replace(str(b), "") for x in op.argv] for op in ops_b]


def test_requests_mix_stays_below_the_known_failures(workdir):
    timed = gen.make_round("requests", 7, 0, str(workdir / "timed"))
    for op in timed:
        assert op.spec.get("k", 0) == 0
        if op.kind == "construct" and op.spec["vertex"] is None:
            limit = gen.EDGE_MAX_N if op.spec["functional"] == "edge" else gen.FACET_MAX_N
            assert op.spec["n"] <= limit
    edge = gen.make_edge_cases(7, str(workdir / "a"))
    assert {op.spec["n"] for op in edge if op.spec.get("functional") == "edge"
            and op.spec["k"] == 0} == set(range(gen.EDGE_MAX_N + 1, 21))
    assert sum(1 for op in edge if op.spec["k"] != 0 and op.kind != "verify") == 6
    gen.make_edge_cases(7, str(workdir / "b"))
    assert _files(workdir / "a") == _files(workdir / "b")


def test_traced_self_times_fit_in_wall_time_and_output_is_identical(workdir):
    cli = run.import_cli()
    ops = []
    for workload in gen.WORKLOADS:
        ops += gen.make_warmup(workload, str(workdir / workload))
    plain = []
    run.run_ops(cli, ops, records=plain)
    tracer = spans.Tracer()
    tracer.install()
    traced = []
    try:
        t0 = time.perf_counter()
        run.run_ops(cli, ops, tracer, traced)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert [r["out"] for r in traced] == [r["out"] for r in plain]
    a, dur, self_t = tracer.self_times()
    assert len(dur) > len(ops)
    assert float(self_t.sum()) <= wall
    assert float(self_t.min()) >= -1e-6
    metrics = tracer.layer_metrics(0, 1.0)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["cli.main.calls"] == len(traced)
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(gen.WORKLOADS)
