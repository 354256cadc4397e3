"""Benchmark for the inscribed-extrema command line tool.

    python3 perfbench/run.py --workload requests --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs from the root of a source checkout and imports the package from its
``src`` directory. One process, one client thread, closed loop: each request
goes to ``inscribed_extrema.cli.main(argv)`` in-process and the next one is
sent when it returns. Requests come in whole rounds of a fixed mix (see
``gen.py``) until the timed phase has lasted ``--seconds``.

Phases of a run:

1. Set-up, repeated ``SETUP_REPEATS`` times (``setup_s`` is the median
   over these and the repeats of step 5): import the package afresh, write
   the first round's inputs, run a few small warm-up requests.
2. Timed phase: requests back to back. Only the calls and the glue between
   them (handing a constructed parallelepiped to the next ``verify``) are
   timed; writing later rounds' inputs is not.
3. Byte identity: a few requests are sent again and their stdout must hash
   the same; hashes are also kept per (code, workload, seed) under
   ``.perfbench/`` so a later run with the same seed, traced or not, is
   compared with this one.
4. ``requests`` only: the inputs on which the program is known to fail
   (``gen.make_edge_cases``) run once, untimed and untraced. Their failures
   are printed and kept in the result file, apart from the timed phase's.
5. Set-up is repeated ``SETUP_REPEATS`` times more, in a directory of its
   own, so that ``setup_s`` samples the machine's speed at the end of the
   run as well as at its start.
6. Every output goes through the independent checker (``check.py``).

With ``--trace 1`` the timed phase runs under the outside-in tracer
(``spans.py``) and the result carries the per-layer metrics instead of the
end-to-end ones. The last line of stdout is the result as one JSON object.
"""

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import check
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "inscribed_extrema"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 8
REPLAYS = 3
REPLAY_MAX_S = 1.0
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "served_frac": "fraction",
    "converged_frac": "fraction",
    "peak_rss_mb": "MB",
}


def _per_layer_units():
    units = {}
    for name in spans.Tracer().names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "equalizer.bary_converged_s": "s",
        "equalizer.bary_unconverged_s": "s",
        "cli.bytes_out": "bytes",
        "geometry.vertices_checked": "count",
        "equalizer.rotations": "count",
        "equalizer.restarts": "count",
        "equalizer.converged_frac": "fraction",
        "oracle.trials": "count",
        "oracle.trials_per_s": "1/s",
        "oracle.skip_frac": "fraction",
        "bench.traced_ops_per_s": "1/s",
        "bench.edge_cases_failed": "count",
    })
    return units


PER_LAYER = _per_layer_units()


class BenchError(Exception):
    pass


def import_cli():
    """Import the package afresh from the checkout's src directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module(PACKAGE + ".cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv):
    """One request through cli.main; returns (exit code, stdout, stderr, exception)."""
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as stop:
        rc = stop.code if isinstance(stop.code, int) else 1
    except Exception as error:  # an uncaught exception is a failed request
        exc = error
    return rc, out.getvalue(), err.getvalue(), exc


def hand_over(op, rc, out):
    """Write a constructed parallelepiped where the following verify reads it."""
    if op.parallelepiped_out is None or rc != 0:
        return
    try:
        doc = check.strict_loads(out)
        with open(op.parallelepiped_out, "w") as fh:
            json.dump(doc["result"]["parallelepiped"], fh)
    except (ValueError, KeyError, TypeError):
        pass


def run_ops(cli, ops, tracer=None, records=None):
    """Send ops back to back; returns the time spent (calls plus hand-over)."""
    spent = 0.0
    for op in ops:
        if op.requires is not None and not os.path.exists(op.requires):
            continue
        if tracer is not None:
            tracer.op_id = len(records)
        t0 = time.perf_counter()
        rc, out, err, exc = call(cli, op.argv)
        t1 = time.perf_counter()
        hand_over(op, rc, out)
        spent += time.perf_counter() - t0
        if records is not None:
            records.append({"op": op, "rc": rc, "out": out, "err": err, "exc": exc,
                            "latency": t1 - t0})
    return spent


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def code_key():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def setup(workload, seed, workdir):
    """Import, write the first round's inputs, warm up. Returns (cli, round 0)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cli = import_cli()
    first = gen.make_round(workload, seed, 0, str(workdir))
    run_ops(cli, gen.make_warmup(workload, str(workdir)))
    return cli, first


def tail(latencies):
    """Latency at the highest percentile with at least TAIL_BEYOND ops beyond it."""
    xs = sorted(latencies)
    idx = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def judge(records):
    """Checker verdict per record: list of (status, reason)."""
    verdicts = []
    for rec in records:
        op = rec["op"]
        parallelepiped = csv_text = None
        if op.requires is not None:
            with open(op.requires) as fh:
                parallelepiped = json.load(fh)
        csv_path = op.spec.get("csv") if op.kind == "search" else None
        if csv_path and os.path.exists(csv_path):
            with open(csv_path) as fh:
                csv_text = fh.read()
        verdicts.append(check.classify(op, rec["rc"], rec["out"], rec["exc"],
                                       parallelepiped, csv_text, rec["err"]))
    return verdicts


def outcomes(records, verdicts):
    """Counts by checker status, failure reasons, and each failed request."""
    status = Counter(v[0] for v in verdicts)
    return {
        "attempted": len(records),
        "unconverged": status["unconverged"],
        "failed": status["failed"],
        "failure_reasons": dict(Counter(v[1] for v in verdicts if v[0] == "failed")),
        "failures": [
            {"op": i, "kind": rec["op"].kind, "n": rec["op"].spec["n"],
             "scale_exp": rec["op"].spec.get("k", 0),
             "functional": rec["op"].spec.get("functional"), "reason": v[1]}
            for i, (rec, v) in enumerate(zip(records, verdicts)) if v[0] == "failed"
        ],
    }


def compare_store(path, hashes, untraced_ops_per_s):
    """Compare op hashes with an earlier run of the same code, workload and seed."""
    old = {}
    if path.exists():
        old = json.loads(path.read_text())
    prior = old.get("hashes", [])
    mismatches = [i for i, (a, b) in enumerate(zip(prior, hashes)) if a != b]
    merged = dict(old)
    merged["hashes"] = hashes if len(hashes) >= len(prior) else prior
    if untraced_ops_per_s is not None:
        merged["ops_per_s"] = untraced_ops_per_s
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(merged))
    return mismatches, min(len(prior), len(hashes)), old.get("ops_per_s")


def run(workload, seed, seconds, traced):
    workdir = WORK / "work" / f"{workload}-{seed}"
    setup_times = []

    def timed_setup(directory):
        t0 = time.perf_counter()
        done = setup(workload, seed, directory)
        setup_times.append(time.perf_counter() - t0)
        return done

    for _ in range(SETUP_REPEATS):
        cli, first = timed_setup(workdir)

    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    records, round_rates = [], []
    spent, r, ops = 0.0, 0, first
    while True:
        done = len(records)
        took = run_ops(cli, ops, tracer, records)
        round_rates.append((len(records) - done) / took)
        spent += took
        r += 1
        # stop at the round boundary nearest to the requested duration
        if spent + 0.5 * spent / r >= seconds:
            break
        ops = gen.make_round(workload, seed, r, str(workdir))
    if tracer is not None:
        tracer.uninstall()

    hashes = [digest(rec["out"]) for rec in records]
    # byte identity, same process: send a few cheap requests again, untraced
    replay = [i for i, rec in enumerate(records) if rec["latency"] < REPLAY_MAX_S][:REPLAYS]
    replay_mismatch = [i for i in replay
                       if digest(call(cli, records[i]["op"].argv)[1]) != hashes[i]]
    n_ops = len(records)
    ops_per_s = statistics.median(round_rates)
    store = WORK / "hashes" / f"{code_key()}-{workload}-{seed}.json"
    store_mismatch, compared, untraced_rate = compare_store(
        store, hashes, None if traced else ops_per_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    edge_records = []
    if workload == "requests":
        run_ops(cli, gen.make_edge_cases(seed, str(workdir)), records=edge_records)
    edge_cases = outcomes(edge_records, judge(edge_records))
    setup_dir = WORK / "work" / f"{workload}-{seed}-setup"
    for _ in range(SETUP_REPEATS):
        timed_setup(setup_dir)
    shutil.rmtree(setup_dir, ignore_errors=True)
    timed = outcomes(records, judge(records))
    latencies_ms = [1e3 * rec["latency"] for rec in records]
    tail_ms, tail_pct = tail(latencies_ms)
    failed = timed["failed"]
    unconverged = timed["unconverged"]
    search_ops = [rec for rec in records if rec["op"].kind == "search"]
    search_s = sum(rec["latency"] for rec in search_ops)
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "rounds": r,
        "timed_s": spent,
        **timed,
        "failed_frac": failed / n_ops,
        "unconverged_frac": unconverged / n_ops,
        "edge_cases": edge_cases,
        "op_tail_percentile": tail_pct,
        "op_samples": n_ops,
        "trials_per_s": (sum(rec["op"].spec["trials"] for rec in search_ops) / search_s
                         if search_s else None),
        "byte_identity": {
            "replayed": len(replay), "replay_mismatches": replay_mismatch,
            "compared_with_earlier_run": compared, "earlier_run_mismatches": store_mismatch,
        },
        "setup_runs_s": setup_times,
        "environment": environment(),
    }
    if traced:
        bytes_out = sum(len(rec["out"].encode()) for rec in records)
        bytes_out += sum(os.path.getsize(rec["op"].spec["csv"]) for rec in search_ops
                         if rec["op"].spec.get("csv") and os.path.exists(rec["op"].spec["csv"]))
        values = tracer.layer_metrics(bytes_out, ops_per_s, edge_cases["failed"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        if workload == "requests":
            groups = {
                "requests n<=15": [i for i, rec in enumerate(records) if rec["op"].spec["n"] <= 15],
                "requests n>=16": [i for i, rec in enumerate(records) if rec["op"].spec["n"] >= 16],
            }
        else:
            groups = {workload: list(range(n_ops))}
        summary["dominant_self_time"] = tracer.dominant(groups)
        summary["tracing_overhead_frac"] = (
            1.0 - ops_per_s / untraced_rate if untraced_rate else None)
        trace_file = WORK / "traces" / f"{workload}-{seed}.npz"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_file)
        summary["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(latencies_ms),
            "op_tail_ms": tail_ms,
            "served_frac": 1.0 - failed / n_ops,
            "converged_frac": 1.0 - unconverged / n_ops,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    summary["metrics"] = metrics
    shutil.rmtree(workdir, ignore_errors=True)

    identical = not replay_mismatch and not store_mismatch
    result = {"correct": identical, "attempted": n_ops, "failed": failed, "metrics": metrics}
    results_file = WORK / "results" / f"{workload}-s{seed}-t{int(traced)}.json"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    results_file.write_text(json.dumps(summary, indent=1))
    return summary, result


def print_summary(summary):
    w = summary["workload"]
    print(f"# {w} seed={summary['seed']} trace={summary['trace']} rounds={summary['rounds']} "
          f"timed={summary['timed_s']:.2f}s ops={summary['attempted']}")
    for name, m in summary["metrics"].items():
        print(f"{w:9s} {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"{w:9s} {'failed_frac':42s} {summary['failed_frac']:>16.6g} fraction")
    print(f"{w:9s} {'unconverged_frac':42s} {summary['unconverged_frac']:>16.6g} fraction")
    if summary["trials_per_s"] is not None:
        print(f"{w:9s} {'trials_per_s':42s} {summary['trials_per_s']:>16.6g} 1/s")
    print(f"{w:9s} op_tail_ms is p{summary['op_tail_percentile']:.2f} "
          f"of {summary['op_samples']} ops")
    if summary["failure_reasons"]:
        print(f"{w:9s} failures: {json.dumps(summary['failure_reasons'], sort_keys=True)}")
    edge = summary["edge_cases"]
    if edge["attempted"]:
        print(f"{w:9s} known-failure inputs (untimed, not in the result): {edge['attempted']} "
              f"attempted, {edge['failed']} failed, {edge['unconverged']} unconverged")
        for reason, count in sorted(edge["failure_reasons"].items()):
            print(f"{w:9s}   {count:3d} x {reason}")
    for group, top in summary.get("dominant_self_time", {}).items():
        ranked = ", ".join(f"{name} {sec:.3f}s ({share:.0%})" for name, sec, share in top)
        print(f"{w:9s} dominant self time, {group}: {ranked}")
    if summary.get("tracing_overhead_frac") is not None:
        print(f"{w:9s} tracing overhead (ops_per_s drop vs untraced, same seed): "
              f"{summary['tracing_overhead_frac']:.1%}")
    bi = summary["byte_identity"]
    print(f"{w:9s} byte identity: {bi['replayed']} replayed, {len(bi['replay_mismatches'])} "
          f"differ; {bi['compared_with_earlier_run']} compared with an earlier run, "
          f"{len(bi['earlier_run_mismatches'])} differ")
    env = summary["environment"]
    print(f"{w:9s} env: git {env['git_sha'][:12]} python {env['python']} numpy {env['numpy']} "
          f"nproc {env['nproc']} blas_threads {env['blas_threads']}")


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    combined = {}
    for workload in gen.WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise BenchError(f"{workload} trace={traced} exited {proc.returncode}")
            combined[f"{workload}/trace{traced}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": all(v["correct"] for v in combined.values()),
            "attempted": sum(v["attempted"] for v in combined.values()),
            "failed": sum(v["failed"] for v in combined.values()),
            "runs": combined}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            summary, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
            print_summary(summary)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
