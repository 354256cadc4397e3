"""Round 0 of the benchmark's gated workloads, run and judged by the
benchmark's own ``run_ops`` and ``judge`` (perfbench/run.py, loaded from its
file as it is): a change that makes the program fail a request shows here
before a benchmark run counts it. It cannot see the checker's own false
failures, which first appear at later rounds."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from inscribed_extrema import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # run.py imports its sibling modules (check, gen, spans) by plain name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["requests", "certify"])
def test_round_zero_has_no_failed_request(bench, tmp_path, workload, seed):
    records = []
    bench.run_ops(cli, bench.gen.make_round(workload, seed, 0, str(tmp_path)), records=records)
    verdicts = bench.judge(records)
    failed = [(i, rec["op"].kind, rec["op"].spec["n"], reason)
              for i, (rec, (status, reason)) in enumerate(zip(records, verdicts))
              if status == "failed"]
    assert failed == []
    status = Counter(status for status, _ in verdicts)
    # two n = 3 facet constructions through a vertex stop at their proven
    # floor each round: exit 2 by design
    assert status["unconverged"] == (2 if workload == "requests" else 0)
