"""Seeded input generation for the benchmark workloads.

Every input is made here with numpy alone; the program under test only ever
sees the JSON files written below. A workload is a fixed *round* of
operation templates (subcommand, dimension, flags). Each round draws fresh
matrices from ``default_rng((seed, workload, round))``, so the same seed gives
the same inputs, and every round has the same composition. Runs measure
whole rounds, which keeps the share of expensive operations the same in every
run.

Each operation carries a ``spec`` with the exact generating data (frame,
spectrum, scale exponent, vertex), which is what the independent checker in
``check.py`` compares the program's output against.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("requests", "certify", "equalize", "explore")
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}

# Log-uniform spectra over two decades (cond(A) <= 100): well-conditioned
# inputs, on which large-n constructions still trip the parallelepiped
# determinant floor (ROADMAP item 3; see EDGE_MAX_N).
SPEC_LO, SPEC_HI = 0.1, 10.0

SEARCH_TRIALS = 5000
EXPLORE_RESTARTS = 1

# Restricted-spectrum ratios (see ``bary_ratio``) on either side of the
# boundary between infeasible and feasible n = 5 barycentric equalization
# inputs; between them the outcome is uncertain.
INFEASIBLE_BELOW = 0.29
FEASIBLE_ABOVE = 0.35


@dataclass
class Op:
    """One CLI invocation plus what the checker needs to judge its output."""

    kind: str
    argv: list
    spec: dict
    # construct: write the produced parallelepiped here for the next op
    parallelepiped_out: str = None
    # verify: skip the op when this file was not produced
    requires: str = None


def haar(rng, n):
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def spd_spec(rng, n):
    return haar(rng, n), np.exp(rng.uniform(math.log(SPEC_LO), math.log(SPEC_HI), n))


def spd_data(q, ev, k=0):
    a = (q * ev) @ q.T
    a = 0.5 * (a + a.T)
    return a * 10.0**k if k else a


def row_constant(rng, n):
    """Row-constant symmetric matrix, built as in acceptance criterion 4."""
    g = rng.normal(size=(n, n))
    g[:, 0] = 1.0
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    d = rng.normal(size=n) * 3.0
    m = (q * d) @ q.T
    return 0.5 * (m + m.T)


def bary_ratio(m):
    """Spread of the restricted spectrum without its most isolated end.

    Restrict M to the complement of the ones vector, drop whichever extreme
    eigenvalue sits farther from its neighbour, and divide the spread of the
    rest by the full spread. For n = 5 a small ratio marks the inputs the
    barycentric equalizer cannot equalize (ROADMAP item 2).
    """
    n = m.shape[0]
    g = np.eye(n)
    g[:, 0] = 1.0
    q, _ = np.linalg.qr(g)
    w = np.linalg.eigvalsh(q[:, 1:].T @ m @ q[:, 1:])
    rest = w[1:] if w[1] - w[0] >= w[-1] - w[-2] else w[:-1]
    return float((rest[-1] - rest[0]) / (w[-1] - w[0]))


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _matrix_file(path, a):
    _write(path, {"n": a.shape[0], "data": a.tolist()})


def _vector_file(path, v):
    _write(path, {"n": v.size, "data": v.tolist()})


class _Round:
    def __init__(self, directory):
        self.dir = directory
        self.ops = []

    def path(self, suffix):
        return os.path.join(self.dir, f"o{len(self.ops):03d}-{suffix}.json")

    def add(self, op):
        self.ops.append(op)
        return op


def _spd_ops(rd, rng, n, kinds, k=0, seed=0, verify=True):
    """bounds / global construct (+ verify of its output) / pinning equalize."""
    q, ev = spd_spec(rng, n)
    spec = {"n": n, "q": q, "ev": ev, "k": k}
    mpath = rd.path("matrix")
    _matrix_file(mpath, spd_data(q, ev, k))
    for kind in kinds:
        if kind == "bounds":
            rd.add(Op("bounds", ["bounds", "--matrix", mpath], spec))
        elif kind == "equalize":
            rd.add(Op("equalize", ["equalize", "--matrix", mpath], spec))
        else:
            functional = kind.split("_")[1]
            ppath = rd.path("parallelepiped") if verify else None
            rd.add(Op(
                "construct",
                ["construct", "--matrix", mpath, "--functional", functional, "--seed", str(seed)],
                dict(spec, functional=functional, vertex=None),
                parallelepiped_out=ppath,
            ))
            if verify:
                rd.add(Op(
                    "verify",
                    ["verify", "--matrix", mpath, "--parallelepiped", ppath],
                    spec, requires=ppath,
                ))


def _vertex_ops(rd, rng, n, eigen, seed):
    q, ev = spd_spec(rng, n)
    b = (q * np.sqrt(ev)) @ q.T
    for functional in ("edge", "facet"):
        if eigen:
            j = int(rng.integers(n))
            x0 = math.sqrt(ev[j]) * q[:, j] * (1.0 if rng.random() < 0.5 else -1.0)
        else:
            y = rng.standard_normal(n)
            x0 = b @ (y / np.linalg.norm(y))
        mpath, vpath = rd.path("matrix"), rd.path("vertex")
        _matrix_file(mpath, spd_data(q, ev))
        _vector_file(vpath, x0)
        rd.add(Op(
            "construct",
            ["construct", "--matrix", mpath, "--functional", functional,
             "--vertex", vpath, "--seed", str(seed)],
            {"n": n, "q": q, "ev": ev, "k": 0, "functional": functional, "vertex": x0},
        ))


# Largest n of a global edge construction in the timed ``requests`` mix. The
# determinant floor (ROADMAP item 3) rejects a valid edge construction from
# n = 11 on, at a rate that rises with n (about 1 in 60 at n = 16, 1 in 5 at
# n = 20); up to n = 10 it did not trip once in 1e5 draws. Facet
# constructions scale every edge alike and stay clear of it to n = 16.
EDGE_MAX_N = 10
FACET_MAX_N = 16


def _scaled_blocks(rng):
    """Six inputs rescaled by 10^k, one per band of k across [-300, 300)."""
    kinds = ["bounds", "c_edge", "c_facet", "equalize", "bounds", "c_facet"]
    bands = rng.permutation(6)
    blocks = []
    for i, kind in enumerate(kinds):
        lo = -300 + 100 * int(bands[i])
        blocks.append(("scaled", 3 + i, [kind], int(rng.integers(lo, lo + 100))))
    return blocks


def _emit(rd, rng, blocks, verify_max_n=20):
    for idx in rng.permutation(len(blocks)):
        blk = blocks[idx]
        seed = int(rng.integers(1 << 16))
        if blk[0] == "spd":
            _spd_ops(rd, rng, blk[1], blk[2], seed=seed, verify=blk[1] <= verify_max_n)
        elif blk[0] == "scaled":
            _spd_ops(rd, rng, blk[1], blk[2], k=blk[3], seed=seed)
        else:
            _vertex_ops(rd, rng, blk[1], eigen=blk[0] == "vertex", seed=seed)


def _requests(rd, rng, r):
    """Mixed traffic: parsing, JSON, certificates and the 2^n inscription check.

    Weighted toward small n. ``bounds`` and pinning ``equalize`` run at every
    n up to 20; global constructions stop at EDGE_MAX_N for the edge
    functional and FACET_MAX_N for the facet one, below the determinant
    floor. Each is followed by a ``verify`` of its output, except the one
    n = 16 construction: with about 30 of those per 30 s run as the slowest
    requests, the tail (the eleventh-slowest request) sits in their body,
    not among the few that another process on the machine slowed down.
    Vertex constructions stop at n = 3: from n = 4 on the barycentric
    equalizer inside them takes 0.08-0.45 s at n = 4, and up to tens of
    seconds above, depending on the input. That would set the tail instead
    of the 2^n check; the ``equalize`` workload measures it on its own.
    Inputs on which the program is known to fail are in ``make_edge_cases``.
    """
    full = ["bounds", "c_edge", "c_facet", "equalize"]
    blocks = []
    for n in range(2, 9):
        blocks += [("spd", n, full)] * 3
    for n in range(9, EDGE_MAX_N + 1):
        blocks.append(("spd", n, full))
    for n in range(EDGE_MAX_N + 1, FACET_MAX_N + 1):
        blocks.append(("spd", n, ["bounds", "c_facet", "equalize"]))
    for n in range(FACET_MAX_N + 1, 21):
        blocks.append(("spd", n, ["bounds", "equalize"]))
    blocks += [("vertex2", 2, None)] * 3 + [("vertex", 3, None)] * 2
    _emit(rd, rng, blocks, verify_max_n=FACET_MAX_N - 1)


def make_edge_cases(seed, workdir):
    """Inputs of the ``requests`` kind on which the seed program fails.

    Global edge constructions at n = EDGE_MAX_N + 1 .. 20, facet ones at
    n = FACET_MAX_N + 1 .. 20 (up to n = 16 with their verifies), and the
    six rescaled inputs: valid inputs that hit the determinant floor and the
    extreme-scale failures of ROADMAP item 3. They run once per run, untimed,
    after the timed phase, and their failures are reported apart from it.
    """
    directory = os.path.join(workdir, "edge")
    os.makedirs(directory, exist_ok=True)
    rd = _Round(directory)
    rng = np.random.default_rng((seed, WORKLOAD_IDS["requests"], 1 << 21))
    blocks = [("spd", n, ["c_edge"]) for n in range(EDGE_MAX_N + 1, 21)]
    blocks += [("spd", n, ["c_facet"]) for n in range(FACET_MAX_N + 1, 21)]
    _emit(rd, rng, blocks + _scaled_blocks(rng), verify_max_n=FACET_MAX_N)
    return rd.ops


def _certify(rd, rng, r):
    """Random-search certification, global and vertex-pinned, n = 2..8.

    Every fourth search also writes its per-trial CSV trace. Searches draw
    SEARCH_TRIALS = 5000 trials rather than acceptance criterion 3's 1e5: a
    1e5-trial search takes about 3 s, too slow for a run to hold enough of them for a latency tail,
    and the per-trial work is the same at either size.
    """
    slots = [(n, f, v) for n in range(2, 9) for f in ("edge", "facet") for v in (False, True)]
    for i in rng.permutation(len(slots)):
        n, functional, pinned = slots[i]
        q, ev = spd_spec(rng, n)
        mpath = rd.path("matrix")
        _matrix_file(mpath, spd_data(q, ev))
        seed = int(rng.integers(1 << 16))
        argv = ["search", "--matrix", mpath, "--functional", functional,
                "--trials", str(SEARCH_TRIALS), "--seed", str(seed)]
        spec = {"n": n, "q": q, "ev": ev, "k": 0, "functional": functional,
                "trials": SEARCH_TRIALS, "vertex": None, "csv": None}
        if pinned:
            y = rng.standard_normal(n)
            x0 = ((q * np.sqrt(ev)) @ q.T) @ (y / np.linalg.norm(y))
            vpath = rd.path("vertex")
            _vector_file(vpath, x0)
            argv += ["--vertex", vpath]
            spec["vertex"] = x0
        if len(rd.ops) % 4 == 3:
            cpath = os.path.join(rd.dir, f"o{len(rd.ops):03d}-trace.csv")
            argv += ["--csv-trace", cpath]
            spec["csv"] = cpath
        rd.add(Op("search", argv, spec))


# instances of each n per round; n = 5 also gets the reference instance below
EQUALIZE_MIX = {3: 4, 4: 8, 5: 4, 6: 4, 7: 4, 8: 8}
REFERENCE_SEED = 20251
# Acceptance criterion 4's tolerance. At the CLI default of 1e-10 an
# occasional feasible input fails to converge after tens of seconds.
EQUALIZE_TOL = "1e-9"


def reference_infeasible():
    """The fixed infeasible n = 5 instance every equalize round carries."""
    rng = np.random.default_rng(REFERENCE_SEED)
    while True:
        m = row_constant(rng, 5)
        if bary_ratio(m) < INFEASIBLE_BELOW:
            return m


def _bary_op(rd, m, seed):
    mpath = rd.path("matrix")
    _matrix_file(mpath, m)
    rd.add(Op(
        "bary",
        ["equalize", "--matrix", mpath, "--barycentric", "--seed", str(seed),
         "--tol-equalizer", EQUALIZE_TOL],
        {"n": m.shape[0], "m": m},
    ))


def _equalize(rd, rng, r):
    """Barycentric equalization on row-constant matrices, n = 3..8.

    About one n = 5 input in five is infeasible, and the equalizer spends
    12-18 s on each before giving up, against well under a second for almost
    every feasible input. One such operation outweighs the rest of a round,
    and its cost varies by a fifth from instance to instance, more than a run
    can average out. So the infeasible fifth of n = 5 is represented by one
    fixed instance (``reference_infeasible``, equalizer seed 0), the same in
    every round and every run, and the four seeded n = 5 inputs are drawn
    from the feasible side (ratio at least FEASIBLE_ABOVE). n = 3 exits at
    once through the orbit-invariance shortcut.
    """
    slots = [n for n, count in EQUALIZE_MIX.items() for _ in range(count)] + [None]
    for i in rng.permutation(len(slots)):
        n = slots[i]
        if n is None:
            _bary_op(rd, reference_infeasible(), 0)
            continue
        m = row_constant(rng, n)
        while n == 5 and bary_ratio(m) < FEASIBLE_ABOVE:
            m = row_constant(rng, n)
        _bary_op(rd, m, int(rng.integers(1 << 16)))


def _explore(rd, rng, r):
    """Restricted Schur-Horn explorer, both targets, n = 3..6, general y0.

    Default iteration budget with one restart instead of eight: a request
    then takes 0.03-0.4 s instead of 0.25-4 s, enough of them fit in a run
    for a latency tail, and each restart does the same work as before.
    """
    slots = [(n, f) for n in range(3, 7) for f in ("edge", "facet")] * 4
    for i in rng.permutation(len(slots)):
        n, functional = slots[i]
        q, ev = spd_spec(rng, n)
        y = rng.standard_normal(n)
        y0 = y / np.linalg.norm(y)
        mpath, vpath = rd.path("matrix"), rd.path("vertex")
        _matrix_file(mpath, spd_data(q, ev))
        _vector_file(vpath, y0)
        seed = int(rng.integers(1 << 16))
        rd.add(Op(
            "explore",
            ["explore-rsh", "--matrix", mpath, "--vertex", vpath, "--functional", functional,
             "--restarts", str(EXPLORE_RESTARTS), "--seed", str(seed)],
            {"n": n, "q": q, "ev": ev, "k": 0, "functional": functional, "y0": y0,
             "restarts": EXPLORE_RESTARTS},
        ))


_BUILDERS = {"requests": _requests, "certify": _certify, "equalize": _equalize, "explore": _explore}


def make_round(workload, seed, r, workdir):
    """Write round ``r`` of ``workload`` under ``workdir`` and return its ops."""
    directory = os.path.join(workdir, f"r{r:04d}")
    os.makedirs(directory, exist_ok=True)
    rd = _Round(directory)
    rng = np.random.default_rng((seed, WORKLOAD_IDS[workload], r))
    _BUILDERS[workload](rd, rng, r)
    return rd.ops


def make_warmup(workload, workdir):
    """A few small operations that load every code path a workload uses."""
    directory = os.path.join(workdir, "warm")
    os.makedirs(directory, exist_ok=True)
    rd = _Round(directory)
    rng = np.random.default_rng((0, WORKLOAD_IDS[workload], 1 << 20))
    if workload == "requests":
        _spd_ops(rd, rng, 3, ["bounds", "c_edge", "c_facet", "equalize"])
        _vertex_ops(rd, rng, 3, eigen=True, seed=0)
    elif workload == "certify":
        _certify(rd, rng, 0)
        rd.ops = [op for op in rd.ops if op.spec["n"] == 2]
        for op in rd.ops:
            op.argv[op.argv.index("--trials") + 1] = "50"
            op.spec["trials"] = 50
    elif workload == "equalize":
        _bary_op(rd, row_constant(rng, 4), 0)
    else:
        _explore(rd, rng, 0)
        rd.ops = [op for op in rd.ops if op.spec["n"] == 3][:2]
    return rd.ops
