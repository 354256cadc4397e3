"""Outside-in tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` and
rebinds every module of the package that holds the same function object
(``from .geometry import is_inscribed`` in ``cli``, the re-exports in
``__init__``), so calls are seen whichever name they go through. Classes
are traced through their ``__init__``. Nothing inside the package changes;
``uninstall`` puts every original back.

Spans (name, start, end, parent, op id, raised) live in flat in-memory
arrays and are written out once, when the run ends. Counters that need the
call's arguments or result (vertices enumerated, trials, rotations,
restarts) are gathered by the hooks below.
"""

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "inscribed_extrema"

TARGETS = {
    "cli": ("main", "build_parser"),
    "geometry": ("Ellipsoid", "Parallelepiped", "is_inscribed"),
    "constructors": (
        "construct_L_max", "construct_S_max", "construct_through_vertex",
        "construct_vertex_2d", "construct_vertex_eigen_L", "construct_vertex_eigen_S",
    ),
    "functionals": (
        "edge_length_total", "facet_area_total_gram", "facet_area_total_factored",
        "bound_L_max", "bound_S_max", "diag_quadratic",
    ),
    "equalizer": ("equalize_diagonal", "equalize_diagonal_barycentric"),
    "oracle": ("random_search_global", "random_search_vertex", "explore_restricted_schur_horn"),
    "linalg": ("random_orthogonal", "spd_matrix", "householder_to"),
}

BARY = "equalizer.equalize_diagonal_barycentric"
SEARCHES = ("oracle.random_search_global", "oracle.random_search_vertex")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _hook_inscribed(counters, args, kwargs, result, exc):
    counters["geometry.vertices_checked"] += 2 ** _arg(args, kwargs, 1, "p").n


def _hook_pinning(counters, args, kwargs, result, exc):
    if result is not None:
        counters["equalizer.rotations"] += result.iterations


def _hook_bary(counters, args, kwargs, result, exc):
    counters["equalizer.bary_attempted"] += 1
    report = result if exc is None else getattr(exc, "report", None)
    if result is not None:
        counters["equalizer.bary_converged"] += 1
    if report is not None:
        counters["equalizer.rotations"] += report.iterations
        counters["equalizer.restarts"] += report.restarts


def _hook_search(counters, args, kwargs, result, exc):
    if result is not None:
        counters["oracle.trials"] += result.trials
        counters["oracle.skips"] += result.degenerate_skips


HOOKS = {
    "geometry.is_inscribed": _hook_inscribed,
    "equalizer.equalize_diagonal": _hook_pinning,
    BARY: _hook_bary,
    "oracle.random_search_global": _hook_search,
    "oracle.random_search_vertex": _hook_search,
}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.nid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters = defaultdict(int)
        self._patches = []

    def _wrap(self, fn, name):
        nid = self.name_id[name]
        hook = HOOKS.get(name)
        stack, clock, counters = self.stack, time.perf_counter, self.counters
        spans_nid, spans_parent, spans_op = self.nid, self.parent, self.op
        spans_raised, spans_t0, spans_t1 = self.raised, self.t0, self.t1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans_nid)
            spans_nid.append(nid)
            spans_parent.append(stack[-1])
            spans_op.append(self.op_id)
            spans_raised.append(0)
            spans_t1.append(0.0)
            stack.append(i)
            spans_t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans_t1[i] = clock()
                spans_raised[i] = 1
                stack.pop()
                if hook is not None:
                    hook(counters, args, kwargs, None, exc)
                raise
            spans_t1[i] = clock()
            stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result, None)
            return result

        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for short, fns in TARGETS.items():
            owner = sys.modules[f"{PACKAGE}.{short}"]
            for fn in fns:
                name = f"{short}.{fn}"
                original = getattr(owner, fn)
                if isinstance(original, type):
                    self._patch(original, "__init__", self._wrap(original.__init__, name))
                    continue
                traced = self._wrap(original, name)
                for module in modules:
                    if vars(module).get(fn) is original:
                        self._patch(module, fn, traced)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        return {
            "nid": np.frombuffer(self.nid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).astype(bool),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        a = self.arrays()
        dur = a["t1"] - a["t0"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
        return a, dur, dur - covered

    def dominant(self, op_groups, top=3):
        """Largest self times within each group of op ids, as (name, seconds, share).

        Barycentric equalizer spans that raised are listed apart, as
        ``equalizer.bary_unconverged``.
        """
        a, _, self_t = self.self_times()
        labels = self.names + ["equalizer.bary_unconverged"]
        nid = a["nid"].copy()
        nid[(nid == self.name_id[BARY]) & a["raised"]] = len(self.names)
        out = {}
        for group, op_ids in op_groups.items():
            mask = np.isin(a["op"], op_ids)
            per = np.bincount(nid[mask], weights=self_t[mask], minlength=len(labels))
            total = float(per.sum()) or 1.0
            out[group] = [(labels[i], float(per[i]), float(per[i]) / total)
                          for i in np.argsort(per)[::-1][:top] if per[i] > 0]
        return out

    def layer_metrics(self, bytes_out, traced_ops_per_s, edge_cases_failed=0):
        """Per-layer metric values, keyed like BENCHMARK.json's per_layer list."""
        a, dur, self_t = self.self_times()
        k = len(self.names)
        calls = np.bincount(a["nid"], minlength=k)
        self_s = np.bincount(a["nid"], weights=self_t, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        bary = a["nid"] == self.name_id[BARY]
        out["equalizer.bary_converged_s"] = float(self_t[bary & ~a["raised"]].sum())
        out["equalizer.bary_unconverged_s"] = float(self_t[bary & a["raised"]].sum())
        c = self.counters
        out["cli.bytes_out"] = int(bytes_out)
        out["geometry.vertices_checked"] = int(c["geometry.vertices_checked"])
        out["equalizer.rotations"] = int(c["equalizer.rotations"])
        out["equalizer.restarts"] = int(c["equalizer.restarts"])
        attempted = c["equalizer.bary_attempted"]
        out["equalizer.converged_frac"] = (
            c["equalizer.bary_converged"] / attempted if attempted else 0.0)
        search = np.isin(a["nid"], [self.name_id[s] for s in SEARCHES])
        search_s = float(dur[search].sum())
        out["oracle.trials"] = int(c["oracle.trials"])
        out["oracle.trials_per_s"] = c["oracle.trials"] / search_s if search_s > 0 else 0.0
        out["oracle.skip_frac"] = (
            c["oracle.skips"] / c["oracle.trials"] if c["oracle.trials"] else 0.0)
        out["bench.traced_ops_per_s"] = float(traced_ops_per_s)
        out["bench.edge_cases_failed"] = int(edge_cases_failed)
        return out
