"""Independent output checker.

Judges each CLI result against the generating data in ``Op.spec`` with numpy
alone; it never imports the package under test. Parallelepipeds are rebuilt
from the output's edge lists, bounds are recomputed from the closed forms in
log space (so extreme scales are judged exactly), and the inscription check
uses vertex enumeration for n <= 12 and the classification theorem above
that (``B^-1 V`` has orthogonal columns and their squared lengths sum to 4).

``classify`` sorts every operation into ``ok``, ``unconverged`` (exit 2 with
a ``NotConverged`` or ``UnsupportedCase`` error) or ``failed``, and for a
failure names what went wrong: the exception type, the exit code with the
CLI's message, ``nonstrict_json``, or ``check:<what>``.
"""

import json
import math

import numpy as np

LN10 = math.log(10.0)
ENUM_CAP = 12
VALUE_TOL = 1e-8      # closed-form attainment, as in acceptance criterion 2
AGREE_TOL = 1e-9      # program value vs the same value recomputed here
VERTEX_TOL = 1e-9
ORTHO_TOL = 1e-8
SEARCH_GAP = 0.05     # criterion 3: best-found gap for global searches, n <= 4


class NonStrictJSON(ValueError):
    pass


def _reject_constant(name):
    raise NonStrictJSON(f"non-strict JSON constant {name}")


def strict_loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class CheckFailed(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _close_log(value, log_ref, tol, what):
    """Relative agreement of a positive value with exp(log_ref)."""
    _require(isinstance(value, (int, float)) and value > 0 and math.isfinite(value),
             f"{what}_not_positive")
    _require(abs(math.log(value) - log_ref) <= tol, what)


def _close(a, b, tol, what):
    _require(abs(a - b) <= tol * max(abs(a), abs(b), 1e-300), what)


class Ellipse:
    """Closed forms for A = 10^k Q diag(ev) Q^T, computed in unscaled units."""

    def __init__(self, spec):
        self.n = spec["n"]
        self.q = np.asarray(spec["q"])
        self.ev = np.asarray(spec["ev"])
        self.k = spec.get("k", 0)
        self.a0 = (self.q * self.ev) @ self.q.T
        self.c0 = (self.q / self.ev) @ self.q.T
        self.binv0 = (self.q / np.sqrt(self.ev)) @ self.q.T
        self.b0 = (self.q * np.sqrt(self.ev)) @ self.q.T
        n, k = self.n, self.k
        self.log_tr_a = math.log(float(np.sum(self.ev))) + k * LN10
        self.log_tr_c = math.log(float(np.sum(1.0 / self.ev))) - k * LN10
        self.log_det_a = float(np.sum(np.log(self.ev))) + n * k * LN10
        self.log_l = n * math.log(2.0) + 0.5 * self.log_tr_a
        self.log_s = (n * math.log(2.0) - 0.5 * (n - 2) * math.log(n)
                      + 0.5 * self.log_det_a + 0.5 * self.log_tr_c)
        self.half_scale = 10.0 ** (0.5 * k)

    def unscale(self, v):
        """Edges of a parallelepiped in A's ellipsoid, mapped to A0's."""
        return v / self.half_scale

    def check_inscribed(self, v0):
        n = self.n
        if n <= ENUM_CAP:
            eps = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
            x = 0.5 * eps @ v0.T
            res = np.abs(np.einsum("ij,jk,ik->i", x, self.c0, x) - 1.0)
            _require(float(res.max()) <= VERTEX_TOL, "vertex_off_ellipsoid")
        else:
            w = self.binv0 @ v0
            g = w.T @ w
            lens = np.sqrt(np.diag(g))
            cos = g / np.outer(lens, lens)
            np.fill_diagonal(cos, 0.0)
            _require(float(np.max(np.abs(cos))) <= ORTHO_TOL, "edges_not_orthogonal")
            _require(abs(float(np.trace(g)) - 4.0) <= VERTEX_TOL, "lambda_sum_not_4")


def edge_total(v0):
    n = v0.shape[0]
    return 2.0 ** (n - 1) * float(np.sum(np.linalg.norm(v0, axis=0)))


def facet_total(v0):
    g = v0.T @ v0
    n = g.shape[0]
    total = 0.0
    for i in range(n):
        keep = np.arange(n) != i
        total += math.sqrt(max(float(np.linalg.det(g[np.ix_(keep, keep)])), 0.0))
    return 2.0 * total


def _edges(doc, n):
    v = np.asarray(doc["edges"], dtype=float).T
    _require(v.shape == (n, n) and np.all(np.isfinite(v)), "edges_shape")
    return v


def _orthogonal(u, n, what):
    u = np.asarray(u, dtype=float)
    _require(u.shape == (n, n), f"{what}_shape")
    _require(float(np.max(np.abs(u.T @ u - np.eye(n)))) <= ORTHO_TOL, f"{what}_not_orthogonal")
    return u


def check_bounds(op, res):
    e = Ellipse(op.spec)
    _require(res["n"] == e.n, "n")
    _close_log(res["L_max"], e.log_l, AGREE_TOL, "L_max")
    _close_log(res["S_max"], e.log_s, AGREE_TOL, "S_max")
    _close_log(res["tr_A"], e.log_tr_a, AGREE_TOL, "tr_A")
    _close_log(res["tr_C"], e.log_tr_c, AGREE_TOL, "tr_C")
    _close_log(res["det_A"], e.log_det_a, AGREE_TOL, "det_A")


def check_construct(op, res):
    e = Ellipse(op.spec)
    v0 = e.unscale(_edges(res["parallelepiped"], e.n))
    e.check_inscribed(v0)
    edge = op.spec["functional"] == "edge"
    value = edge_total(v0) if edge else facet_total(v0)
    log_bound = e.log_l if edge else e.log_s
    scale_pow = 0.5 if edge else 0.5 * (e.n - 1)
    log_value = math.log(value) + scale_pow * e.k * LN10
    cert = res["certificate"]
    _close_log(cert["bound"], log_bound, AGREE_TOL, "certificate_bound")
    _close_log(cert["achieved"], log_value, AGREE_TOL, "certificate_achieved")
    if op.spec["vertex"] is None:
        _require(abs(log_value - log_bound) <= VALUE_TOL, "bound_not_attained")
    else:
        _require(log_value - log_bound <= AGREE_TOL, "above_bound")
        x0 = np.asarray(op.spec["vertex"])
        vertex = 0.5 * np.sum(e.unscale(_edges(res["parallelepiped"], e.n)), axis=1)
        err = float(np.linalg.norm(vertex - e.unscale(x0)))
        _require(err <= VERTEX_TOL * (1.0 + float(np.linalg.norm(e.unscale(x0)))), "vertex_missed")


def check_verify(op, res, parallelepiped):
    e = Ellipse(op.spec)
    v0 = e.unscale(_edges(parallelepiped, e.n))
    e.check_inscribed(v0)
    _require(res["inscribed"] is True, "not_reported_inscribed")
    _require(0.0 <= res["max_vertex_residual"] <= VERTEX_TOL, "vertex_residual")
    _close_log(res["L"], math.log(edge_total(v0)) + 0.5 * e.k * LN10, AGREE_TOL, "L")
    _close_log(res["S"], math.log(facet_total(v0)) + 0.5 * (e.n - 1) * e.k * LN10, AGREE_TOL, "S")
    _close_log(res["L_bound"], e.log_l, AGREE_TOL, "L_bound")
    _close_log(res["S_bound"], e.log_s, AGREE_TOL, "S_bound")
    _close(res["L_gap"], (res["L_bound"] - res["L"]) / res["L_bound"], 1e-12, "L_gap")
    _close(res["S_gap"], (res["S_bound"] - res["S"]) / res["S_bound"], 1e-12, "S_gap")


def _equal_diagonal(v, m, what):
    n = m.shape[0]
    t = float(np.trace(m)) / n
    d = np.diag(v.T @ m @ v)
    _require(float(np.max(np.abs(d - t))) <= 10.0 * AGREE_TOL * (1.0 + abs(t)), what)


def check_equalize(op, res):
    e = Ellipse(op.spec)
    _require(res["converged"] is True, "not_converged")
    v = _orthogonal(res["V"], e.n, "V")
    _equal_diagonal(v, e.a0, "diagonal_not_equal")


def check_bary(op, res):
    m = np.asarray(op.spec["m"])
    n = m.shape[0]
    _require(res["converged"] is True, "not_converged")
    v = _orthogonal(res["V"], n, "V")
    _require(float(np.max(np.abs(v @ np.ones(n) - 1.0))) <= ORTHO_TOL, "V1_not_1")
    _equal_diagonal(v, m, "diagonal_not_equal")


def _config_value(e, u, lam, functional):
    if functional == "edge":
        g = np.einsum("ji,jk,ki->i", u, e.a0, u)
        return 2.0 ** (e.n - 1) * float(np.sum(lam * np.sqrt(g)))
    gc = np.einsum("ji,jk,ki->i", u, e.c0, u)
    return 2.0 * math.sqrt(float(np.prod(e.ev))) * float(np.prod(lam)) * float(
        np.sum(np.sqrt(gc) / lam))


def check_search(op, res, csv_text=None):
    spec = op.spec
    e = Ellipse(spec)
    functional = spec["functional"]
    _require(res["trials"] == spec["trials"], "trials")
    _require(res["violations"] == 0, "violations")
    log_bound = e.log_l if functional == "edge" else e.log_s
    _close_log(res["bound"], log_bound, AGREE_TOL, "bound")
    best = res["best_value"]
    _require(0.0 < best <= res["bound"] * (1.0 + AGREE_TOL), "best_above_bound")
    _close(res["best_gap"], (res["bound"] - best) / res["bound"], 1e-12, "best_gap")
    if spec["vertex"] is None and e.n <= 4:
        _require(res["best_gap"] <= SEARCH_GAP, "best_gap_over_5pct")
    cfg = res["best_config"]
    u = _orthogonal(cfg["U"], e.n, "best_U")
    lam = np.asarray(cfg["lambda"], dtype=float)
    _require(lam.shape == (e.n,) and np.all(lam > 0), "best_lambda")
    _require(abs(float(lam @ lam) - 4.0) <= VERTEX_TOL, "best_lambda_sum")
    _close(_config_value(e, u, lam, functional), best, AGREE_TOL, "best_config_value")
    if spec["vertex"] is not None:
        vertex = 0.5 * e.b0 @ (u * lam).sum(axis=1)
        _require(float(np.linalg.norm(vertex - spec["vertex"])) <= VERTEX_TOL * (
            1.0 + float(np.linalg.norm(spec["vertex"]))), "best_vertex_missed")
    if csv_text is not None:
        lines = csv_text.splitlines()
        _require(lines[0] == "trial,value" and len(lines) == spec["trials"] + 1, "csv_rows")
        vals = np.array([float(line.split(",", 1)[1]) for line in lines[1:]])
        _require(float(vals.max()) == best and int(np.argmax(vals)) == res["best_trial"],
                 "csv_best")


def check_explore(op, res):
    spec = op.spec
    e = Ellipse(spec)
    n = e.n
    target = "edge_length" if spec["functional"] == "edge" else "facet_area"
    _require(res["target"] == target and res["restarts"] == spec["restarts"], "echo")
    u = _orthogonal(res["U"], n, "U")
    y0 = np.asarray(spec["y0"])
    z = u.T @ y0
    if target == "edge_length":
        r = np.diag(u.T @ e.a0 @ u) - float(np.trace(e.a0)) * z * z
        scale = float(np.trace(e.a0))
    else:
        _require(float(np.max(np.abs(z - 1.0 / math.sqrt(n)))) <= ORTHO_TOL, "not_barycentric")
        r = np.diag(u.T @ e.c0 @ u) - float(np.trace(e.c0)) / n
        scale = float(np.trace(e.c0))
    resid = res["residual"]
    _require(resid >= 0.0, "residual_negative")
    _require(abs(float(np.linalg.norm(r)) - resid) <= 1e-8 * (1.0 + scale), "residual")


def classify(op, rc, out, exc, parallelepiped=None, csv_text=None, stderr=""):
    """Return (status, reason) with status in ok / unconverged / failed."""
    if exc is not None:
        return "failed", type(exc).__name__
    if rc not in (0, 2):
        lines = stderr.strip().splitlines() or [""]
        message = next((line for line in lines if line.startswith("error:")), lines[-1])
        return "failed", f"exit{rc}: {message}"[:120]
    try:
        doc = strict_loads(out)
    except NonStrictJSON:
        return "failed", "nonstrict_json"
    except ValueError:
        return "failed", "bad_json"
    if rc == 2:
        err = (doc.get("error") or {}).get("type")
        if err in ("NotConverged", "UnsupportedCase"):
            return "unconverged", err
        return "failed", f"exit2: {err}"
    try:
        res = doc["result"]
        if op.kind == "bounds":
            check_bounds(op, res)
        elif op.kind == "construct":
            check_construct(op, res)
        elif op.kind == "verify":
            check_verify(op, res, parallelepiped)
        elif op.kind == "equalize":
            check_equalize(op, res)
        elif op.kind == "bary":
            check_bary(op, res)
        elif op.kind == "search":
            check_search(op, res, csv_text)
        else:
            check_explore(op, res)
    except CheckFailed as exc:
        return "failed", f"check:{exc}"
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return "failed", f"check:malformed:{type(exc).__name__}"
    return "ok", None
