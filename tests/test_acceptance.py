"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints (and registers, see conftest) a single [PASS]/[FAIL] line
with the measured numbers, then asserts. Criteria 4 and 6 are currently
expected to fail: the facet-side diagonal prescription has genuinely
infeasible inputs in dimensions 3 and 5, documented in the README. The
failures here are the honest record of that, not a bug in the tests.
"""

import functools
import math
import time

import numpy as np
from conftest import record_criterion
from draws import random_orthotope, random_row_constant
from draws import random_spd as draw_spd
from lemmas import beta_product_sum, maclaurin_gap, phi, phi_max

from inscribed_extrema import (
    Ellipsoid,
    NotConverged,
    NotOrthotope,
    Parallelepiped,
    all_plus_vertex,
    bound_L_max,
    bound_S_max,
    construct_L_max,
    construct_S_max,
    construct_through_vertex,
    construct_vertex_2d,
    equalize_diagonal_barycentric,
    facet_area_total_factored,
    facet_area_total_gram,
    is_inscribed,
    orthotope_to_parallelepiped,
    parallelepiped_to_orthotope,
    random_search_global,
)

SEED_BASE = 1000  # fixed before any acceptance runs; substreams are (SEED_BASE + k, n)
random_spd = functools.partial(draw_spd, lo=0.2, hi=5.0)


def test_criterion_1_closed_form_bounds():
    # untimed warm-up so lazy LAPACK loading is not billed to the formulas
    warm = Ellipsoid(np.diag([2.0, 3.0]))
    bound_L_max(warm), bound_S_max(warm)
    t0 = time.perf_counter()
    e3 = Ellipsoid(np.eye(3))
    l3, s3 = bound_L_max(e3), bound_S_max(e3)
    e2 = Ellipsoid(np.diag([4.0, 1.0]))
    l2, s2 = bound_L_max(e2), bound_S_max(e2)
    elapsed = time.perf_counter() - t0
    ref = 4.0 * math.sqrt(5.0)
    ok = (
        abs(s3 - 8.0) <= 1e-12
        and abs(l3 - 8.0 * math.sqrt(3.0)) <= 1e-12
        and abs(l2 - ref) <= 1e-12
        and abs(s2 - ref) <= 1e-12
        and elapsed < 1e-3
    )
    detail = (
        f"S(I3)={s3:.15g}, L(I3)={l3:.15g}, L=S={l2:.15g} for diag(4,1), "
        f"time {elapsed * 1e6:.0f} us"
    )
    assert record_criterion(1, ok, detail), detail


def test_criterion_2_global_attainment():
    worst_res = 0.0
    worst_gap = 0.0
    t0 = time.perf_counter()
    for n in range(2, 9):
        rng = np.random.default_rng((SEED_BASE + 2, n))
        for _ in range(100):
            e = Ellipsoid(random_spd(n, rng))
            _, cert_l = construct_L_max(e)
            _, cert_s = construct_S_max(e)
            for cert in (cert_l, cert_s):
                worst_res = max(worst_res, cert.equality_residuals["inscribed"])
                worst_gap = max(worst_gap, abs(cert.relative_gap))
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-9 and worst_gap <= 1e-8 and elapsed < 10.0
    detail = (
        f"700 L + 700 S constructions over n=2..8: max vertex residual "
        f"{worst_res:.2e}, max relative gap {worst_gap:.2e}, time {elapsed:.1f}s"
    )
    assert record_criterion(2, ok, detail), detail


def test_criterion_3_bound_soundness():
    t0 = time.perf_counter()
    total_violations = 0
    worst_gap = 0.0
    for n in (2, 3, 4):
        rng = np.random.default_rng((SEED_BASE + 3, n))
        e = Ellipsoid(random_spd(n, rng))
        for functional in ("edge_length", "facet_area"):
            rep = random_search_global(e, functional, 100_000, seed=SEED_BASE + 3 + n)
            total_violations += rep.violations
            worst_gap = max(worst_gap, rep.best_gap)
    elapsed = time.perf_counter() - t0
    ok = total_violations == 0 and worst_gap <= 0.05 and elapsed < 60.0
    detail = (
        f"6 x 1e5 random inscribed orthotopes (n=2,3,4; both functionals): "
        f"{total_violations} bound violations, worst best-found gap "
        f"{100.0 * worst_gap:.2f}%, time {elapsed:.1f}s"
    )
    assert record_criterion(3, ok, detail), detail


def test_criterion_4_barycentric_equalizer():
    rows = []
    all_converged = True
    cond_bad = 0
    for n in range(3, 9):
        rng = np.random.default_rng((SEED_BASE + 4, n))
        fails = 0
        for trial in range(100):
            m = random_row_constant(n, rng)
            t = float(np.trace(m)) / n
            try:
                rep = equalize_diagonal_barycentric(m, tol=1e-9, seed=trial)
            except NotConverged:
                fails += 1
                continue
            d = np.diag(rep.V.T @ m @ rep.V)
            h = rep.variance_history
            if (
                np.max(np.abs(d - t)) > 1e-9 * (1.0 + abs(np.trace(m)) / n)
                or np.max(np.abs(rep.V @ np.ones(n) - 1.0)) > 1e-12
                or not all(b < a for a, b in zip(h, h[1:]))
            ):
                cond_bad += 1
        rows.append(f"n={n}: {100 - fails}/100")
        all_converged &= fails == 0
    ok = all_converged and cond_bad == 0
    detail = (
        f"convergence {', '.join(rows)}; {cond_bad} tolerance breaches among "
        f"converged runs (n=3 sits on an invariant variance orbit, n=5 has "
        f"genuinely infeasible inputs; see README)"
    )
    assert record_criterion(4, ok, detail), detail


def test_criterion_5_vertex_constrained_2d():
    rng = np.random.default_rng(SEED_BASE + 5)
    worst_perim = 0.0
    worst_vertex = 0.0
    for _ in range(20):
        a = random_spd(2, rng)
        e = Ellipsoid(a)
        ref = 4.0 * math.sqrt(float(np.trace(a)))
        for _ in range(100):
            y = rng.normal(size=2)
            y /= np.linalg.norm(y)
            x0 = e.B @ y
            q, _ = construct_vertex_2d(e, x0)
            p = orthotope_to_parallelepiped(e, q)
            perim = 2.0 * float(np.sum(np.linalg.norm(p.V, axis=0)))
            worst_perim = max(worst_perim, abs(perim - ref))
            worst_vertex = max(worst_vertex, float(np.linalg.norm(all_plus_vertex(p) - x0)))
    ok = worst_perim <= 1e-9 and worst_vertex <= 1e-9
    detail = (
        f"2000 boundary points on 20 ellipses: max |perimeter - 4 sqrt(tr A)| = "
        f"{worst_perim:.2e}, max vertex residual {worst_vertex:.2e}"
    )
    assert record_criterion(5, ok, detail), detail


def test_criterion_6_eigenvector_vertex():
    e = Ellipsoid(np.diag([1.0, 4.0, 9.0]))
    x0 = np.array([0.0, 0.0, 3.0])
    l_ref = 8.0 * math.sqrt(14.0)
    q_l, cert_l = construct_through_vertex(e, x0, functional="edge_length", seed=0)
    p_l = orthotope_to_parallelepiped(e, q_l)
    l_val = cert_l.achieved.value
    l_ok = (
        abs(l_val - l_ref) <= 1e-8 * l_ref
        and float(np.linalg.norm(all_plus_vertex(p_l) - x0)) <= 1e-9
    )
    s_ref = 56.0 / math.sqrt(3.0)
    try:
        _, cert_s = construct_through_vertex(e, x0, functional="facet_area", seed=0)
        s_val = cert_s.achieved.value
        s_ok = abs(s_val - s_ref) <= 1e-8 * s_ref
        s_note = f"S achieved {s_val:.6f} vs required {s_ref:.6f}"
    except NotConverged:
        s_ok = False
        s_note = (
            f"S construction does not converge: the facet condition through an "
            f"eigenvector vertex is infeasible for n=3 (invariant variance "
            f"orbit); stochastic search tops out near 31.8158 < {s_ref:.6f}"
        )
    ok = l_ok and s_ok
    detail = f"L achieved {l_val:.9f} (target 8 sqrt(14) = {l_ref:.9f}); {s_note}"
    assert record_criterion(6, ok, detail), detail


def test_criterion_7_inequality_suites():
    ok = True
    worst_slack = 0.0
    for n in range(2, 7):
        rng = np.random.default_rng((SEED_BASE + 7, n))
        uniform = np.full(n, 1.0 / math.sqrt(n))

        lam = np.abs(rng.normal(size=(100_000, n)))
        lam *= 2.0 / np.linalg.norm(lam, axis=1, keepdims=True)
        excess = float(np.max(phi(lam))) - phi_max(n)
        eq_err = abs(float(phi(2.0 * uniform)) - phi_max(n))
        ok &= excess <= 1e-12 and eq_err <= 1e-12
        worst_slack = max(worst_slack, excess, eq_err)

        beta = np.abs(rng.normal(size=(100_000, n)))
        beta /= np.linalg.norm(beta, axis=1, keepdims=True)
        b_bound = n ** ((3 - n) / 2.0)
        excess = float(np.max(beta_product_sum(beta))) - b_bound
        eq_err = abs(float(beta_product_sum(uniform)) - b_bound)
        ok &= excess <= 1e-12 and eq_err <= 1e-12
        worst_slack = max(worst_slack, excess, eq_err)

        y = np.abs(rng.normal(size=(100_000, n))) + 1e-6
        x = y * np.mean(1.0 / y, axis=1, keepdims=True)
        deficit = -float(np.min(maclaurin_gap(x)))
        eq_err = abs(float(maclaurin_gap(np.ones(n))))
        ok &= deficit <= 1e-12 and eq_err <= 1e-12
        worst_slack = max(worst_slack, deficit, eq_err)
    detail = (
        f"3 inequalities x 1e5 samples x n=2..6: worst slack/equality error "
        f"{worst_slack:.2e} (allowed 1e-12)"
    )
    assert record_criterion(7, ok, detail), detail


def test_criterion_8_route_equivalence():
    worst = 0.0
    for n in range(2, 9):
        rng = np.random.default_rng((SEED_BASE + 8, n))
        for _ in range(200):
            e = Ellipsoid(random_spd(n, rng))
            q = random_orthotope(n, rng, floor=0.0)
            p = orthotope_to_parallelepiped(e, q)
            s1 = facet_area_total_gram(p).value
            s2 = facet_area_total_factored(e, q).value
            worst = max(worst, abs(s1 - s2) / max(s1, s2))
    ok = worst <= 1e-10
    detail = (
        f"1400 instances over n=2..8: max relative disagreement between "
        f"Gram-route (SVD of V) and factored facet totals {worst:.2e}"
    )
    assert record_criterion(8, ok, detail), detail


def test_criterion_9_classification():
    rng = np.random.default_rng(SEED_BASE + 9)
    misses = 0
    trials = 50
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        e = Ellipsoid(random_spd(n, rng))
        q = random_orthotope(n, rng, floor=0.05)
        w = q.U * q.lam
        i, j = sorted(rng.choice(n, size=2, replace=False))
        delta = 1e-4 * (1.0 + rng.random())
        w2 = w.copy()
        # push w_j along u_i so <w_i, w_j> = delta exactly
        w2[:, j] = w2[:, j] + (delta / q.lam[i]) * q.U[:, i]
        p2 = Parallelepiped(e.B @ w2)
        try:
            parallelepiped_to_orthotope(e, p2)
            detected = False
        except NotOrthotope:
            detected = True
        rep = is_inscribed(e, p2, tol=1e-9)
        if not detected or rep.inscribed or rep.max_residual <= 1e-9:
            misses += 1
    ok = misses == 0
    detail = (
        f"{trials} single-pair orthogonality breaks of >= 1e-4 over n=2..6: "
        f"{trials - misses} raised NotOrthotope with an off-boundary vertex"
    )
    assert record_criterion(9, ok, detail), detail
