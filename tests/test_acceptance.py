"""Acceptance gate: one test per criterion, each printing a single
pass/fail line with the measured quantity next to its pinned tolerance.
"""

import math
import time

import numpy as np

from ellipstream.adversary import library_rule, reduced_case_grid, run_adversary, simplex_vertices
from ellipstream.cli import generate
from ellipstream.coreset import run_coreset
from ellipstream.ellipsoid import Ellipsoid, log_volume, membership
from ellipstream.oracle import (
    HullSpec,
    check_monotone_step,
    inequality_suite,
    mvee_khachiyan,
    union_hull_distance,
)
from ellipstream.streaming import run_fully_online, run_seeded
from ellipstream.update_rule import RoundingState, step

MARGIN_TOL = 1e-7
EVOLUTION_TOL = 1e-9
EXACTNESS_TOL = 1e-12
GRID_SLACK_TOL = 1e-12
LATTICE_C_CAP = 64.0
PERF_RATIO_CAP = 8.0


def report_line(idx, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {idx} ({name}): {detail}")


def _mixed_stream(i, rng):
    d = 2 + i % 5
    gen = ("ball", "gaussian", "lattice")[i % 3]
    seed = int(rng.integers(0, 2**31))
    return d, generate(gen, d, 200, seed, lattice_n=10)


def test_criterion_1_monotone_invariant_suite():
    rng = np.random.default_rng(1001)
    worst = math.inf
    failures = 0
    t0 = time.time()
    for i in range(50):
        d, pts = _mixed_stream(i, rng)
        results = []

        def observer(t, step):
            if step.kind in ("init", "skip", "local"):
                return
            cert = check_monotone_step(step, tol=MARGIN_TOL)
            results.append(cert)

        if i % 2 == 0:
            run_fully_online(pts, on_step=observer)
        else:
            run_seeded(pts, pts.mean(axis=0), 0.5, on_step=observer)
        for cert in results:
            worst = min(worst, cert.worst_margin)
            if not (cert.outer_ok and cert.inner_ok):
                failures += 1
    elapsed = time.time() - t0
    ok = worst >= -MARGIN_TOL and failures == 0 and elapsed <= 120.0
    report_line(1, "monotone invariant suite", ok,
                f"worst_margin={worst:.3e} (tol -1e-7), failures={failures}, "
                f"runtime={elapsed:.1f}s (cap 120s)")
    assert ok


def test_criterion_2_final_sandwich():
    rng = np.random.default_rng(1002)
    worst_outer = -math.inf
    worst_inner = -math.inf
    n_checked = 0
    for d in (2, 3, 4, 5):
        pts = rng.standard_normal((150, d)) * 3.0
        c0, r0 = np.zeros(d), 0.5
        state, _ = run_seeded(pts, c0, r0)
        worst_outer = max(worst_outer,
                          max(float(membership(state.ellipsoid, p)) for p in pts))
        hull = HullSpec(
            point_list=tuple(pts),
            ellipsoid_list=(Ellipsoid.ball(c0, r0),))
        inner = state.ellipsoid.scaled(state.alpha)
        dirs = rng.standard_normal((500 // 4 + 1, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        boundary = inner.center[None, :] + \
            (dirs * inner.semiaxes[None, :]) @ inner.axes.T
        for x in boundary:
            worst_inner = max(worst_inner, union_hull_distance(hull, x))
            n_checked += 1
    ok = worst_outer <= MARGIN_TOL and worst_inner <= MARGIN_TOL
    report_line(2, "final sandwich", ok,
                f"outer worst_margin={worst_outer:.3e}, inner boundary "
                f"samples={n_checked} worst_dist={worst_inner:.3e} (tol 1e-7)")
    assert ok


def test_criterion_3_evolution_condition():
    rng = np.random.default_rng(1003)
    worst_ineq = -math.inf
    worst_id = 0.0
    worst_vol = -math.inf
    steps = 0
    for d in (2, 3, 4, 5, 6):
        pts = rng.standard_normal((200, d)) * 4.0
        events = []

        def observer(t, step):
            if step.kind == "regular":
                events.append((step.prev, step.state, step.gamma))

        run_seeded(pts, np.zeros(d), 0.4, on_step=observer)
        for prev, nxt, gamma in events:
            da = 1.0 / nxt.alpha - 1.0 / prev.alpha
            dv = log_volume(nxt.ellipsoid) - log_volume(prev.ellipsoid)
            worst_ineq = max(worst_ineq, da - 2.0 * dv)
            worst_id = max(worst_id, abs(da - 2.0 * gamma))
            worst_vol = max(worst_vol, gamma - dv)
            steps += 1
    ok = (worst_ineq <= EVOLUTION_TOL and worst_id <= EVOLUTION_TOL
          and worst_vol <= EVOLUTION_TOL and steps > 0)
    report_line(3, "evolution condition", ok,
                f"{steps} regular steps: max d(1/a)-2dV={worst_ineq:.3e}, "
                f"max |d(1/a)-2g|={worst_id:.3e}, max g-dV={worst_vol:.3e} "
                f"(tol 1e-9)")
    assert ok


def test_criterion_4_seeded_bound():
    rng = np.random.default_rng(1004)
    worst_gap = -math.inf
    cells = []
    for d in (2, 3, 4, 5, 6):
        for ratio in (3.0, 10.0, 100.0):
            r0 = 1.0
            pts = rng.standard_normal((300, d))
            radii = ratio * rng.random(300) ** (1.0 / d)
            pts *= (radii / np.linalg.norm(pts, axis=1))[:, None]
            state, rep = run_seeded(pts, np.zeros(d), r0)
            r_meas = max(r0, float(np.linalg.norm(pts, axis=1).max()))
            entered = any(r.step_kind == "regular" for r in rep.records)
            if entered:
                bound = 8.0 * d * (math.log(d) + math.log(r_meas / r0))
            else:
                bound = 2.0 * r_meas / r0
            worst_gap = max(worst_gap, state.alpha_inv - bound)
            cells.append((d, ratio, entered, state.alpha_inv, bound))
    ok = worst_gap <= 1e-9
    report_line(4, "seeded bound", ok,
                f"{len(cells)} cells, max (1/a - bound)={worst_gap:.3e}")
    assert ok


def test_criterion_5_irregular_exactness():
    worst = 0.0
    for alpha in (0.5, 0.25, 0.125, 0.05):
        body = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1.0]))
        state = RoundingState.from_ellipsoid(body, alpha=alpha)
        root = math.sqrt(1.0 + 2.0 * alpha)
        z = np.array([0.0, 0.0, root])
        s = step(state, z)
        assert s.kind == "irregular"
        nxt = s.state
        worst = max(
            worst,
            float(np.abs(nxt.ellipsoid.semiaxes - (1.0 + alpha) / root).max()),
            abs(float(np.linalg.norm(nxt.center)) - alpha / root),
            abs((1.0 / nxt.alpha - 1.0 / alpha) - 1.0))
    ok = worst <= EXACTNESS_TOL
    report_line(5, "irregular step exactness", ok,
                f"max deviation={worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_6_integer_mode():
    worst_c = 0.0
    for d in (2, 3, 4, 5):
        for n_lat in (10, 1000):
            pts = generate("lattice", d, 2000, seed=7 * d + n_lat,
                           lattice_n=n_lat)
            state, _ = run_fully_online(pts)
            c = state.alpha_inv / (d * math.log(d * n_lat))
            worst_c = max(worst_c, c)
    ok = worst_c <= LATTICE_C_CAP
    report_line(6, "integer mode", ok,
                f"C_observed={worst_c:.3f} (cap {LATTICE_C_CAP:g})")
    assert ok


def test_criterion_7_coreset():
    rng = np.random.default_rng(1007)
    ok = True
    details = []
    factor = 2.0 * math.e + 1.0
    for d in (2, 3, 4):
        pts = rng.standard_normal((400, d)) * 3.0
        trace, _ = run_coreset(pts)
        state = trace.driver
        r_hat = float(state.ellipsoid.semiaxes.min() * state.alpha)
        r_n = float(np.linalg.norm(pts - state.center, axis=1).max())
        size_bound = d * math.log(r_n / r_hat) + d + 2
        size_ok = len(trace.selected) <= size_bound

        replay, _ = run_coreset(pts[[i - 1 for i in trace.selected]])
        a, b = state.ellipsoid, replay.driver.ellipsoid
        exact = (np.array_equal(a.center, b.center)
                 and np.array_equal(a.axes, b.axes)
                 and np.array_equal(a.semiaxes, b.semiaxes)
                 and state.alpha == replay.driver.alpha)

        blown = a.scaled(factor)
        sel = set(trace.selected)
        margin = max(float(membership(blown, pts[t - 1]))
                     for t in range(1, len(pts) + 1) if t not in sel)
        margin_ok = margin <= MARGIN_TOL
        ok = ok and size_ok and exact and margin_ok
        details.append(f"d={d}:|S|={len(trace.selected)}<={size_bound:.1f},"
                       f"replay={'exact' if exact else 'DRIFT'},"
                       f"(2e+1)margin={margin:.2e}")
    report_line(7, "coreset", ok, " ".join(details))
    assert ok


def test_criterion_8_adversary():
    ok = True
    details = []
    for d in (2, 3, 4, 5):
        for r_big in (8.0, 32.0):
            trace = run_adversary(library_rule, d, r_big)
            cap = math.ceil(6.0 * d * math.log(r_big))
            target = d * math.log(r_big / 2.0)
            ratios = [(a2 - a1) / (p2 - p1)
                      for (a1, p1), (a2, p2)
                      in zip(zip(trace.a_values, trace.p_values),
                             zip(trace.a_values[1:], trace.p_values[1:]))
                      if p2 > p1 + 1e-12]
            min_ratio = min(ratios)
            cell_ok = (trace.phase2_steps <= cap
                       and trace.p_values[-1] >= target - 1e-6
                       and min_ratio > 0.0)
            ok = ok and cell_ok
            details.append(f"d={d},R={r_big:g}:T={trace.phase2_steps}<={cap},"
                           f"minratio={min_ratio:.3f}")
    report_line(8, "adversary", ok, " ".join(details))
    assert ok


def test_criterion_9_inequality_grids():
    t0 = time.time()
    reports = inequality_suite()
    reduced = reduced_case_grid()
    elapsed = time.time() - t0
    worst = min(r.worst_slack for r in reports)
    worst_claim = min(reports, key=lambda r: r.worst_slack).claim_id
    ok = (worst >= -GRID_SLACK_TOL and reduced.min_slack >= -GRID_SLACK_TOL
          and reduced.n_points >= 10**4 and elapsed <= 30.0)
    report_line(9, "appendix inequality grid", ok,
                f"{len(reports)} claims, worst_slack={worst:.3e} "
                f"({worst_claim}), reduced grid {reduced.n_points} pts "
                f"slack={reduced.min_slack:.3e}, runtime={elapsed:.1f}s")
    assert ok


def _bench_updates(d, n_updates=1000):
    rng = np.random.default_rng(1010)
    state = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(d), 1.0), alpha=0.5)
    zs = rng.standard_normal((n_updates, d))
    zs *= ((1.05 + 0.2 * rng.random(n_updates))
           / np.linalg.norm(zs, axis=1))[:, None]
    kinds = set()
    t0 = time.perf_counter()
    for z in zs:
        s = step(state, z)
        state = s.state
        kinds.add(s.kind)
    elapsed = time.perf_counter() - t0
    # full-rank bodies: every point is a regular step or a covered skip
    assert kinds <= {"regular", "skip"}
    return elapsed / n_updates


def test_criterion_10_performance_scaling():
    _bench_updates(128, 50)  # warm the caches before timing
    t128 = _bench_updates(128)
    t256 = _bench_updates(256)
    ratio = t256 / t128
    ok = ratio <= PERF_RATIO_CAP
    report_line(10, "performance scaling", ok,
                f"per-update d=128: {t128*1e3:.3f}ms, d=256: {t256*1e3:.3f}ms,"
                f" ratio={ratio:.2f} (cap 8)")
    assert ok


def test_criterion_11_offline_baseline():
    ok = True
    details = []
    for d in (2, 3, 4, 5, 6):
        verts = simplex_vertices(d)
        e = mvee_khachiyan(verts, eps=1e-7)
        m = e.axes * e.semiaxes[None, :]
        factors = []
        for i in range(d + 1):
            normal = -verts[i] / np.linalg.norm(verts[i])
            offset = 1.0 - float(normal @ e.center)
            factors.append(float(np.linalg.norm(m.T @ normal)) / offset)
        factor = max(factors)
        cell_ok = 0.95 * d <= factor <= 1.05 * d
        ok = ok and cell_ok
        details.append(f"d={d}:{factor:.3f}")
    report_line(11, "offline baseline sanity", ok,
                "John factors " + " ".join(details) + " (window [0.95d, 1.05d])")
    assert ok
