import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipstream import cli, coreset, oracle, streaming, update_rule
from ellipstream.coreset import coreset_step, drop_limit, run_coreset
from ellipstream.ellipsoid import (
    RANK_COLLAPSE_RATIO,
    SPAN_TOL,
    Ellipsoid,
    NumericalLimitError,
    _norm,
    max_membership,
    membership,
    span_split,
)
from ellipstream.oracle import check_monotone_step, check_monotone_steps
from ellipstream.streaming import CHUNK_ROWS, RunReport, run_fully_online, run_seeded
from ellipstream.update_rule import RoundingState, compute_params, leading_skips, solve_gamma, step
from test_coreset import exact_drop_limit


class TestFullyOnline:
    def test_empty_stream(self):
        with pytest.raises(ValueError, match="empty"):
            run_fully_online([])

    def test_single_point(self):
        state, report = run_fully_online([np.array([1.0, 2.0])])
        assert state.ellipsoid.rank == 0
        assert report.records[0].step_kind == "init"
        assert report.final_alpha_inv == 1.0

    def test_duplicate_of_first_point_skipped(self):
        z = np.array([1.0, 2.0])
        state, report = run_fully_online([z, z.copy()])
        assert [r.step_kind for r in report.records] == ["init", "skip"]

    def test_step_kind_sequence(self):
        pts = [np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
               np.array([0, 0, 1.0]), np.array([3.0, 0, 0])]
        state, report = run_fully_online(pts)
        kinds = [r.step_kind for r in report.records]
        assert kinds[0] == "init"
        assert kinds[1:4] == ["irregular"] * 3
        assert kinds[4] == "regular"
        assert state.ellipsoid.rank == 3

    def test_final_sandwich_covers_stream(self):
        rng = np.random.default_rng(20)
        pts = rng.standard_normal((200, 4)) * np.array([5.0, 1.0, 0.2, 2.0])
        state, report = run_fully_online(pts)
        worst = max(membership(state.ellipsoid, p) for p in pts)
        assert worst <= 1e-7
        # a point 5e-10 off a unit square's plane, 1e-3 from the body's
        # center: the step and membership must agree that it is in-span
        square = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        center = run_fully_online(square)[0].center
        pts = np.vstack([square, center + np.array([1e-3, 0.0, 5e-10])])
        state, report = run_fully_online(pts)
        assert report.records[-1].step_kind == "skip"
        worst = max(membership(state.ellipsoid, p) for p in pts)
        assert worst <= 1e-7

    def test_alpha_ledger(self):
        # irregular steps add exactly 1 to 1/alpha, regular steps 2*gamma
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((80, 3)) * 2.0
        state, report = run_fully_online(pts)
        expected = 1.0 + report.irregular_count() + \
            2.0 * report.regular_gamma_sum()
        assert state.alpha_inv == pytest.approx(expected, rel=1e-10)

    def test_non_finite_point_reported_with_index(self):
        pts = [np.zeros(2), np.array([np.nan, 0.0])]
        with pytest.raises(ValueError, match="index 2"):
            run_fully_online(pts)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(5, 40))
    def test_monotone_alpha_and_volume(self, seed, d, n):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, d))
        state, report = run_fully_online(pts)
        alphas = [r.alpha for r in report.records]
        assert all(a2 <= a1 + 1e-12 for a1, a2 in zip(alphas, alphas[1:]))
        # volumes of bodies of different rank are not comparable, so only
        # check growth across steps that keep the span fixed
        for r1, r2 in zip(report.records, report.records[1:]):
            if r2.step_kind in ("regular", "skip"):
                assert r2.log_volume >= r1.log_volume - 1e-9

    def test_anisotropic_span_raises_stay_orthonormal(self):
        # axis scales 1e3 .. 1e-3: a single Gram-Schmidt pass on the span
        # raise left the new axis visibly non-orthogonal to the old ones
        pts = np.random.default_rng(0).standard_normal((200, 4)) \
            * np.array([1e3, 1.0, 1.0, 1e-3])
        state, report = run_fully_online(pts)
        assert state.ellipsoid.rank == 4
        axes = state.ellipsoid.axes
        assert np.allclose(axes.T @ axes, np.eye(4), atol=1e-12)
        worst = max(membership(state.ellipsoid, p) for p in pts)
        assert worst <= 1e-7

    def test_observer_sees_every_step(self):
        # every step that changes the state, and no skip: those show only
        # in the report
        pts = np.random.default_rng(22).standard_normal((300, 3))
        for run in (run_fully_online,
                    lambda pts, on_step: run_seeded(pts, np.zeros(3), 1.0, on_step)):
            seen = []
            _, report = run(pts, on_step=lambda t, s: seen.append((t, s.kind)))
            assert any(n > 1 for rec, n in report.runs if rec.step_kind == "skip")
            assert seen == [(r.t, r.step_kind) for r in report.records
                            if r.step_kind != "skip"]
        assert "local" in {kind for _, kind in seen}


class TestAffineEquivariance:
    @settings(max_examples=45, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(-12, 12))
    def test_affine_maps_and_scalings_preserve_the_run(self, seed, d, log_scale):
        # the update rule is affine-equivariant, so A z + b must replay the
        # run on z: same step kinds and coreset, the same 1/alpha trace, and
        # a final body that covers the mapped points
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((60, d))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = q * rng.uniform(0.2, 5.0, d)
        b = rng.uniform(-10.0, 10.0, d)
        assert_matches_reference(pts)
        _, base = run_fully_online(pts)
        base_selected = run_coreset(pts)[0].selected
        # at an offset of 1e8 the coordinates keep only ~1e-8 of a unit
        # spread, and the trace agrees only to what that leaves
        for mapped, rel in ((pts @ a.T + b, 1e-9), (pts * 10.0 ** log_scale, 1e-9),
                            (pts + 1e8, 1e-4)):
            assert_matches_reference(mapped)
            state, report = run_fully_online(mapped)
            assert [r.step_kind for r in report.records] == \
                [r.step_kind for r in base.records]
            for r, r0 in zip(report.records, base.records):
                assert 1.0 / r.alpha == pytest.approx(1.0 / r0.alpha, rel=rel)
            assert run_coreset(mapped)[0].selected == base_selected
            worst = max(membership(state.ellipsoid, p) for p in mapped)
            assert worst <= 1e-7


@pytest.mark.parametrize("d, n, seed", [(3, 200, 2), (4, 300, 11), (6, 600, 5), (16, 96, 5),
                                        (64, 384, 5)])
@pytest.mark.parametrize("c", [2, 4, 6])
def test_affine_equivariance_up_to_condition_1e6(d, n, seed, c):
    # A = Q diag(logspace(0, c, d)) has condition 10^c; the mapped run must
    # replay the run on the gaussian stream
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    mapped = pts @ (q * np.logspace(0, c, d)).T + 3.0
    _, base = run_fully_online(pts)
    state, report = run_fully_online(mapped)
    assert [r.step_kind for r in report.records] == [r.step_kind for r in base.records]
    assert run_coreset(mapped)[0].selected == run_coreset(pts)[0].selected
    inv = np.array([1.0 / r.alpha for r in report.records])
    inv0 = np.array([1.0 / r.alpha for r in base.records])
    assert np.max(np.abs(inv / inv0 - 1.0)) <= 1e-9
    assert max_membership(state.ellipsoid, mapped) <= 1e-9


@pytest.mark.parametrize("factor", [1e154, 1e300, 2.0 ** 600, 2.0 ** -600, 1e-158, 1e-160,
                                    2.0 ** -530, 1e-170, 1e-200])
def test_scaled_past_the_range_of_squares_replays_the_run(factor):
    # the squares of these coordinates overflow, or underflow to subnormals
    # or to 0; every norm of the span test is rescaled, so the run replays
    # the unscaled one
    pts = np.random.default_rng(5).standard_normal((400, 5))
    _, base = run_fully_online(pts)
    steps = []
    _, report = run_fully_online(pts * factor, on_step=lambda t, s: s.split and steps.append(s))
    assert [r.step_kind for r in report.records] == [r.step_kind for r in base.records]
    assert report.final_alpha_inv == pytest.approx(base.final_alpha_inv, rel=1e-15)
    assert run_coreset(pts * factor)[0].selected == run_coreset(pts)[0].selected
    assert len(steps) == 27
    assert all(c.verdict == "pass" for c in check_monotone_steps(steps))


@pytest.mark.parametrize("factor", [1e-200, 1e200])
def test_scan_sees_off_span_rows_past_the_range_of_squares(factor):
    # a plane, then from t = 201 on rows off it, after runs of skips: with
    # its squares out of range, leading_skips must not take them for skips
    rng = np.random.default_rng(1)
    pts = np.hstack([0.3 * rng.standard_normal((300, 2)), np.zeros((300, 1))])
    pts[:5, :2] *= 10.0
    pts[200:, 2] = rng.standard_normal(100)
    state, _ = run_fully_online(pts * factor)
    assert state.dim == 3
    assert max_membership(state.ellipsoid, pts * factor) <= 1e-7


class TestSeeded:
    def test_points_of_another_dimension_are_refused(self):
        # a (10, 1) stream against a 3-d seed ball would otherwise broadcast
        # to a body centred on the diagonal
        with pytest.raises(ValueError, match="point of dimension 1 at index 1, "
                                             "against a state of dimension 3"):
            run_seeded(np.linspace(0, 5, 10)[:, None], np.zeros(3), 0.5)

    def test_phase1_only(self):
        # all points inside the gate radius: both bodies stay balls
        rng = np.random.default_rng(23)
        d = 3
        pts = rng.standard_normal((50, d))
        pts *= (2.0 / np.linalg.norm(pts, axis=1))[:, None]
        state, report = run_seeded(pts, np.zeros(d), 1.0)
        assert all(r.step_kind in ("skip", "local") for r in report.records)
        r_max = max(np.linalg.norm(p) for p in pts)
        assert state.alpha_inv == pytest.approx(r_max, rel=1e-12)

    def test_phase1_alpha_is_radius_ratio(self):
        # gate radius is r0 * d * log(d) = 2 log 2, both points stay below it
        d = 2
        pts = [np.array([1.3, 0.0]), np.array([0.0, 1.2])]
        state, report = run_seeded(pts, np.zeros(d), 1.0)
        assert state.alpha == pytest.approx(1.0 / 1.3)
        assert np.allclose(state.ellipsoid.semiaxes, 1.3)

    def test_transition_happens_once(self):
        d = 3
        gate = 1.0 * d * math.log(d)
        pts = [np.array([gate * 1.5, 0.0, 0.0]), np.array([0.1, 0.1, 0.0])]
        state, report = run_seeded(pts, np.zeros(d), 1.0)
        assert report.records[0].step_kind == "regular"
        assert report.records[1].step_kind == "skip"

    def test_trigger_point_is_covered(self):
        d = 4
        z = np.array([40.0, 0.0, 0.0, 0.0])
        state, report = run_seeded([z], np.zeros(d), 1.0)
        assert membership(state.ellipsoid, z) <= 1e-9

    def test_seed_ball_stays_inside_inner(self):
        # the transition clamp keeps alpha * outer at least the seed ball
        rng = np.random.default_rng(24)
        d = 2
        r0 = 1.0
        pts = rng.standard_normal((100, d)) * 6.0
        state, report = run_seeded(pts, np.zeros(d), r0)
        for rec in report.records:
            assert rec.alpha > 0

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            run_seeded([np.array([1.0])], np.array([0.0]), 1.0)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            run_seeded([np.zeros(2)], np.zeros(2), 0.0)

    @pytest.mark.parametrize("c0, r0, name", [
        ([0.0, math.nan], 1.0, "c0"), ([math.inf, 0.0], 1.0, "c0"),
        ([0.0, 0.0], math.inf, "r0")], ids=["nan-c0", "inf-c0", "inf-r0"])
    def test_non_finite_seed_ball_refused(self, c0, r0, name):
        with pytest.raises(ValueError, match=f"seed .* {name} must be"):
            run_seeded([np.zeros(2)], np.array(c0), r0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_final_sandwich_random(self, seed, d):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((60, d)) * 4.0
        state, report = run_seeded(pts, np.zeros(d), 0.5)
        worst = max(membership(state.ellipsoid, p) for p in pts)
        assert worst <= 1e-7


def one_axis_growth(d):
    """4000 gaussian points whose first coordinate grows by e^30: the outer
    body's semiaxis ratio outruns float64 about four fifths of the way in."""
    z = np.random.default_rng(0).standard_normal((4000, d))
    z[:, 0] *= np.exp(np.linspace(0.0, 30.0, 4000))
    return z


class TestNumericalLimit:
    @pytest.mark.parametrize("d", [2, 3, 6])
    @pytest.mark.parametrize("driver", ["online", "seeded", "coreset"])
    def test_collapse_names_step_and_ratio(self, driver, d):
        run = {"online": run_fully_online,
               "seeded": lambda pts: run_seeded(pts, np.zeros(d), 0.5),
               "coreset": run_coreset}[driver]
        pts = one_axis_growth(d)
        with pytest.raises(NumericalLimitError) as info:
            run(pts)
        err = info.value
        assert err.ratio > 1.0 / RANK_COLLAPSE_RATIO
        assert f"step t={err.t}:" in str(err)
        assert f"s_max/s_min = {err.ratio:.3e}" in str(err)
        # t is the step that raised: the stream before it runs through
        run(pts[:err.t - 1])

    @pytest.mark.parametrize("driver", ["online", "seeded", "coreset"])
    def test_overflowing_rho_names_the_step(self, driver):
        # |y| of the last point overflows to inf, or at rank 1 passes
        # RHO_MAX, where the gamma bracket overflows; a raise toward a point
        # at subnormal distance has an infinite inverse. Each is a typed
        # limit at its index, with no warning, not an error from the SVD of
        # a NaN body or a math range error; seeded mode needs d >= 2
        run = {"online": run_fully_online,
               "seeded": lambda pts: run_seeded(pts, np.zeros(pts.shape[1]), 0.5),
               "coreset": run_coreset}[driver]
        streams = [([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1e200, 1e200]], 4),
                   ([[0.0, 0.0], [2.0, 0.0], [1e308, 0.0]], 3),
                   ([[0.0], [2.0], [1e308]], 3), ([[0.0], [1.0], [1.7e308]], 3),
                   ([[0.0], [1e-310]], 2)]
        for pts, t in streams[:2] if driver == "seeded" else streams:
            with pytest.raises(NumericalLimitError, match=f"numerical limit at step t={t}:"):
                run(np.array(pts))

    @pytest.mark.parametrize("driver, far, ratio", [
        ("online", 1e100, 9.320e99), ("online", 1e20, 9.277e19),
        ("coreset", 1e100, 9.320e99), ("coreset", 1e20, 9.277e19), ("seeded", 1e100, 6.179e99),
        ("seeded", 1e20, 6.150e19)])
    def test_one_long_regular_step_reports_its_own_ratio(self, driver, far, ratio):
        # M' rounds away its row along w, and the SVD of M' reads a rounding
        # floor near 1e16; (a/b) / the previous cond_bound reads the step
        run = {"online": run_fully_online,
               "seeded": lambda pts: run_seeded(pts, np.zeros(2), 0.5),
               "coreset": run_coreset}[driver]
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [far, far]])
        with pytest.raises(NumericalLimitError) as info:
            run(pts)
        assert info.value.t == 4
        assert info.value.ratio == pytest.approx(ratio, rel=1e-3)

    def test_collapse_bound_is_a_lower_bound(self):
        # a long step whose body stays inside float64: the reported bound
        # never exceeds the exact ratio of the view
        st0 = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(2), 1.0), alpha=0.5)
        for far in (1e3, 1e6, 1e9):
            s = step(st0, np.array([far, far]))
            a, b = math.exp(s.gamma), compute_params(s.gamma, 0.5).b
            semi = s.state.ellipsoid.semiaxes
            assert a / b / st0.cond_bound <= semi[0] / semi[-1]


class TestRunReport:
    def test_records_strictly_ordered(self):
        rep = RunReport()
        rep.add(1, 1.0, 0.0, "init", 0.0)
        with pytest.raises(ValueError):
            rep.add(1, 1.0, 0.0, "skip", 0.0)

    def test_gamma_sum_counts_only_regular(self):
        rep = RunReport()
        rep.add(1, 1.0, 0.0, "init", 0.0)
        rep.add(2, 0.5, 0.1, "regular", 0.3)
        rep.add(3, 0.4, 0.2, "irregular", 0.0)
        rep.add(4, 0.3, 0.4, "regular", 0.2)
        assert rep.regular_gamma_sum() == pytest.approx(0.5)
        assert rep.irregular_count() == 1

    def test_memory_per_run(self):
        # a drifting stream: nearly every step is regular, a run of its own;
        # the memory the report holds is what freeing it releases
        g = np.random.default_rng(4).standard_normal((3000, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts = g * np.exp(0.002 * np.arange(1, 3001))[:, None]
        tracemalloc.start()
        try:
            _, report = run_fully_online(pts)
            n_runs = len(report.runs)
            held = tracemalloc.get_traced_memory()[0]
            del report
            used = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n_runs > 2000
        assert used / n_runs <= 64


# --- batched ingestion: bit-identity with a scalar reference fold ---------

EPS = np.finfo(float).eps


def reference_online(pts):
    """run_fully_online as a plain per-point fold of `step`."""
    state, records = None, []
    for t, z in enumerate(pts, start=1):
        z = np.asarray(z, dtype=float)
        if state is None:
            state, kind, gamma = RoundingState.from_ellipsoid(Ellipsoid.point(z), 1.0), "init", 0.0
        else:
            s = step(state, z)
            state, kind, gamma = s.state, s.kind, s.gamma
        records.append((t, state.alpha, state.log_volume, kind, gamma))
    return state, records, None


def reference_seeded(pts, r0=0.5):
    """run_seeded as a plain per-point fold of its two phases."""
    d = len(pts[0])
    c0 = np.zeros(d)
    gate = r0 * d * math.log(d)
    state, local, records = RoundingState.from_ellipsoid(Ellipsoid.ball(c0, r0), 1.0), True, []
    for t, z in enumerate(pts, start=1):
        z = np.asarray(z, dtype=float)
        kind, gamma, grown = None, 0.0, False
        if local:
            dist = float(np.linalg.norm(z - c0))
            if dist > gate:
                state = RoundingState.from_ellipsoid(Ellipsoid.ball(c0, gate),
                                                     min(0.5, 1.0 / (d * math.log(d))))
                local, grown = False, True
            elif dist > state.ellipsoid.semiaxes[0]:
                state = RoundingState.from_ellipsoid(Ellipsoid.ball(c0, dist), r0 / dist)
                kind = "local"
            else:
                kind = "skip"
        if kind is None:
            s = step(state, z)
            state, kind, gamma = s.state, s.kind, s.gamma
            if grown and kind == "skip":
                # the grown ball covers the trigger: the growth is the step
                kind = "local"
        records.append((t, state.alpha, state.log_volume, kind, gamma))
    return state, records, None


def reference_coreset(pts):
    """run_coreset as a plain per-point fold of `coreset_step`; its last
    value is (selected, reasons)."""
    state, records, selected, reasons = None, [], [], []
    for t, z in enumerate(pts, start=1):
        z = np.asarray(z, dtype=float)
        if state is None:
            state, kind, gamma = RoundingState.from_ellipsoid(Ellipsoid.point(z), 1.0), "init", 0.0
        else:
            try:
                s = coreset_step(state, z)
                state, kind, gamma = s.state, s.kind, s.gamma
            except NumericalLimitError as exc:
                raise exc.at_step(t) from exc
        if kind != "skip":
            selected.append(t)
            reasons.append("volume_jump" if kind == "regular" else "dim_growth")
        records.append((t, state.alpha, state.log_volume, kind, gamma))
    return state, records, (tuple(selected), tuple(reasons))


def reference_step(body, alpha, z):
    """The step kernel on an Ellipsoid, as it stood before the factored
    state: each step rebuilds the outer body from the SVD of a small square
    core. Returns (body, alpha, kind)."""
    split = span_split(body, z)
    if split.off:
        keep = body.semiaxes > 0.5 * SPAN_TOL * split.rnorm
        if not keep.all():
            body = Ellipsoid(body.center, body.axes[:, keep], body.semiaxes[keep])
            split = span_split(body, z)
        delta, coeffs, residual, rnorm, _ = split
        k = body.rank
        root = math.sqrt(1.0 + 2.0 * alpha)
        # the shear sends [coeffs, rnorm] to root * e_k
        a_bar = np.ones(k + 1)
        a_bar[:k] = 1.0 / body.semiaxes
        m_w = np.eye(k + 1)
        m_w[:k, k] = -coeffs / rnorm
        m_w[k, k] = root / rnorm
        new = reshaped(body.center + (alpha / (1.0 + 2.0 * alpha)) * delta,
                       np.hstack([body.axes, (residual / rnorm)[:, None]]),
                       a_bar[:, None] * m_w, (1.0 + alpha) / root)
        return new, 1.0 / (1.0 / alpha + 1.0), "irregular"
    s = body.semiaxes
    u = split.coeffs / s
    rho = float(np.linalg.norm(u))
    if rho <= 1.0:
        return body, alpha, "skip"
    p = compute_params(solve_gamma(rho, alpha), alpha)
    w = u / rho
    core = np.diag(1.0 / (p.b * s)) + np.outer((1.0 / p.a - 1.0 / p.b) * w, w / s)
    new = reshaped(body.center + body.axes @ (s * w) * p.c, body.axes, core, 1.0)
    return new, p.alpha_next, "regular"


def reshaped(center, basis, core, scale):
    """The body {center + basis x : |core x| <= scale}, from the SVD of core."""
    _, cs, cvt = np.linalg.svd(core)
    return Ellipsoid(center, basis @ cvt.T, scale / cs)


def assert_matches_reference(pts):
    """Fold `step` over pts and take every step again with reference_step
    from the same body. The kinds agree, apart from rows within 1e-12 of
    rho = 1, which either kernel may skip; 1/alpha and the semiaxes agree
    to 1e-9. Every state keeps its Frobenius bound at least s_max/s_min."""
    state = RoundingState.from_ellipsoid(Ellipsoid.point(pts[0]), 1.0)
    for z in pts[1:]:
        body = state.ellipsoid
        ref_body, ref_alpha, ref_kind = reference_step(body, state.alpha, z)
        s = step(state, z)
        state, kind = s.state, s.kind
        if kind != ref_kind:
            split = span_split(body, z)
            assert not split.off
            assert abs(np.linalg.norm(split.coeffs / body.semiaxes) - 1.0) <= 1e-12
            continue
        assert 1.0 / state.alpha == pytest.approx(1.0 / ref_alpha, rel=1e-9)
        assert state.ellipsoid.semiaxes == pytest.approx(ref_body.semiaxes, rel=1e-9)
        semi = state.ellipsoid.semiaxes
        if state.dim:
            bound = state.cond_bound
            assert semi[0] / semi[-1] <= bound * (1.0 + 1e-12)


DRIVERS = {
    "online": (lambda s: run_fully_online(s), reference_online),
    "seeded": (lambda s: run_seeded(s, np.zeros(3), 0.5), reference_seeded),
    "coreset": (lambda s: run_coreset(s), reference_coreset),
}


def at_rho(state, rhos, rng, residual=0.0):
    """Points at the given rho of `state`, as the kernel computes it, along
    random span directions; below full rank, pushed off the span by
    `residual` times the off-span threshold."""
    q = state.basis
    rows = []
    for rho in rhos:
        u = rng.standard_normal(state.dim)
        delta = q @ np.linalg.solve(state.inverse, u) * (rho / np.linalg.norm(u))
        for _ in range(3):
            got = np.linalg.norm(state.inverse @ (q.T @ (state.center + delta - state.center)))
            delta = delta * (rho / got)
        if residual and state.dim < len(state.center):
            n = rng.standard_normal(len(state.center))
            n -= q @ (q.T @ n)
            n -= q @ (q.T @ n)
            scale = SPAN_TOL * max(np.linalg.norm(delta), state.span_scale)
            delta = delta + n / np.linalg.norm(n) * residual * scale
        rows.append(state.center + delta)
    return np.array(rows)


def crafted(reference, prefix, make_rows, rounds=1):
    """prefix, then rounds of the rows make_rows builds at the reference
    state after the stream so far."""
    pts = prefix
    for _ in range(rounds):
        pts = np.vstack([pts, make_rows(reference(pts)[0])])
    return pts


def boundary_rows(state, rng):
    # covered points, then points a few ulps either side of rho = 1
    ulps = 1.0 + EPS * rng.integers(-3, 4, 12)
    return np.vstack([at_rho(state, rng.uniform(0.1, 0.9, 6), rng), at_rho(state, ulps, rng)])


def span_rows(state, rng):
    # in-span points with a residual at the off-span threshold, and at half
    # of it, by a factor 1 -+ 1e-6
    rows = [at_rho(state, rng.uniform(0.1, 0.9, 30), rng)]
    for f in (0.5, 1.0):
        for r in (f * (1 - 1e-6), f * (1 + 1e-6)):
            rows.append(at_rho(state, [0.5], rng, residual=r))
            rows.append(at_rho(state, rng.uniform(0.1, 0.9, 8), rng))
    return np.vstack(rows)


def drop_rows(state, rng):
    # the coreset's exact drop threshold rho*, where the scalar keep-rule
    # decides, and the scan's limit below it: each either side by 1e-9, and
    # just inside the scan margin
    factors = [1 - 1e-9, 1 + 1e-9, 1 - 2e-8, 1 - 1e-7, 1 - 1e-3]
    rows = [at_rho(state, rng.uniform(0.1, 0.9, 20), rng)]
    for limit in (exact_drop_limit(state), drop_limit(state)):
        for f in factors:
            rows.append(at_rho(state, [limit * f], rng))
            rows.append(at_rho(state, rng.uniform(0.1, 0.9, 10), rng))
    return np.vstack(rows)


def near_gate(rng, d=3, r0=0.5):
    """A seeded stream (c0 = 0) whose first point past the gate lies a few
    ulps beyond it, where the grown ball covers it."""
    gate = r0 * d * math.log(d)
    grown = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(d), gate),
                                         min(0.5, 1.0 / (d * math.log(d))))
    inside = at_rho(grown, rng.uniform(0.1, 0.9, 20), rng)
    while True:
        u = rng.standard_normal(d)
        for k in range(1, 5):
            z = u / np.linalg.norm(u) * gate * (1.0 + k * EPS)
            if np.linalg.norm(z) > gate and step(grown, z).kind == "skip":
                return np.vstack([inside, z, 2.0 * rng.standard_normal((60, d))])


def long_skip_run(prefix, rng):
    """prefix, then 800 covered rows, with rows within ulps of rho = 1 at
    stream offsets 255, 512 and 513: a scan stops mid-block, runs carry
    across block edges, and a block's first row takes the scalar step."""
    state = reference_online(prefix)[0]
    tail = at_rho(state, rng.uniform(0.1, 0.9, 800), rng)
    at = np.array([255, 512, 513]) - len(prefix)
    tail[at] = at_rho(state, 1.0 - EPS * np.arange(1, 4), rng)
    return np.vstack([prefix, tail])


def streams():
    rng = np.random.default_rng(40)
    gauss = rng.standard_normal((120, 3))
    # a planar stream in R^3 keeps the body at rank 2
    plane = np.hstack([rng.standard_normal((120, 2)), np.zeros((120, 1))]) + 1.0
    z = rng.standard_normal(3)
    near = z + np.array([EPS, 0.0, 0.0]) * np.abs(z)
    dup = np.array([z, z, z, near, z, near, z] + [z] * 20)
    out = {
        "duplicates_at_rank_0": np.vstack([dup, rng.standard_normal((40, 3))]),
        "n255": rng.standard_normal((255, 3)),
        "n256": rng.standard_normal((256, 3)),
        "n257": rng.standard_normal((257, 3)),
    }
    for name, ref in (("online", reference_online), ("seeded", reference_seeded),
                      ("coreset", reference_coreset)):
        out[f"boundary_{name}"] = crafted(ref, gauss, lambda s: boundary_rows(s, rng), 12)
        out[f"span_{name}"] = crafted(ref, plane, lambda s: span_rows(s, rng))
    out["drop_coreset"] = crafted(reference_coreset, gauss, lambda s: drop_rows(s, rng))
    # seeded phase I: a ball of radius 0.5 about the origin
    ball = Ellipsoid.ball(np.zeros(3), 0.5)
    out["ball_phase1"] = at_rho(RoundingState.from_ellipsoid(ball, 1.0),
                                [1.0 + j * EPS for j in range(-4, 5)] * 3, rng)
    out["near_gate"] = near_gate(rng)
    out["long_skip_run"] = long_skip_run(gauss, rng)
    return out


STREAMS = streams()


def as_list(pts):
    return [np.array(p) for p in pts]


def as_generator(pts):
    return (np.array(p) for p in pts)


class TestBatchedIngestion:
    @pytest.mark.parametrize("name", sorted(STREAMS))
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_bit_identical_to_scalar_fold(self, driver, name):
        run, reference = DRIVERS[driver]
        pts = STREAMS[name]
        ref_state, ref_records, ref_selected = reference(pts)
        for given in (pts, as_list(pts), as_generator(pts)):
            out, report = run(given)
            state = out.driver if driver == "coreset" else out
            assert [tuple(r) for r in report.records] == ref_records
            assert np.array_equal(state.center, ref_state.center)
            assert np.array_equal(state.ellipsoid.axes, ref_state.ellipsoid.axes)
            assert np.array_equal(state.ellipsoid.semiaxes, ref_state.ellipsoid.semiaxes)
            assert state.alpha == ref_state.alpha
            assert report.final_alpha_inv == state.alpha_inv
            if driver == "coreset":
                assert (out.selected, out.reasons) == ref_selected
        # a skip never changes the state
        records = report.records
        for before, rec in zip(records, records[1:]):
            if rec.step_kind == "skip":
                assert rec[1:3] == before[1:3]

    def test_empty_coreset(self):
        trace, report = run_coreset([])
        assert (trace.selected, trace.reasons, trace.driver) == ((), (), None)
        assert report.final_alpha_inv == 1.0

    def test_skip_runs_are_run_length_encoded(self):
        pts = np.random.default_rng(41).standard_normal((3000, 3))
        _, report = run_fully_online(pts)
        assert len(report.records) == 3000
        assert len(report.runs) < 100

    @pytest.mark.parametrize("driver", ["online", "coreset"])
    def test_one_scan_per_block_on_a_skip_run(self, driver, monkeypatch):
        # a tail of certain skips over four blocks: after the last state
        # change, each block the run reaches is scanned once
        run, reference = DRIVERS[driver]
        rng = np.random.default_rng(45)
        prefix = rng.standard_normal((120, 3))
        tail = at_rho(reference(prefix)[0], rng.uniform(0.1, 0.9, 900), rng)
        scanned = []

        def counted(state, zs, limit):
            scanned.append(state)
            return leading_skips(state, zs, limit)

        monkeypatch.setattr(streaming, "leading_skips", counted)
        out, _ = run(np.vstack([prefix, tail]))
        final = out.driver if driver == "coreset" else out
        blocks = -(-(len(prefix) + len(tail)) // CHUNK_ROWS)
        assert sum(state is final for state in scanned) <= blocks + 1

    @pytest.mark.parametrize("name, driver, start, kinds", [
        ("boundary_online", "online", 120, {"skip", "regular"}),
        ("drop_coreset", "coreset", 120, {"skip", "regular"}),
        ("span_online", "online", 120, {"skip", "irregular"}),
        ("ball_phase1", "seeded", 0, {"skip", "local"})])
    def test_crafted_rows_reach_both_decisions(self, name, driver, start, kinds):
        # the rows near a threshold are not all decided one way
        records = DRIVERS[driver][1](STREAMS[name])[1]
        assert kinds <= {r[3] for r in records[start:]}


class TestFactoredState:
    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_matches_the_svd_reference(self, name):
        assert_matches_reference(STREAMS[name])

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_accurate_next_to_the_collapse_guard(self, d):
        # s_max/s_min nears 1e10 before the raise; a factor only ever updated
        # in place is off by about eps times that in its thin axes, which
        # failed step certificates and left points 7e-7 outside the body
        pts = one_axis_growth(d)
        with pytest.raises(NumericalLimitError) as info:
            run_fully_online(pts)
        pts = pts[:info.value.t - 1]
        certs = []

        def certify(t, s):
            if s.kind != "init":
                certs.append(check_monotone_step(s))

        state, _ = run_fully_online(pts, on_step=certify)
        assert all(c.outer_ok and c.inner_ok for c in certs)
        assert max_membership(state.ellipsoid, pts) <= 1e-9


def mapped_gaussian(d, n, c, seed=5):
    """n gaussian points mapped by A x + 3, A = Q diag(logspace(0, c, d)),
    the recipe of test_affine_equivariance_up_to_condition_1e6."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return pts @ (q * np.logspace(0, c, d)).T + 3.0


def up_to_the_collapse(pts):
    """pts up to the step at which the online driver raises NumericalLimitError."""
    with pytest.raises(NumericalLimitError) as info:
        run_fully_online(pts)
    return pts[:info.value.t - 1]


def embedded(k, d, n, c):
    """mapped_gaussian(k, n, c) in a k-dimensional subspace of R^d."""
    e, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((d, k)))
    return mapped_gaussian(k, n, c) @ e.T


class TestAmbientFullRank:
    """A full-rank state is in ambient coordinates: its basis is the shared
    identity, and a regular step keeps it, as it keeps any basis."""

    @pytest.mark.parametrize("name", ["mapped", "one-axis-2", "one-axis-3", "one-axis-6",
                                      "embedded-4-6", "embedded-8-16"])
    def test_restarts_certify_in_closed_form(self, name, monkeypatch):
        # condition 1e6 and up, at full rank and below it: the kernel keeps
        # its own inverse factor, and no step falls back to the sampled certificate
        if name == "mapped":
            pts = mapped_gaussian(6, 600, 6)
        elif name.startswith("one-axis"):
            pts = up_to_the_collapse(one_axis_growth(int(name[-1])))
        else:
            # rank 4 in R^6 and rank 8 in R^16
            pts = embedded(4, 6, 400, 6) if name == "embedded-4-6" else embedded(8, 16, 200, 6)
        # the collapse guard's SVD is the one SVD a fold makes
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        steps = []
        run_fully_online(pts, on_step=lambda t, s: steps.append(s))
        monkeypatch.setattr(np.linalg, "svd", svd)
        # it runs once per new state whose cond_bound passes the guard, on no
        # state of the streams that stay far from it
        guarded = [s for s in steps if s.kind in ("regular", "irregular")
                   and s.state.cond_bound * RANK_COLLAPSE_RATIO > 0.5]
        assert len(calls) == len(guarded)
        if not name.startswith("one-axis"):
            assert calls == []
        steps = [s for s in steps if s.split is not None]
        # a basis changes only with the span
        assert all(s.state.basis is s.prev.basis for s in steps if s.kind == "regular")
        sampled, fallbacks = oracle._sampled_margins, []
        monkeypatch.setattr(oracle, "_sampled_margins",
                            lambda *args: fallbacks.append(1) or sampled(*args))
        certs = check_monotone_steps(steps)
        assert fallbacks == []
        assert all(c.verdict == "pass" for c in certs)

    @pytest.mark.parametrize("driver", ["online", "seeded", "coreset"])
    def test_full_rank_states_share_the_identity(self, driver):
        d = 6
        pts = mapped_gaussian(d, 600, 6)
        states = []
        run = {"online": run_fully_online, "coreset": run_coreset,
               "seeded": lambda pts, on_step: run_seeded(pts, np.full(d, 3.0), 0.5, on_step)}
        run[driver](pts, on_step=lambda t, s: states.append(s.state))
        full = [s for s in states if s.dim == d]
        assert full
        assert all(np.array_equal(s.basis, np.eye(d)) for s in full)
        # one shared, read-only array
        assert len({id(s.basis) for s in full}) == 1
        assert not full[0].basis.flags.writeable


def online_states(pts):
    """Every state the online driver builds on pts."""
    states = []
    run_fully_online(pts, on_step=lambda t, s: states.append(s.state))
    return states


def assert_factor_norm_recurrence(states):
    """Each state's factor_norm, carried by the steps' recurrence, is finite
    and within 1e-12 of |T|_F for the factor T = inv(inverse)."""
    for s in states:
        assert math.isfinite(s.factor_norm)
        assert s.factor_norm == pytest.approx(_norm(np.linalg.inv(s.inverse)), rel=1e-12)


class TestFactorNorm:
    @pytest.mark.parametrize("name", ["audit-file", "regular-highd"])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_follows_the_factor_on_perfbench_drift_streams(self, name, seed, tmp_path):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        w = workloads.WORKLOADS[name]
        for pts in workloads.make_inputs(w, seed, tmp_path).streams:
            assert_factor_norm_recurrence(online_states(pts))

    @pytest.mark.parametrize("factor", [1e154, 1e300, 2.0 ** 600, 2.0 ** -600, 1e-170, 1e-200])
    def test_past_the_range_of_squares(self, factor):
        pts = np.random.default_rng(5).standard_normal((400, 5))
        assert_factor_norm_recurrence(online_states(pts * factor))

    def test_a_regular_point_at_rho_1e200(self):
        # on a line, so that the step builds no collapsed body; a^2 and
        # |T'|_F^2 both overflow
        u = np.array([0.6, 0.0, -0.8])
        pts = 1.0 + np.outer([0.0, 1.0, -0.5, 1e200, 0.3, -1e200], u)
        states, kinds = [], []

        def observer(t, s):
            states.append(s.state)
            kinds.append(s.kind)

        state, _ = run_fully_online(pts, on_step=observer)
        assert kinds == ["init", "irregular", "regular", "regular", "regular"]
        jump = states[3]
        assert jump.factor_norm > 1e199 and jump.span_scale > 1e199
        assert_factor_norm_recurrence(states)
        assert max_membership(state.ellipsoid, pts) <= 1e-9


class TestLeadingSkips:
    """Every row leading_skips passes is a skip of the scalar kernel."""

    @staticmethod
    def assert_passes_only(state, rows, scalar_skip, limit=1.0):
        assert scalar_skip.any() and not scalar_skip.all()
        for m in (1, 8, 256):
            for i in range(len(rows)):
                j = leading_skips(state, rows[i:i + m], limit)
                assert scalar_skip[i:i + j].all()

    @pytest.mark.parametrize("d", [3, 16])
    def test_rows_at_rho_one(self, d):
        rng = np.random.default_rng(43)
        state = run_fully_online(rng.standard_normal((200, d)) * rng.uniform(0.5, 3.0, d))[0]
        rows = at_rho(state, 1.0 + EPS * rng.integers(-3, 4, 400), rng)
        scalar_skip = np.array([step(state, z).kind == "skip" for z in rows])
        self.assert_passes_only(state, rows, scalar_skip)

    def test_rows_at_the_drop_limit(self):
        # rows about rho*, where the scalar keep-rule decides, and about the
        # scan's limit below it, which the scan decides
        rng = np.random.default_rng(44)
        trace = run_coreset(rng.standard_normal((200, 4)))[0]
        limit = drop_limit(trace.driver)
        assert limit > 1.0
        rhos = np.concatenate([rho * (1.0 + rng.uniform(-3e-8, 1e-8, 300))
                               for rho in (exact_drop_limit(trace.driver), limit)])
        rows = at_rho(trace.driver, rhos, rng)
        scalar_skip = np.array([coreset_step(trace.driver, z).kind == "skip" for z in rows])
        self.assert_passes_only(trace.driver, rows, scalar_skip, limit)


class TestErrorOrdering:
    @pytest.mark.parametrize("d", [2, 6])
    def test_coreset_collapse_at_the_scalar_step(self, d):
        # near the collapse guard a dropped point's tentative body may
        # collapse; the scalar fold raises there, so the batched run must too
        pts = one_axis_growth(d)
        with pytest.raises(NumericalLimitError) as ref:
            reference_coreset(pts)
        with pytest.raises(NumericalLimitError) as info:
            run_coreset(pts)
        assert (info.value.t, info.value.ratio) == (ref.value.t, ref.value.ratio)

    @pytest.mark.parametrize("given", [np.asarray, as_list, as_generator])
    def test_nan_mid_block_after_the_rows_before_it(self, given):
        pts = np.random.default_rng(42).standard_normal((300, 3))
        pts[137, 1] = np.nan
        seen = []
        with pytest.raises(ValueError, match="non-finite point at index 138"):
            run_fully_online(given(pts), on_step=lambda t, *_: seen.append(t))
        _, clean = run_fully_online(pts[:137])
        assert seen == [r.t for r in clean.records if r.step_kind != "skip"]
        with pytest.raises(ValueError, match="index 138"):
            run_seeded(given(pts), np.zeros(3), 0.5)
        with pytest.raises(ValueError, match="index 138"):
            run_coreset(given(pts))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("given", [np.asarray, as_list, as_generator])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_non_finite_row_named_in_each_driver(self, phase, given, bad):
        # phase 1: every row inside the seeded gate; phase 2: the gate is
        # passed at t = 2. The drivers fold the kernel without step's own
        # check, so chunks alone must name the row
        rng = np.random.default_rng(70)
        pts = 0.05 * rng.standard_normal((400, 3))
        if phase == 2:
            pts[1:] *= 400.0
        pts[299, 0] = bad
        drivers = (run_fully_online, run_coreset, lambda p: run_seeded(p, np.zeros(3), 0.5))
        for run in drivers:
            with pytest.raises(ValueError, match="^non-finite point at index 300$"):
                run(given(pts))
        _, report = run_seeded(pts[:299], np.zeros(3), 0.5)
        kinds = {r.step_kind for r in report.records}
        assert kinds <= {"skip", "local"} if phase == 1 else "regular" in kinds

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_the_public_kernels_refuse_a_non_finite_point(self, bad):
        st0 = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(2), 1.0), alpha=0.5)
        for kernel in (step, coreset_step):
            with pytest.raises(update_rule.UpdateError, match="non-finite"):
                kernel(st0, np.array([bad, 0.0]))

    def test_the_drivers_check_each_row_once(self, tmp_path):
        # chunks checks every row; the folds skip step's second check
        code, calls = update_rule._finite_point.__code__, []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(1)

        g = np.random.default_rng(71).standard_normal((300, 4))
        path = tmp_path / "pts.csv"
        np.savetxt(path, g, fmt="%.17g", delimiter=",")
        old = sys.getprofile()
        sys.setprofile(count)
        try:
            run_fully_online(g)
            run_seeded(g, np.zeros(4), 0.1)
            run_coreset(list(g))
            assert cli.run(cli.RunConfig(mode="verify", input_path=str(path),
                                         out=str(tmp_path / "out"))) == 0
        finally:
            sys.setprofile(old)
        assert not calls

    @pytest.mark.parametrize("rows, index", [
        (lambda: [np.zeros(3), np.ones(2)], 2),
        (lambda: iter([*np.random.default_rng(7).standard_normal((300, 3)), np.ones(2)]), 301),
    ], ids=["list", "iterator"])
    def test_ragged_rows_named_by_index(self, rows, index):
        # numpy's own error on a ragged block names no row
        for run in (run_fully_online, run_coreset, lambda pts: run_seeded(pts, np.zeros(3), 0.5)):
            with pytest.raises(ValueError, match=rf"point of shape \(2,\) at index {index}, "
                                                 r"against points of shape \(3,\)"):
                run(rows())

    def test_rows_that_are_not_numbers_keep_numpys_error(self):
        # every row has one shape, so the block's ValueError is not a ragged row's
        for run in (run_fully_online, run_coreset, lambda pts: run_seeded(pts, np.zeros(3), 0.5)):
            with pytest.raises(ValueError, match="could not convert string to float"):
                run(iter(["1,2,3", "a,b,c"]))

    @pytest.mark.parametrize("driver", ["online", "seeded", "coreset"])
    def test_collapse_before_a_later_nan_still_wins(self, driver):
        run = {"online": run_fully_online,
               "seeded": lambda pts: run_seeded(pts, np.zeros(3), 0.5),
               "coreset": run_coreset}[driver]
        pts = one_axis_growth(3)
        with pytest.raises(NumericalLimitError) as info:
            run(pts)
        t = info.value.t
        for later in (t + 1, t + 300):
            bad = pts.copy()
            bad[later - 1, 2] = np.nan
            with pytest.raises(NumericalLimitError) as again:
                run(bad)
            assert again.value.t == t


class TestStepRecord:
    """Every Step a fold produces carries the kernel's split of (prev, z),
    the one a step certificate builds its frame from."""

    @staticmethod
    def folded_steps(module, run):
        """Every Step of the fold that `run()` calls through `module`: those
        its advance returns, and the init step, which fold makes itself."""
        steps, fold = [], streaming.fold

        def recording(stream, advance, state=None, on_step=None, **kwargs):
            def recorded(state, z):
                steps.append(advance(state, z))
                return steps[-1]

            def observed(t, s):
                if s.kind == "init":
                    steps.append(s)
                if on_step is not None:
                    on_step(t, s)

            return fold(stream, recorded, state, observed, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, "fold", recording)
            run()
        return steps

    @staticmethod
    def assert_split_of_prev(steps):
        for s in steps:
            if s.split is not None:
                ref = update_rule._split(s.prev, s.z)
                assert all(np.array_equal(a, b) for a, b in zip(s.split, ref))

    @pytest.mark.parametrize("g", [1e-14, 1e-12, 1e-10])
    def test_near_duplicate_axis_drop(self, g):
        # the streams of TestStep::test_near_duplicate_then_span_raise: the
        # raise at t=3 drops the near-duplicate's axis and splits z again
        # against the smaller body; the record keeps the split against prev
        rng = np.random.default_rng(5)
        e1, e2 = np.eye(3)[:2]
        dropped = 0
        for z0 in (np.zeros(3), np.array([1.0, 2.0, 3.0])):
            pts = np.vstack([z0, z0 + g * e1, z0 + e2, z0 + rng.standard_normal((50, 3))])
            steps = self.folded_steps(streaming, lambda: run_fully_online(pts))
            assert [s.kind for s in steps if s.split is None] == ["init"]
            dropped += sum(s.kind == "irregular" and s.state.dim <= s.prev.dim for s in steps)
            self.assert_split_of_prev(steps)
        assert dropped

    @pytest.mark.parametrize("near", [False, True])
    def test_seeded_across_the_gate(self, near):
        rng = np.random.default_rng(63)
        d, r0 = 3, 0.5
        gate = r0 * d * math.log(d)
        pts = near_gate(rng, d, r0) if near else np.vstack(
            [0.3 * rng.standard_normal((20, d)), 2.0 * rng.standard_normal((200, d))])
        steps = self.folded_steps(streaming, lambda: run_seeded(pts, np.zeros(d), r0))
        i = next(i for i, s in enumerate(steps) if np.linalg.norm(s.z) > gate)
        # phase I decides by the distance to c0 and makes no split
        assert i > 0 and all(s.split is None and s.kind in ("skip", "local") for s in steps[:i])
        trigger = steps[i]
        if near:
            # the grown ball covers the trigger: the growth is the step, and
            # the next step starts from the grown ball
            assert trigger.kind == "local" and trigger.split is None
            assert trigger.prev is steps[i - 1].state
            trigger = steps[i + 1]
        else:
            # the trigger steps from the grown ball, not from the phase-I state
            assert trigger.kind != "local" and trigger.prev is not steps[i - 1].state
        assert np.array_equal(trigger.prev.inverse, np.eye(d) / gate)
        assert all(s.split is not None for s in steps[i + 1:])
        self.assert_split_of_prev(steps)

    def test_coreset_dropped_regular_steps(self):
        pts = np.random.default_rng(64).standard_normal((400, 4))
        steps = self.folded_steps(coreset, lambda: run_coreset(pts))
        # a dropped regular step is a skip that keeps the state and its split
        dropped = [s for s in steps if s.kind == "skip" and step(s.prev, s.z).kind == "regular"]
        assert dropped and all(s.state is s.prev for s in dropped)
        assert [s.kind for s in steps if s.split is None] == ["init"]
        self.assert_split_of_prev(steps)


def kernel_streams():
    """Full-rank drift streams, a 3-plane in R^6, and a stream mapped to
    condition 1e6, whose cond_bound passes 1e6."""
    rng = np.random.default_rng(72)
    out = {}
    for d, n, rate in ((6, 600, 0.005), (16, 300, 0.002)):
        g = rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        out[f"drift{d}"] = g * np.exp(rate * np.arange(1, n + 1))[:, None]
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    out["plane3_in_6"] = rng.standard_normal((400, 3)) @ q[:, :3].T + 1.0
    out["mapped_c6"] = rng.standard_normal((600, 6)) @ (q * np.logspace(0, 6, 6)).T + 3.0
    return out


KERNEL_STREAMS = kernel_streams()
STATE_FIELDS = ("center", "basis", "inverse", "factor_norm", "alpha", "log_volume")


class TestFoldIsThePerPointKernel:
    """Each driver's fold, with its scans and its unchecked kernel, against
    the public step or coreset_step folded point by point."""

    @pytest.mark.parametrize("name", sorted(KERNEL_STREAMS))
    @pytest.mark.parametrize("driver", ["online", "seeded", "coreset"])
    def test_states_kinds_and_gammas(self, driver, name):
        pts = KERNEL_STREAMS[name]
        d = pts.shape[1]
        # the seeded gate at the median distance from c0 = 0: both phases run
        r0 = float(np.median(np.linalg.norm(pts, axis=1))) / (d * math.log(d))
        run = {"online": run_fully_online,
               "seeded": lambda p, **kw: run_seeded(p, np.zeros(d), r0, **kw),
               "coreset": run_coreset}[driver]
        reference = {"online": reference_online, "seeded": lambda p: reference_seeded(p, r0),
                     "coreset": reference_coreset}[driver]
        ref_state, ref_records, ref_selected = reference(pts)
        seen = []
        out, report = run(pts, on_step=lambda t, s: seen.append(s.state))
        state = out.driver if driver == "coreset" else out
        assert [tuple(r) for r in report.records] == ref_records
        for field in STATE_FIELDS:
            assert np.array_equal(getattr(state, field), getattr(ref_state, field)), field
        if driver == "coreset":
            assert (out.selected, out.reasons) == ref_selected
        kinds = {r[3] for r in ref_records}
        assert "regular" in kinds and "skip" in kinds
        if driver == "seeded":
            assert "local" in kinds
        elif name == "mapped_c6":
            assert max(s.cond_bound for s in seen) > 1e6
        if name == "plane3_in_6" and driver != "seeded":
            assert state.dim == 3
