import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipstream.coreset import run_coreset
from ellipstream.ellipsoid import RANK_COLLAPSE_RATIO, NumericalLimitError, membership
from ellipstream.streaming import RunReport, StepRecord, run_fully_online, run_seeded


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
        pts = np.random.default_rng(22).standard_normal((30, 3))
        seen = []
        run_fully_online(pts, on_step=lambda t, p, n, z, k, g: seen.append(t))
        assert seen == list(range(1, 31))


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
        _, base = run_fully_online(pts)
        base_selected = run_coreset(pts)[0].selected
        # at an offset of 1e8 the coordinates keep only ~1e-8 of a unit
        # spread, and the trace agrees only to what that leaves
        for mapped, rel in ((pts @ a.T + b, 1e-9), (pts * 10.0 ** log_scale, 1e-9),
                            (pts + 1e8, 1e-4)):
            state, report = run_fully_online(mapped)
            assert [r.step_kind for r in report.records] == \
                [r.step_kind for r in base.records]
            for r, r0 in zip(report.records, base.records):
                assert 1.0 / r.alpha == pytest.approx(1.0 / r0.alpha, rel=rel)
            assert run_coreset(mapped)[0].selected == base_selected
            worst = max(membership(state.ellipsoid, p) for p in mapped)
            assert worst <= 1e-7


class TestSeeded:
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


class TestRunReport:
    def test_records_strictly_ordered(self):
        rep = RunReport()
        rep.append(StepRecord(1, 1.0, 0.0, "init", 0.0))
        with pytest.raises(ValueError):
            rep.append(StepRecord(1, 1.0, 0.0, "skip", 0.0))

    def test_gamma_sum_counts_only_regular(self):
        rep = RunReport()
        rep.append(StepRecord(1, 1.0, 0.0, "init", 0.0))
        rep.append(StepRecord(2, 0.5, 0.1, "regular", 0.3))
        rep.append(StepRecord(3, 0.4, 0.2, "irregular", 0.0))
        rep.append(StepRecord(4, 0.3, 0.4, "regular", 0.2))
        assert rep.regular_gamma_sum() == pytest.approx(0.5)
        assert rep.irregular_count() == 1
