import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipstream import update_rule
from ellipstream.ellipsoid import (SPAN_RES, Ellipsoid, EllipsoidError, NumericalLimitError,
                                  log_volume, membership, span_scale, span_split)
from ellipstream.oracle import check_monotone_step
from ellipstream.update_rule import (
    RoundingState,
    UpdateError,
    compute_params,
    full_update_detailed,
    irregular_update,
    is_off_span,
    solve_gamma,
    step,
)

alphas = st.floats(1e-3, 0.5)
gammas = st.floats(0.0, 5.0)


class TestComputeParams:
    def test_identity_at_gamma_zero(self):
        p = compute_params(0.0, 0.3)
        assert p.a == 1.0
        assert p.alpha_next == pytest.approx(0.3)
        assert p.b == pytest.approx(1.0)
        assert p.c == pytest.approx(0.0)

    @settings(max_examples=200, deadline=None)
    @given(gammas, alphas)
    def test_harmonic_alpha_rule(self, gamma, alpha):
        p = compute_params(gamma, alpha)
        assert 1.0 / p.alpha_next == pytest.approx(1.0 / alpha + 2.0 * gamma,
                                                   rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(gammas, alphas)
    def test_scalar_signs(self, gamma, alpha):
        p = compute_params(gamma, alpha)
        assert p.a >= 1.0
        assert p.b >= 1.0
        assert p.c >= -1e-15
        # the inner body keeps its reach toward the new point
        assert p.c + p.alpha_next * p.a >= alpha - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(gammas, alphas)
    def test_pad_below_stretch(self, gamma, alpha):
        p = compute_params(gamma, alpha)
        assert p.b <= p.a + 1e-12
        assert p.b <= 1.0 + gamma / 4.0 + 1e-12

    def test_alpha_out_of_range(self):
        with pytest.raises(UpdateError):
            compute_params(1.0, 0.75)
        with pytest.raises(UpdateError):
            compute_params(-0.1, 0.25)


class TestSolveGamma:
    def test_frozen_value(self):
        # Newton's output for rho=2, alpha=1/2; pinned to catch solver drift.
        # The root is 0.65186008517955708 (40-digit arithmetic), and a + c
        # at the pinned value lies in the solver's window above it
        assert solve_gamma(2.0, 0.5) == pytest.approx(0.6518600851835027,
                                                      abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1.0 + 1e-6, 50.0), alphas)
    def test_residual_window(self, rho, alpha):
        g = solve_gamma(rho, alpha)
        p = compute_params(g, alpha)
        reach = p.a + p.c
        assert rho <= reach <= rho * (1.0 + 1e-8)

    def test_rho_must_exceed_one(self):
        with pytest.raises(UpdateError):
            solve_gamma(1.0, 0.5)

    def test_no_iterations_do_not_converge(self, monkeypatch):
        # a + c at the bracket's top end lies outside even the fallback window
        monkeypatch.setattr(update_rule, "GAMMA_MAX_ITER", 0)
        with pytest.raises(UpdateError, match="gamma solve did not converge"):
            solve_gamma(2.0, 0.5)


class TestFullUpdate:
    def unit_state(self, d=2, alpha=0.5):
        return RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(d), 1.0), alpha=alpha)

    def test_interior_point_is_skipped(self):
        st0 = self.unit_state()
        nxt, params = full_update_detailed(st0, np.array([0.3, 0.1]))
        assert params is None
        assert nxt is st0

    def test_frozen_axis_point(self):
        # unit ball, alpha=1/2, z=(2,0): the stretch axis becomes a, the
        # orthogonal axis b, and the center moves by c along the axis
        nxt, p = full_update_detailed(self.unit_state(), np.array([2.0, 0.0]))
        assert p.gamma == pytest.approx(0.6518600851835027, abs=1e-12)
        assert np.sort(nxt.ellipsoid.semiaxes) == pytest.approx(
            [1.0986554628673482, 1.9191072139899827], abs=1e-12)
        assert nxt.center == pytest.approx([0.08089278601849381, 0.0], abs=1e-12)
        assert nxt.alpha_inv == pytest.approx(3.303720170367005, abs=1e-12)

    def test_new_point_is_covered(self):
        rng = np.random.default_rng(10)
        st0 = self.unit_state(4)
        for _ in range(30):
            z = rng.standard_normal(4) * 3.0
            st0, _ = full_update_detailed(st0, z)
            assert membership(st0.ellipsoid, z) <= 1e-9

    def test_volume_growth_matches_gamma(self):
        st0 = self.unit_state(3)
        z = np.array([0.0, 2.5, 0.0])
        nxt, p = full_update_detailed(st0, z)
        dv = log_volume(nxt.ellipsoid) - log_volume(st0.ellipsoid)
        assert dv == pytest.approx(p.gamma + 2 * math.log(p.b), rel=1e-10)
        assert dv >= p.gamma - 1e-12

    def test_alpha_bookkeeping(self):
        nxt, p = full_update_detailed(self.unit_state(), np.array([0.0, 3.0]))
        assert 1.0 / nxt.alpha - 2.0 == pytest.approx(2.0 * p.gamma, rel=1e-12)

    def test_alpha_precondition(self):
        bad = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(2), 1.0), alpha=0.9)
        with pytest.raises(UpdateError, match="alpha"):
            full_update_detailed(bad, np.array([3.0, 0.0]))

    def test_off_span_point_rejected(self):
        body = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1.0]))
        st0 = RoundingState.from_ellipsoid(body, alpha=0.5)
        with pytest.raises(UpdateError, match="irregular"):
            full_update_detailed(st0, np.array([0.0, 0.0, 2.0]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_monotone_quantities(self, seed, d):
        rng = np.random.default_rng(seed)
        st0 = self.unit_state(d, alpha=float(rng.uniform(0.05, 0.5)))
        z = rng.standard_normal(d) * float(rng.uniform(0.5, 5.0))
        nxt, p = full_update_detailed(st0, z)
        assert log_volume(nxt.ellipsoid) >= log_volume(st0.ellipsoid) - 1e-12
        assert nxt.alpha <= st0.alpha + 1e-15


class TestIrregularUpdate:
    def test_rank_zero_to_segment(self):
        st0 = RoundingState.from_ellipsoid(Ellipsoid.point(np.array([1.0, 1.0])), alpha=1.0)
        nxt = irregular_update(st0, np.array([4.0, 1.0]))
        # hand-checkable: the outer segment spans [-1, 5] x {1}
        assert nxt.center == pytest.approx([2.0, 1.0])
        assert nxt.ellipsoid.semiaxes == pytest.approx([2.0])
        assert nxt.alpha == pytest.approx(0.5)
        assert membership(nxt.ellipsoid, np.array([4.0, 1.0])) <= 1e-12
        assert membership(nxt.ellipsoid, np.array([1.0, 1.0])) <= 1e-12

    def test_canonical_configuration(self):
        # span = first coordinate plane, z placed exactly at the critical
        # height sqrt(1+2*alpha) above the center
        alpha = 0.25
        body = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1.0]))
        st0 = RoundingState.from_ellipsoid(body, alpha=alpha)
        z = np.array([0.0, 0.0, math.sqrt(1.0 + 2.0 * alpha)])
        nxt = irregular_update(st0, z)
        root = math.sqrt(1.0 + 2.0 * alpha)
        assert np.allclose(nxt.ellipsoid.semiaxes, (1.0 + alpha) / root,
                           atol=1e-12)
        assert np.linalg.norm(nxt.center) == pytest.approx(alpha / root,
                                                           abs=1e-12)
        assert 1.0 / nxt.alpha - 1.0 / alpha == pytest.approx(1.0, abs=1e-12)

    def test_new_point_and_old_body_covered(self):
        rng = np.random.default_rng(12)
        body = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([2.0, 0.7]))
        st0 = RoundingState.from_ellipsoid(body, alpha=0.4)
        z = np.array([0.5, -0.3, 1.8])
        nxt = irregular_update(st0, z)
        assert membership(nxt.ellipsoid, z) <= 1e-10
        for _ in range(100):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            p = body.center + (body.axes * body.semiaxes) @ u
            assert membership(nxt.ellipsoid, p) <= 1e-9

    def test_in_span_point_rejected(self):
        st0 = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(2), 1.0), alpha=0.5)
        with pytest.raises(UpdateError, match="regular"):
            irregular_update(st0, np.array([2.0, 0.0]))


def test_is_off_span():
    body = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1.0]))
    st0 = RoundingState.from_ellipsoid(body, alpha=0.5)
    assert is_off_span(st0, np.array([0.0, 0.0, 1.0]))
    assert not is_off_span(st0, np.array([5.0, 5.0, 0.0]))


class TestStep:
    def mixed_stream(self):
        # rank-0 start with a coincident point, a span raise into a plane,
        # covered and uncovered points in that plane, then full-dimensional
        # gaussians that mix span raises, regular steps and skips
        rng = np.random.default_rng(13)
        plane = [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]),
                 np.array([0.1, 0.1, 0.0, 0.0]), np.array([3.0, -2.0, 0.0, 0.0])]
        head = [np.zeros(4), np.zeros(4)] + plane
        return head + list(rng.standard_normal((40, 4)) * 2.0)

    def test_matches_checked_wrappers_bit_for_bit(self):
        stream = self.mixed_stream()
        state = RoundingState.from_ellipsoid(Ellipsoid.point(stream[0]), alpha=1.0)
        kinds = []
        for z in stream[1:]:
            s = step(state, z)
            nxt, kind = s.state, s.kind
            params = compute_params(s.gamma, state.alpha) if kind == "regular" else None
            if is_off_span(state, z):
                ref, ref_kind, ref_params = irregular_update(state, z), "irregular", None
            elif state.dim == 0:
                ref, ref_kind, ref_params = state, "skip", None
            else:
                ref, ref_params = full_update_detailed(state, z)
                ref_kind = "skip" if ref_params is None else "regular"
            assert kind == ref_kind
            assert params == ref_params
            if kind == "skip":
                assert nxt is state
            for attr in ("center", "axes", "semiaxes"):
                assert np.array_equal(getattr(nxt.ellipsoid, attr),
                                      getattr(ref.ellipsoid, attr))
            assert nxt.alpha == ref.alpha
            kinds.append(kind)
            state = nxt
        assert {"skip", "regular", "irregular"} <= set(kinds)
        assert kinds[0] == "skip"  # the coincident point at rank 0

    def test_rank_zero_threshold(self):
        # a point has no scale of its own: only the rounding of the
        # coordinates, SPAN_RES * |z0|, separates a duplicate from a first
        # step, at every magnitude and offset
        e1 = np.array([1.0, 0.0, 0.0])
        z = np.array([1.0, 2.0, 3.0])
        for z0 in (z, 1e-9 * z, z + 1e8):
            st0 = RoundingState.from_ellipsoid(Ellipsoid.point(z0), alpha=1.0)
            tol = SPAN_RES * np.linalg.norm(z0)
            s = step(st0, z0 + 0.5 * tol * e1)
            assert s.kind == "skip" and s.gamma == 0.0
            assert s.state is st0
            s = step(st0, z0 + 2.0 * tol * e1)
            assert s.kind == "irregular" and s.gamma == 0.0
            assert s.state.dim == 1

    @pytest.mark.parametrize("g", [1e-14, 1e-12, 1e-10])
    def test_near_duplicate_then_span_raise(self, g):
        # a near-duplicate leaves a segment of length ~g; the next raise, at
        # unit scale, drops that axis instead of collapsing the new body,
        # and the step certificate accepts the drop
        rng = np.random.default_rng(5)
        e1, e2 = np.eye(3)[:2]
        for z0 in (np.zeros(3), np.array([1.0, 2.0, 3.0])):
            pts = [z0, z0 + g * e1, z0 + e2] + list(z0 + rng.standard_normal((50, 3)))
            state = RoundingState.from_ellipsoid(Ellipsoid.point(z0), alpha=1.0)
            for t, z in enumerate(pts[1:], start=2):
                s = step(state, z)
                state = s.state
                if t == 3:
                    assert state.dim == 1
                    cert = check_monotone_step(s)
                    assert cert.outer_ok and cert.inner_ok
            assert state.dim == 3
            assert max(membership(state.ellipsoid, p) for p in pts) <= 1e-7

    def test_span_decision_makes_no_svd(self, monkeypatch):
        # the span test reads the span scale |factor|_F / k^(1/4), 3^(1/4)
        # here, so a residual of 5e-9 at |delta| = 0.1 is in the span,
        # decided without the factor's SVD
        body = Ellipsoid(np.zeros(4), np.eye(4)[:, :3], np.ones(3))
        st0 = RoundingState.from_ellipsoid(body, alpha=0.5)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        s = step(st0, np.array([0.1, 0.0, 0.0, 5e-9]))
        assert s.kind == "skip" and s.state is st0

    def test_span_scale_survives_an_overflowing_sum_of_squares(self):
        # sum s_i^2 = 4e308 overflows while s_max = 1e154 does not; at the
        # true scale a residual of 1e150 is off the span
        body = Ellipsoid(np.zeros(5), np.eye(5)[:, :4], np.full(4, 1e154))
        x = np.array([1e150, 0.0, 0.0, 0.0, 1e150])
        assert span_split(body, x).off
        st0 = RoundingState.from_ellipsoid(body, alpha=0.5)
        assert st0.span_scale == pytest.approx(span_scale(body.semiaxes, 4))
        assert step(st0, x).kind == "irregular"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_rho_is_a_numerical_limit(self):
        # rho = |y| overflows to inf; stepping on would build a NaN center
        st0 = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(2), 1.0), alpha=0.5)
        with pytest.raises(NumericalLimitError) as info:
            step(st0, np.array([1e200, 1e200]))
        assert info.value.ratio == math.inf and info.value.t is None

    def test_non_finite_point_rejected(self):
        st0 = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(2), 1.0), alpha=0.5)
        with pytest.raises(UpdateError, match="non-finite"):
            step(st0, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("z", [3.0, np.array([3.0])], ids=["scalar", "length-1"])
    def test_point_of_another_dimension_is_refused_not_broadcast(self, z):
        # either would otherwise step toward (3, 3, 3)
        st0 = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(3), 1.0), alpha=0.5)
        with pytest.raises(EllipsoidError, match=r"against a center of shape \(3,\)"):
            step(st0, z)
