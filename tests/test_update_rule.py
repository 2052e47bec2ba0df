import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipstream import update_rule
from ellipstream.ellipsoid import (RANK_COLLAPSE_RATIO, SPAN_RES, Ellipsoid, EllipsoidError,
                                  NumericalLimitError, _norm, log_volume, membership,
                                  span_scale, span_split)
from ellipstream.oracle import check_monotone_step
from ellipstream.update_rule import RoundingState, UpdateError, compute_params, solve_gamma, step

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

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, 710.0])
    def test_non_finite_gamma_refused(self, gamma):
        # a = e^inf would give c = -alpha + 0 * inf = nan; e^710 overflows,
        # where math.exp raised OverflowError, which is no ValueError
        with pytest.raises(UpdateError, match="gamma must be finite"):
            compute_params(gamma, 0.5)


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

    @pytest.mark.parametrize("rho", [math.inf, math.nan, 1e308])
    def test_non_finite_rho_refused(self, rho):
        # the bracket's top end log(inf) + 1 would be returned as gamma, and
        # e^(log(1e308) + 1) overflowed in math.exp
        with pytest.raises(UpdateError, match="rho must be finite"):
            solve_gamma(rho, 0.25)

    @pytest.mark.parametrize("alpha", [0.5, 1e-12])
    def test_largest_rho_solves_within_range(self, alpha):
        g = solve_gamma(update_rule.RHO_MAX, alpha)
        p = compute_params(g, alpha)
        assert update_rule.RHO_MAX <= p.a + p.c < math.inf

    def test_no_iterations_do_not_converge(self, monkeypatch):
        # a + c at the bracket's top end lies outside even the fallback window
        monkeypatch.setattr(update_rule, "GAMMA_MAX_ITER", 0)
        with pytest.raises(UpdateError, match="gamma solve did not converge"):
            solve_gamma(2.0, 0.5)

    @pytest.mark.parametrize("rho, alpha, bits", [
        (1.0 + 1e-15, 0.5, "0x1.557bbdcc20000p-34"),
        (1.0 + 1e-15, 1e-12, "0x1.58a068bf00000p-40"),
        (1.5, 0.25, "0x1.78e22c777118bp-2"),
        (2.0, 1e-12, "0x1.62e42fefa5362p-1"),
        (10.0, 0.5, "0x1.1a6d7882eb906p+1"),
        (1e6, 0.01, "0x1.b9d8b84b722bcp+3"),
        (1e300, 0.5, "0x1.59632cd29d802p+9"),
        (1e300, 1e-12, "0x1.5963447f87fb7p+9"),
    ])
    def test_pinned_bits(self, rho, alpha, bits):
        # the Newton slope carried from _a_plus_c's pair, not re-derived, steps the same floats
        assert solve_gamma(rho, alpha).hex() == bits

    @pytest.mark.parametrize("rho, alpha", [(2.0, 0.25), (1.0 + 1e-6, 0.5), (1e12, 1e-3)])
    def test_rounding_below_rho_falls_back_to_bisection(self, rho, alpha, monkeypatch):
        # half Newton steps (a doubled slope) pass through every residual decade; the first
        # iterate whose a + c is 1e-10 to 1e-8 relative above rho reads just below it, as
        # rounding might make it. Bisection then never meets GAMMA_REL_RESIDUAL, and the
        # fallback window accepts the upper end
        exact = update_rule._a_plus_c
        calls, faked = [], []

        def rounded(gamma, a):
            value, slope = exact(gamma, a)
            calls.append(gamma)
            if not faked and 1e-10 < value / rho - 1.0 <= 1e-8:
                faked.append(len(calls) - 1)
                value = math.nextafter(rho, 0.0)
            return value, 2.0 * slope

        monkeypatch.setattr(update_rule, "_a_plus_c", rounded)
        g = solve_gamma(rho, alpha)
        i = faked[0]
        assert calls[i + 1] == 0.5 * (calls[i - 1] + calls[i])
        reach = exact(g, alpha)[0]
        assert rho * (1.0 + update_rule.GAMMA_REL_RESIDUAL) < reach
        assert reach <= rho * (1.0 + update_rule.GAMMA_FALLBACK_RESIDUAL)


class TestFullUpdate:
    def unit_state(self, d=2, alpha=0.5):
        return RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(d), 1.0), alpha=alpha)

    @staticmethod
    def regular(state, z):
        """`step`'s regular update from state to z: the next state and its scalars."""
        s = step(state, z)
        assert s.kind == "regular"
        return s.state, compute_params(s.gamma, state.alpha)

    def test_interior_point_is_skipped(self):
        st0 = self.unit_state()
        s = step(st0, np.array([0.3, 0.1]))
        assert s.kind == "skip"
        assert s.state is st0

    def test_frozen_axis_point(self):
        # unit ball, alpha=1/2, z=(2,0): the stretch axis becomes a, the
        # orthogonal axis b, and the center moves by c along the axis
        nxt, p = self.regular(self.unit_state(), np.array([2.0, 0.0]))
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
            s = step(st0, z)
            assert s.kind in ("skip", "regular")
            st0 = s.state
            assert membership(st0.ellipsoid, z) <= 1e-9

    def test_volume_growth_matches_gamma(self):
        st0 = self.unit_state(3)
        z = np.array([0.0, 2.5, 0.0])
        nxt, p = self.regular(st0, z)
        dv = log_volume(nxt.ellipsoid) - log_volume(st0.ellipsoid)
        assert dv == pytest.approx(p.gamma + 2 * math.log(p.b), rel=1e-10)
        assert dv >= p.gamma - 1e-12

    def test_alpha_bookkeeping(self):
        nxt, p = self.regular(self.unit_state(), np.array([0.0, 3.0]))
        assert 1.0 / nxt.alpha - 2.0 == pytest.approx(2.0 * p.gamma, rel=1e-12)

    def test_alpha_precondition(self):
        bad = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(2), 1.0), alpha=0.9)
        with pytest.raises(UpdateError, match="alpha"):
            step(bad, np.array([3.0, 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_monotone_quantities(self, seed, d):
        rng = np.random.default_rng(seed)
        st0 = self.unit_state(d, alpha=float(rng.uniform(0.05, 0.5)))
        z = rng.standard_normal(d) * float(rng.uniform(0.5, 5.0))
        s = step(st0, z)
        assert s.kind in ("skip", "regular")
        nxt = s.state
        assert log_volume(nxt.ellipsoid) >= log_volume(st0.ellipsoid) - 1e-12
        assert nxt.alpha <= st0.alpha + 1e-15


class TestIrregularUpdate:
    @staticmethod
    def raised(state, z):
        """`step`'s span raise from state toward z: the next state."""
        s = step(state, z)
        assert s.kind == "irregular"
        return s.state

    def test_rank_zero_to_segment(self):
        st0 = RoundingState.from_ellipsoid(Ellipsoid.point(np.array([1.0, 1.0])), alpha=1.0)
        nxt = self.raised(st0, np.array([4.0, 1.0]))
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
        nxt = self.raised(st0, z)
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
        nxt = self.raised(st0, z)
        assert membership(nxt.ellipsoid, z) <= 1e-10
        for _ in range(100):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            p = body.center + (body.axes * body.semiaxes) @ u
            assert membership(nxt.ellipsoid, p) <= 1e-9

    def test_alpha_above_one_refused(self):
        # no driver builds such a state: only the raise's own guard refuses it
        segment = Ellipsoid(np.zeros(2), np.eye(2)[:, :1], np.array([1.0]))
        st0 = RoundingState.from_ellipsoid(segment, alpha=1.5)
        with pytest.raises(UpdateError, match=r"alpha must lie in \(0, 1\]"):
            step(st0, np.array([0.0, 3.0]))


class TestAmbientFullRank:
    """A full-rank state is kept in ambient coordinates, on the shared identity."""

    def test_from_a_rotated_full_rank_body(self):
        rng = np.random.default_rng(4)
        d = 5
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        body = Ellipsoid(rng.standard_normal(d), q, np.array([5.0, 3.0, 2.0, 1.0, 0.5]))
        st0 = RoundingState.from_ellipsoid(body, alpha=0.3)
        assert np.array_equal(st0.basis, np.eye(d)) and not st0.basis.flags.writeable
        assert st0.basis is RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(d), 1.0), 0.5).basis
        # the view is the body, its axes up to sign, within rounding
        view = st0.ellipsoid
        assert np.array_equal(view.center, body.center)
        assert view.semiaxes == pytest.approx(body.semiaxes, rel=1e-14)
        assert np.abs(view.axes.T @ body.axes) == pytest.approx(np.eye(d), abs=1e-14)
        for x in body.center + 3.0 * rng.standard_normal((20, d)):
            assert membership(view, x) == pytest.approx(membership(body, x), abs=1e-13)
        # below full rank, the body's axes are the basis
        flat = Ellipsoid(body.center, q[:, :3], body.semiaxes[:3])
        assert RoundingState.from_ellipsoid(flat, alpha=0.3).basis is flat.axes

    def test_step_refuses_a_full_rank_state_off_the_identity(self):
        # a rotated basis with a diagonal inverse, the convention before
        # ambient coordinates: the kernel would read the basis as I
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        s = np.array([3.0, 1.0, 0.2])
        z = q @ np.array([0.0, 0.0, 0.5])
        body = RoundingState.from_ellipsoid(Ellipsoid(np.zeros(3), q, s), alpha=0.5)
        assert step(body, z).kind == "regular"
        direct = RoundingState(np.zeros(3), q, np.diag(1.0 / s), _norm(s), 0.5,
                               float(np.log(s).sum()))
        with pytest.raises(UpdateError, match="RoundingState.from_ellipsoid"):
            step(direct, z)
        # an identity compares by value, shared or not
        own = RoundingState(np.zeros(3), np.eye(3), np.diag(1.0 / s), _norm(s), 0.5,
                            float(np.log(s).sum()))
        assert step(own, np.array([0.0, 0.0, 0.5])).kind == "regular"

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_a_raise_to_full_rank_is_framed_in_ambient_coordinates(self, d):
        rng = np.random.default_rng(d)
        pts = rng.standard_normal((d + 1, d))
        state = RoundingState.from_ellipsoid(Ellipsoid.point(pts[0]), alpha=1.0)
        for z in pts[1:d]:
            state = step(state, z).state
        z = pts[d]
        s = step(state, z)
        assert state.dim == d - 1 and s.kind == "irregular" and s.state.dim == d
        fr = update_rule.frame(state, s.split)
        assert fr.raised and fr.basis is s.state.basis
        assert np.array_equal(fr.basis, np.eye(d))
        # the bordered, sheared M of the raise, times [Q, v]^T
        k, split = d - 1, s.split
        root = math.sqrt(1.0 + 2.0 * state.alpha)
        bordered = np.zeros((d, d))
        bordered[:k, :k] = state.inverse
        bordered[:k, k] = state.inverse @ split.coeffs / -split.rnorm
        bordered[k, k] = root / split.rnorm
        qv = np.hstack([state.basis, (split.residual / split.rnorm)[:, None]])
        scale = np.abs(bordered).max()
        assert fr.shear == pytest.approx(bordered @ qv.T, abs=1e-14 * scale)
        # z lies at sqrt(1 + 2 alpha) on the new axis, and the raised
        # inverse is the frame's shear over the new radius
        assert fr.z == pytest.approx(np.eye(d)[k] * root, abs=1e-15)
        assert fr.shear @ (z - state.center) == pytest.approx(fr.z, abs=1e-12 * root)
        assert s.state.inverse == pytest.approx(fr.shear * root / (1.0 + state.alpha),
                                                rel=1e-15)


def test_is_off_span():
    body = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1.0]))
    st0 = RoundingState.from_ellipsoid(body, alpha=0.5)
    assert step(st0, np.array([0.0, 0.0, 1.0])).split.off
    assert not step(st0, np.array([5.0, 5.0, 0.0])).split.off


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
            # the dispatch spelled out: the split, then the raise or the regular step
            split = update_rule._split(state, z)
            if split.off:
                ref, ref_kind = update_rule._irregular(state, z, split), "irregular"
                ref_params = None
            else:
                ref, ref_params = update_rule._regular(state, split.coeffs)
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
        assert st0.span_scale == pytest.approx(span_scale(_norm(body.semiaxes), 4))
        assert step(st0, x).kind == "irregular"

    def test_overflowing_rho_is_a_numerical_limit(self):
        # rho = |y| overflows to inf, or its square does; stepping on would
        # build a NaN center. At rank 1 rho may not pass RHO_MAX, where the
        # gamma bracket overflows, and a raise toward a point at subnormal
        # distance has an infinite inverse. Each raises with no warning
        def walked(*pts):
            state = RoundingState.from_ellipsoid(Ellipsoid.point(np.array(pts[0])), alpha=1.0)
            for z in pts[1:]:
                state = step(state, np.array(z)).state
            return state

        ball = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(2), 1.0), alpha=0.5)
        cases = [(ball, [1e200, 1e200]),
                 (walked([0.0], [1.0]), [1.7e308]), (walked([0.0], [2.0]), [1e308]),
                 (walked([0.0, 0.0], [2.0, 0.0]), [1e308, 0.0]), (walked([0.0]), [1e-310])]
        for st0, z in cases:
            with pytest.raises(NumericalLimitError) as info:
                step(st0, np.array(z))
            assert info.value.ratio == math.inf and info.value.t is None
        # below RHO_MAX a rank-1 jump steps on
        s = step(walked([0.0], [2.0]), np.array([3e307]))
        assert s.kind == "regular" and s.state.alpha_inv == 1417.4076970016686

    def test_singular_inverse_is_a_numerical_limit(self):
        # at rho = 1e100, 1 - b/a rounds to 1: M' loses its row along w, LU
        # finds it singular, and the body's view names the collapse
        st0 = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(2), 1.0), alpha=0.5)
        with pytest.raises(NumericalLimitError) as info:
            step(st0, np.array([1e100, 0.0]))
        assert info.value.ratio > 1.0 / RANK_COLLAPSE_RATIO

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
