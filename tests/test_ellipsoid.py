import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipstream.ellipsoid import (
    CONTAINMENT_TOL,
    ORTHO_TOL,
    SPAN_TOL,
    Ellipsoid,
    EllipsoidError,
    NumericalLimitError,
    _max_norm_over_ellipsoid,
    _norm,
    basis_split,
    containment_margin,
    log_volume,
    max_membership,
    membership,
    row_norms,
    safe_row_norms,
)
from ellipstream.streaming import run_fully_online


def random_ellipsoid(rng, d, k=None):
    k = d if k is None else k
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.sort(rng.uniform(0.2, 3.0, size=k))[::-1]
    return Ellipsoid(rng.standard_normal(d), q[:, :k], s)


class TestConstruction:
    def test_ball(self):
        e = Ellipsoid.ball(np.zeros(3), 2.0)
        assert e.rank == 3
        assert np.allclose(e.semiaxes, 2.0)

    def test_point_has_rank_zero(self):
        e = Ellipsoid.point(np.array([1.0, 2.0]))
        assert e.rank == 0
        assert log_volume(e) == 0.0

    def test_semiaxes_sorted_descending(self):
        e = Ellipsoid(np.zeros(2), np.eye(2), np.array([1.0, 3.0]))
        assert e.semiaxes[0] >= e.semiaxes[1]

    def test_nonpositive_semiaxis_rejected(self):
        with pytest.raises(EllipsoidError):
            Ellipsoid(np.zeros(2), np.eye(2), np.array([1.0, 0.0]))

    def test_collapsed_semiaxes_refused(self):
        with pytest.raises(NumericalLimitError) as info:
            Ellipsoid(np.zeros(2), np.eye(2), [1.0, 1e-11])
        assert info.value.ratio == pytest.approx(1e11)

    def test_skew_axes_rejected(self):
        axes = np.array([[1.0, 0.9], [0.0, 0.1]])
        with pytest.raises(EllipsoidError):
            Ellipsoid(np.zeros(2), axes, np.array([1.0, 1.0]))

    def test_equality_is_identity_and_bodies_hash(self):
        # numpy fields have no truth value, so == compares identity
        a, b = Ellipsoid.ball(np.zeros(2), 1.0), Ellipsoid.ball(np.zeros(2), 1.0)
        assert (a == b) is False and a == a
        assert len({a, b, a}) == 2 and hash(a) == hash(a)

    def test_scaled(self):
        e = Ellipsoid.ball(np.zeros(2), 1.0).scaled(3.0)
        assert np.allclose(e.semiaxes, 3.0)


class TestMembership:
    def test_center_is_deep_inside(self):
        e = Ellipsoid.ball(np.zeros(2), 1.0)
        assert membership(e, np.zeros(2)) == pytest.approx(-1.0)

    def test_boundary(self):
        e = Ellipsoid.ball(np.zeros(2), 2.0)
        assert membership(e, np.array([2.0, 0.0])) == pytest.approx(0.0, abs=1e-14)

    def test_anisotropic(self):
        e = Ellipsoid(np.zeros(2), np.eye(2), np.array([2.0, 1.0]))
        # (2, 1)/sqrt(2) sits at norm 1 in stretched coordinates
        x = np.array([2.0, 1.0]) / math.sqrt(2.0)
        assert membership(e, x) == pytest.approx(0.0, abs=1e-14)

    def test_off_span_is_infinite(self):
        e = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1.0]))
        assert membership(e, np.array([0.0, 0.0, 1.0])) == math.inf
        # a point holds only itself, however close the neighbour
        z0 = np.array([1.0, 2.0, 3.0])
        assert membership(Ellipsoid.point(z0), z0) == 0.0
        assert membership(Ellipsoid.point(z0), np.nextafter(z0, 4.0)) == math.inf

    def test_off_span_where_delta_passes_float64s_range(self):
        # |x - center| overflows though x and center are finite: the span test
        # reads the residual in units of max|delta| and finds it off the span
        e = run_fully_online(np.array([[0.0, 0.0], [1.7e308, 0.0]]))[0].ellipsoid
        assert e.rank == 1 and e.center[0] == pytest.approx(1.7e308 / 3.0)
        assert membership(e, np.array([1.7e308, 1.7e308])) == math.inf

    def test_in_span_point_of_degenerate_body(self):
        e = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1.0]))
        assert membership(e, np.array([0.5, 0.0, 0.0])) < 0

    def test_scalar_point_is_refused_not_broadcast(self):
        # 0.5 would otherwise score as (0.5, 0.5, 0.5)
        with pytest.raises(EllipsoidError, match=r"shape \(\) against a center of shape \(3,\)"):
            membership(Ellipsoid.ball(np.zeros(3), 1.0), 0.5)


class TestMaxMembership:
    """The batched max equals the per-point max bit for bit."""

    @pytest.mark.parametrize("d, k", [(3, 3), (6, 6), (16, 16), (4, 2)])
    def test_equals_scalar_max(self, d, k):
        rng = np.random.default_rng(50 + d + k)
        e = random_ellipsoid(rng, d, k)
        for _ in range(30):
            # a few rows on the boundary, so the top is decided in the last
            # bits, where the batched and the scalar rho differ
            rho = np.concatenate([rng.uniform(0.1, 1.0, 100), np.ones(4)])
            u = rng.standard_normal((len(rho), k))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            xs = e.center + (u * e.semiaxes * rho[:, None]) @ e.axes.T
            assert max_membership(e, xs) == max(membership(e, x) for x in xs)
        if k < d:
            off = xs[:5] + 1e-3 * np.linalg.svd(e.axes, full_matrices=True)[0][:, -1]
            assert max_membership(e, np.vstack([xs, off])) == math.inf

    def test_rank_zero(self):
        z = np.array([1.0, 2.0, 3.0])
        e = Ellipsoid.point(z)
        assert max_membership(e, np.array([z, z])) == 0.0
        assert max_membership(e, np.array([z, np.nextafter(z, 4.0)])) == math.inf

    def test_rows_of_another_width_are_refused_not_broadcast(self):
        with pytest.raises(EllipsoidError,
                           match=r"rows of shape \(4, 1\) against a center of shape \(3,\)"):
            max_membership(Ellipsoid.ball(np.zeros(3), 1.0), np.full((4, 1), 2.0))


@pytest.mark.parametrize("make, message", [
    (lambda: Ellipsoid(np.zeros(3), np.eye(2), np.ones(2)), "axes must be d x k"),
    (lambda: Ellipsoid(np.zeros(2), np.eye(2), np.ones(3)), "one semiaxis length per axis"),
    (lambda: Ellipsoid(np.array([0.0, np.nan]), np.eye(2), np.ones(2)), "non-finite entries"),
    (lambda: containment_margin(Ellipsoid.ball(np.zeros(3), 1.0),
                                Ellipsoid.ball(np.zeros(2), 1.0)), "dimension mismatch"),
], ids=["axes", "semiaxes", "non-finite", "containment"])
def test_malformed_bodies_are_refused(make, message):
    with pytest.raises(EllipsoidError, match=message):
        make()


class TestVolumeAndSupport:
    def test_log_volume_is_sum_of_log_semiaxes(self):
        e = Ellipsoid(np.zeros(2), np.eye(2), np.array([3.0, 2.0]))
        assert log_volume(e) == pytest.approx(math.log(6.0))


class TestContainment:
    def test_concentric_balls(self):
        big = Ellipsoid.ball(np.zeros(3), 2.0)
        small = Ellipsoid.ball(np.zeros(3), 1.0)
        assert containment_margin(big, small) <= CONTAINMENT_TOL
        assert not containment_margin(small, big) <= CONTAINMENT_TOL

    def test_margin_value_concentric(self):
        big = Ellipsoid.ball(np.zeros(2), 2.0)
        small = Ellipsoid.ball(np.zeros(2), 1.0)
        # farthest point of the inner ball reaches half the outer radius
        assert containment_margin(big, small) == pytest.approx(-0.5, abs=1e-9)

    def test_shifted_touching(self):
        big = Ellipsoid.ball(np.zeros(2), 2.0)
        small = Ellipsoid.ball(np.array([1.0, 0.0]), 1.0)
        assert containment_margin(big, small) == pytest.approx(0.0, abs=1e-9)

    def test_rotated_anisotropic(self):
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        inner = Ellipsoid(np.zeros(2), rot, np.array([1.5, 0.5]))
        outer = Ellipsoid.ball(np.zeros(2), 1.5)
        assert containment_margin(outer, inner) == pytest.approx(0.0, abs=1e-9)

    def test_span_mismatch(self):
        outer = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1.0]))
        inner = Ellipsoid.ball(np.zeros(3), 0.5)
        assert containment_margin(outer, inner) == math.inf

    def test_rank_drop_within_tolerance(self):
        # an inner body of higher rank whose extra axis lies within
        # CONTAINMENT_TOL of the outer span is measured, not rejected
        outer = Ellipsoid(np.zeros(3), np.eye(3)[:, :1], np.array([2.0]))
        inner = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1e-9]))
        assert containment_margin(outer, inner) == pytest.approx(-0.5, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_shrunken_copy_always_inside(self, seed, d):
        rng = np.random.default_rng(seed)
        e = random_ellipsoid(rng, d)
        shrunk = Ellipsoid(e.center, e.axes, e.semiaxes * 0.9)
        assert containment_margin(e, shrunk) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_margin_agrees_with_boundary_sampling(self, seed, d):
        rng = np.random.default_rng(seed)
        outer = random_ellipsoid(rng, d)
        inner = random_ellipsoid(rng, d)
        margin = containment_margin(outer, inner)
        dirs = rng.standard_normal((200, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = inner.center[None, :] + \
            (dirs * inner.semiaxes[None, :]) @ inner.axes.T
        sampled = max(membership(outer, p) for p in pts)
        # the secular-equation margin never underestimates sampling
        assert margin >= sampled - 1e-9


def reference_reach(c, m, n_dirs=20000, n_starts=8, n_iter=3000):
    """max |c + m s| over |s| <= 1 without the secular equation: the best
    of n_dirs sampled support values u.c + |m.T u|, refined by projected
    ascent s <- m.T (c + m s) / |.| from the n_starts best samples."""
    rng = np.random.default_rng(1)
    u = rng.standard_normal((n_dirs, m.shape[0]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    mu = u @ m
    sampled = u @ c + np.linalg.norm(mu, axis=1)
    best = np.argsort(sampled)[-n_starts:]
    s = mu[best] / np.linalg.norm(mu[best], axis=1, keepdims=True)
    for _ in range(n_iter):
        s = (c + s @ m.T) @ m
        s /= np.linalg.norm(s, axis=1, keepdims=True)
    return max(sampled.max(), np.linalg.norm(c + s @ m.T, axis=1).max())


def normalized(outer, inner):
    """inner's center and semiaxis matrix where outer is the unit ball."""
    inv_s = 1.0 / outer.semiaxes
    c = inv_s * (outer.axes.T @ (inner.center - outer.center))
    m = inv_s[:, None] * (outer.axes.T @ inner.axes) * inner.semiaxes
    return c, m


def frame(seed, d):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]


class TestExactSearch:
    """The secular-equation search against the sampled-and-ascended
    reference, on the bodies of revolution the update rule builds."""

    def assert_matches_reference(self, c, m):
        ref = reference_reach(c, m)
        assert abs(_max_norm_over_ellipsoid(c, m) - ref) <= 1e-12 * max(1.0, ref)
        return ref

    # m = q diag(1, 1, 0.5) repeats its top semiaxis on q's first two
    # columns; c's coordinates in q give the forcing along each
    @pytest.mark.parametrize("c_q", [
        (0.0, 0.0, 0.3), (0.0, 0.0, 1.2),
        (1e-16, 3e-17, 0.02), (1e-16, 0.0, 1e-3), (0.4, 0.0, 0.3),
    ], ids=["hard", "hard-wide", "near-hard", "near-hard-small", "easy"])
    def test_repeated_top_semiaxis(self, c_q):
        q = frame(3, 3)
        self.assert_matches_reference(q @ np.array(c_q), q @ np.diag([1.0, 1.0, 0.5]))

    def test_off_center_body_of_revolution(self):
        q = frame(4, 4)
        outer = Ellipsoid(np.zeros(4), q, np.array([2.0, 2.0, 2.0, 1.0]))
        inner = Ellipsoid(q @ np.array([0.1, 0.0, 0.0, 0.2]), frame(5, 4),
                          np.array([1.5, 1.5, 0.7, 0.7]))
        ref = self.assert_matches_reference(*normalized(outer, inner))
        assert containment_margin(outer, inner) == pytest.approx(
            ref - 1.0, abs=1e-12 * max(1.0, ref))

    def test_outer_pairs_of_a_drift_stream(self):
        # the previous outer body inside the next, as the step certificate
        # asks on a drifting d=6 stream: the top semiaxis repeats and the
        # forcing along it is a few ulps
        rng = np.random.default_rng(11)
        g = rng.standard_normal((150, 6))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts = g * np.exp(0.005 * np.arange(1, 151))[:, None]
        pairs = []

        def keep(t, step):
            if step.kind in ("regular", "irregular"):
                pairs.append((step.prev.ellipsoid, step.state.ellipsoid))

        run_fully_online(pts, on_step=keep)
        assert len(pairs) > 60
        for prev, next_ in pairs[::4]:
            ref = self.assert_matches_reference(*normalized(next_, prev))
            assert containment_margin(next_, prev) == pytest.approx(
                ref - 1.0, abs=1e-12 * max(1.0, ref))


class TestFullRankSplit:
    """basis_split returns at once at k = d. Its premise: for a square basis
    with |B^T B - I|_F <= ORTHO_TOL, as Ellipsoid enforces, the residual
    delta - B B^T delta never passes SPAN_TOL |delta|, at any scale."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 32), st.floats(0.0, 1.0),
           st.floats(-18.0, -6.0), st.floats(-150.0, 150.0))
    def test_residual_stays_below_the_span_threshold(self, seed, d, sym, log_rot, log_delta):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        # B = Q (I + S + A): S symmetric moves B^T B - I to first order, A
        # antisymmetric only to second
        s = rng.standard_normal((d, d))
        s = sym * 0.49 * ORTHO_TOL * (s + s.T) / max(np.linalg.norm(s + s.T), 1e-300)
        a = rng.standard_normal((d, d))
        a = 10.0 ** log_rot * (a - a.T) / max(np.linalg.norm(a - a.T), 1e-300)
        basis = q @ (np.eye(d) + s + a)
        assert np.linalg.norm(basis.T @ basis - np.eye(d)) <= ORTHO_TOL
        delta = rng.standard_normal(d) * 10.0 ** log_delta
        residual = delta - basis @ (basis.T @ delta)
        assert _norm(residual) <= SPAN_TOL * _norm(delta)
        center = rng.standard_normal(d)
        split = basis_split(center, basis, 1.0, center + delta)
        assert not split.off and split.rnorm == 0.0 and not split.residual.any()
        assert np.array_equal(split.coeffs, basis.T @ (center + delta - center))


@pytest.mark.parametrize("log2_scale", [-515, -530, -535, -600])
def test_norms_whose_sums_of_squares_are_subnormal(log2_scale):
    # a sum of squares below the smallest normal float keeps few significant
    # bits, or none once it underflows to 0; both norms rescale it, and
    # match the unscaled norms scaled by the power of two
    rows = np.random.default_rng(7).standard_normal((6, 5))
    scale = 2.0 ** log2_scale
    expected = row_norms(rows) * scale
    assert np.allclose(safe_row_norms(rows * scale), expected, rtol=4 * np.finfo(float).eps, atol=0)
    for row, norm in zip(rows * scale, expected):
        assert _norm(row) == pytest.approx(norm, rel=4 * np.finfo(float).eps)


def test_norm_past_float64s_range_is_inf():
    # the rescaled product m |v/m| overflows as a Python float, with no warning
    assert _norm(np.array([1.7e308, 1.7e308])) == math.inf
    assert _norm(np.array([1e308, 1e-300])) == 1e308


def test_norm_of_an_infinite_entry_is_inf():
    # the rescaling by max|v| would divide inf by inf
    assert _norm(np.array([[math.inf]])) == math.inf
    assert _norm(np.array([1.0, -math.inf, 2.0])) == math.inf
