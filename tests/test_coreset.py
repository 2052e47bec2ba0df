import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellipstream.coreset import TIE_TOL, VOLUME_JUMP_LOG, coreset_step, drop_limit, run_coreset
from ellipstream.ellipsoid import Ellipsoid, membership
from ellipstream.update_rule import RoundingState, compute_params

OUTER_FACTOR = 2.0 * math.e + 1.0


def test_first_point_always_selected():
    trace, report = run_coreset([np.array([1.0, 2.0])])
    kind, gamma = report.records[-1].step_kind, report.records[-1].gamma
    assert (kind, gamma) == ("init", 0.0)
    assert trace.selected == (1,)
    assert trace.reasons == ("dim_growth",)


def test_duplicate_first_point_skipped():
    trace, report = run_coreset([np.array([1.0, 2.0]), np.array([1.0, 2.0])])
    kind = report.records[-1].step_kind
    assert kind == "skip"
    assert trace.selected == (1,)


def test_span_raising_point_selected():
    pts = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    trace, report = run_coreset(pts[:2])
    kind = report.records[-1].step_kind
    assert kind == "irregular" and trace.reasons[-1] == "dim_growth"
    trace, report = run_coreset(pts)
    kind = report.records[-1].step_kind
    assert kind == "irregular" and trace.reasons[-1] == "dim_growth"


def test_interior_point_discarded():
    pts = [np.zeros(2), np.array([4.0, 0.0]), np.array([0.0, 4.0]),
           np.array([0.5, 0.5])]
    trace, report = run_coreset(pts)
    assert 4 not in trace.selected


def test_small_growth_point_discarded_without_state_change():
    # a point just past the outer boundary would grow the volume by less
    # than a factor e, so it must be dropped and the driver left untouched
    pts = [np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
           np.array([0, 0, 1.0])]
    trace, _ = run_coreset(pts)
    before = trace.driver
    z = before.center + 1.05 * before.ellipsoid.semiaxes[0] * \
        before.ellipsoid.axes[:, 0]
    s = coreset_step(before, z)
    assert (s.kind, s.gamma) == ("skip", 0.0)
    assert s.state is before


def test_non_finite_point_rejected():
    with pytest.raises(ValueError, match="index 3"):
        run_coreset([np.zeros(2), np.ones(2), np.array([np.inf, 0.0])])


def test_replay_is_bit_exact():
    rng = np.random.default_rng(30)
    pts = rng.standard_normal((300, 4)) * 3.0
    trace, _ = run_coreset(pts)
    replay, _ = run_coreset(pts[[i - 1 for i in trace.selected]])
    a, b = trace.driver.ellipsoid, replay.driver.ellipsoid
    assert np.array_equal(a.center, b.center)
    assert np.array_equal(a.axes, b.axes)
    assert np.array_equal(a.semiaxes, b.semiaxes)
    assert trace.driver.alpha == replay.driver.alpha


def test_unselected_points_within_outer_factor():
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((400, 3)) * 2.0
    trace, _ = run_coreset(pts)
    selected = set(trace.selected)
    body = trace.driver.ellipsoid
    blown = body.scaled(OUTER_FACTOR)
    for t in range(1, len(pts) + 1):
        if t not in selected:
            assert membership(blown, pts[t - 1]) <= 1e-7


def test_size_respects_volume_ledger():
    rng = np.random.default_rng(32)
    d = 4
    pts = rng.standard_normal((500, d)) * 5.0
    trace, _ = run_coreset(pts)
    state = trace.driver
    r_hat = float(state.ellipsoid.semiaxes.min() * state.alpha)
    r_n = float(max(np.linalg.norm(pts - state.center, axis=1)))
    bound = d * math.log(r_n / r_hat) + d + 2
    assert len(trace.selected) <= bound


def test_alpha_ledger():
    # each kept regular step records the kernel's gamma, so the online
    # driver's ledger 1/alpha = 1 + #irregular + 2*sum(gamma) holds here too
    pts = np.random.default_rng(3).standard_normal((400, 3))
    trace, report = run_coreset(pts)
    assert report.regular_gamma_sum() > 0.0
    expected = 1.0 + report.irregular_count() + \
        2.0 * report.regular_gamma_sum()
    assert trace.driver.alpha_inv == pytest.approx(expected, rel=1e-10)


def test_report_kinds_align_with_reasons():
    rng = np.random.default_rng(33)
    pts = rng.standard_normal((100, 3))
    trace, report = run_coreset(pts)
    kept_ts = set(trace.selected)
    for rec in report.records:
        if rec.t in kept_ts:
            assert rec.step_kind in ("init", "regular", "irregular")
        else:
            assert rec.step_kind == "skip"


def _growth(k, alpha, gamma):
    # gamma + (k-1) log b(gamma), with b as compute_params forms it
    alpha_next = 1.0 / (1.0 / alpha + 2.0 * gamma)
    return gamma + (k - 1) * math.log(1.0 + (alpha - alpha_next) / 2.0)


def exact_drop_limit(state):
    """rho* = a + c at gamma*, from a bisection of the growth down to adjacent floats."""
    k, alpha = state.dim, state.alpha
    lo, hi = 0.0, 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if _growth(k, alpha, mid) < VOLUME_JUMP_LOG - TIE_TOL else (lo, mid)
    p = compute_params(lo, alpha)
    return p.a + p.c


def assert_tight_lower_bound(k, alpha):
    # never above rho* by more than rounding; within 2e-3 of it for the
    # alpha <= 1/(k+1) a rank-k coreset state has
    state = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(k), 1.0), alpha)
    limit, exact = drop_limit(state), exact_drop_limit(state)
    assert limit <= exact * (1.0 + 1e-12)
    if alpha <= 1.0 / (k + 1):
        assert limit >= exact * (1.0 - 2e-3)
    return limit, exact


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 64), st.floats(0.0, 0.5, exclude_min=True))
@example(2, 1.0 / 3.0)  # the loosest case a coreset reaches
@example(64, 1e-300)
def test_drop_limit_is_a_tight_lower_bound(k, alpha):
    assert_tight_lower_bound(k, alpha)


@pytest.mark.parametrize("k", [1, 2, 6, 64])
@pytest.mark.parametrize("alpha", [0.5, 0.1, 1e-3, 1e-9])
def test_drop_limit_at_the_edges(k, alpha):
    limit, exact = assert_tight_lower_bound(k, alpha)
    if k == 1:
        # growth is gamma itself, and the bound's root is gamma* = T
        assert limit == pytest.approx(exact, rel=1e-14)
