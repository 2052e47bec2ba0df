import math
from dataclasses import replace

import numpy as np
import pytest

from ellipstream import adversary
from ellipstream.adversary import (
    AdversaryError,
    library_rule,
    reduced_case_grid,
    run_adversary,
    shell_point,
    simplex_vertices,
)
from ellipstream.ellipsoid import Ellipsoid, membership
from ellipstream.update_rule import RoundingState


class TestSimplexVertices:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_circumradius_is_d(self, d):
        v = simplex_vertices(d)
        assert v.shape == (d + 1, d)
        assert np.allclose(np.linalg.norm(v, axis=1), d, atol=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_centroid_at_origin(self, d):
        assert np.allclose(simplex_vertices(d).sum(axis=0), 0.0, atol=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_vertices_equidistant(self, d):
        v = simplex_vertices(d)
        dists = [np.linalg.norm(v[i] - v[j])
                 for i in range(d + 1) for j in range(i + 1, d + 1)]
        assert np.allclose(dists, dists[0], atol=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_inradius_is_one(self, d):
        # the facet opposite vertex i supports the body at distance 1
        v = simplex_vertices(d)
        for i in range(d + 1):
            normal = -v[i] / np.linalg.norm(v[i])
            others = [v[j] for j in range(d + 1) if j != i]
            offsets = [float(normal @ p) for p in others]
            assert np.allclose(offsets, 1.0, atol=1e-9)

    def test_dimension_guard(self):
        with pytest.raises(AdversaryError):
            simplex_vertices(1)


class TestShellPoint:
    def test_unit_ball_prefers_axis_point(self):
        st = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(3), 1.0), alpha=0.5)
        z = shell_point(st, r_cap=10.0)
        # a semiaxis endpoint of the doubled ball
        assert np.linalg.norm(z) == pytest.approx(2.0, abs=1e-12)

    def test_point_is_on_doubled_boundary(self):
        rng = np.random.default_rng(40)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        body = Ellipsoid(rng.standard_normal(3) * 0.1, q,
                         np.array([2.0, 1.0, 0.5]))
        st = RoundingState.from_ellipsoid(body, alpha=0.4)
        z = shell_point(st, r_cap=100.0)
        assert membership(body.scaled(2.0), z) == pytest.approx(0.0, abs=1e-9)

    def test_none_when_shell_outside_cap(self):
        st = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(2), 5.0), alpha=0.5)
        assert shell_point(st, r_cap=6.0) is None

    def test_fallback_direction_search(self):
        def search(center, radius, cap):
            st = RoundingState.from_ellipsoid(Ellipsoid.ball(np.array(center), radius),
                                              alpha=0.5)
            z = shell_point(st, r_cap=cap)
            assert z is not None
            assert np.linalg.norm(z) <= cap * (1 + 1e-9)
            assert membership(st.ellipsoid.scaled(2.0), z) == pytest.approx(
                0.0, abs=1e-9)
            return z

        # the semiaxis endpoint (-1.5, 0) of the doubled ball fits the cap
        search([2.5, 0.0], 2.0, 2.0)
        # here every endpoint misses the cap, so only the direction search
        # can succeed; it lands near the least norm 3*sqrt(2) - 2 of the
        # doubled circle
        ends = np.array([3.0, 3.0]) + 2.0 * np.vstack([np.eye(2), -np.eye(2)])
        assert np.linalg.norm(ends, axis=1).min() >= math.sqrt(10) > 2.5
        z = search([3.0, 3.0], 1.0, 2.5)
        assert np.linalg.norm(z) == pytest.approx(3 * math.sqrt(2) - 2,
                                                  abs=1e-4)

    def test_degenerate_state_rejected(self):
        body = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1.0]))
        with pytest.raises(AdversaryError, match="full-rank"):
            shell_point(RoundingState.from_ellipsoid(body, alpha=0.5), 8.0)


class TestRunAdversary:
    @pytest.mark.parametrize("d,r_big", [(2, 8.0), (3, 8.0), (4, 32.0)])
    def test_terminates_with_volume_reached(self, d, r_big):
        trace = run_adversary(library_rule, d, r_big)
        assert trace.stop_reason == "volume_reached"
        assert trace.p_values[-1] >= d * math.log(r_big / 2.0) - 1e-6

    def test_phase_structure(self):
        trace = run_adversary(library_rule, 3, 8.0)
        assert trace.step_kinds[:4] == ["simplex"] * 4
        assert all(k == "shell" for k in trace.step_kinds[4:])

    def test_a_values_nondecreasing(self):
        trace = run_adversary(library_rule, 3, 32.0)
        assert all(a2 >= a1 - 1e-9
                   for a1, a2 in zip(trace.a_values, trace.a_values[1:]))

    def test_step_ratio_positive(self):
        trace = run_adversary(library_rule, 4, 32.0)
        pairs = zip(zip(trace.a_values, trace.p_values),
                    zip(trace.a_values[1:], trace.p_values[1:]))
        ratios = [(a2 - a1) / (p2 - p1)
                  for (a1, p1), (a2, p2) in pairs if p2 > p1 + 1e-12]
        assert min(ratios) > 0

    def test_non_monotone_rule_detected(self):
        def cheating_rule(state, z):
            # grows alpha back, which no monotone rule may do
            body = state.ellipsoid
            grown = Ellipsoid(body.center, body.axes, body.semiaxes * 2.0)
            return RoundingState.from_ellipsoid(grown, alpha=min(1.0, state.alpha * 4.0))

        bumped = 0

        def rule(state, z):
            nonlocal bumped
            bumped += 1
            if bumped > 3:
                return cheating_rule(state, z)
            return library_rule(state, z)

        with pytest.raises(AdversaryError, match="non-monotone"):
            run_adversary(rule, 3, 32.0)

    def test_shell_out_of_reach_stops_the_run(self):
        def drifting_rule(state, z):
            # keeps the body and moves its center beyond R of every shell point
            return replace(state, center=state.center + 100.0)

        trace = run_adversary(drifting_rule, 3, 8.0)
        assert trace.stop_reason == "shell_empty"
        assert trace.step_kinds == ["simplex"] * 4

    def test_no_steps_left_raises(self, monkeypatch):
        monkeypatch.setattr(adversary, "ADVERSARY_MAX_STEPS", 0)
        with pytest.raises(AdversaryError, match="did not terminate"):
            run_adversary(library_rule, 3, 8.0)

    def test_parameter_guards(self):
        with pytest.raises(AdversaryError):
            run_adversary(library_rule, 1, 8.0)
        with pytest.raises(AdversaryError):
            run_adversary(library_rule, 3, 0.5)
        for r_big in (math.nan, math.inf):
            with pytest.raises(AdversaryError):
                run_adversary(library_rule, 3, r_big)


class TestReducedCaseGrid:
    def test_ratios_positive_and_grid_large(self):
        report = reduced_case_grid()
        assert report.n_points >= 10**4
        assert report.min_ratio > 0
        assert report.c_observed > 0
        assert report.min_slack >= -1e-12

    def test_pinned_values(self):
        # the values a scalar loop over the (d, A, a, b) cells gives
        report = reduced_case_grid()
        assert report.n_points == 61824
        assert report.min_ratio == pytest.approx(0.13786094537020774, rel=1e-15)
        assert report.c_observed == pytest.approx(0.843852334766833, rel=1e-15)
        assert report.min_slack == 0.0
