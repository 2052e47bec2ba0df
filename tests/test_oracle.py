import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ellipstream.adversary import simplex_vertices
from ellipstream import oracle, update_rule
from ellipstream.ellipsoid import Ellipsoid, containment_margin, log_volume, membership
from ellipstream.oracle import (
    HullSpec,
    OracleError,
    union_hull_distance,
    check_monotone_step,
    hull_membership,
    inequality_suite,
    mvee_khachiyan,
)
from ellipstream.streaming import run_fully_online
from ellipstream.update_rule import RoundingState, compute_params, step

SQUARE = [np.array(p) for p in
          [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]]
# queries about SQUARE, inside (or on its boundary) and outside
SQUARE_INSIDE = [np.array(q) for q in [(0.2, 0.3), (1.0, 0.0), (-0.9, 0.9), (1.0, 1.0)]]
SQUARE_OUTSIDE = [np.array(q) for q in [(2.0, 0.0), (2.0, 0.5), (3.0, 4.0), (-1.5, -1.2)]]


def linprog_membership(points, x) -> bool:
    """Independent reference: is {lam >= 0, sum lam = 1, lam @ points = x}
    feasible, by HiGHS?"""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    res = linprog(np.zeros(n), A_eq=np.vstack([pts.T, np.ones((1, n))]),
                  b_eq=np.append(x, 1.0), bounds=(0.0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


class TestHullMembership:
    def test_interior(self):
        assert hull_membership(SQUARE, np.array([0.3, -0.2]))

    def test_vertex(self):
        assert hull_membership(SQUARE, np.array([1.0, 1.0]))

    def test_edge_midpoint(self):
        assert hull_membership(SQUARE, np.array([1.0, 0.0]))

    def test_outside(self):
        assert not hull_membership(SQUARE, np.array([1.2, 0.0]))

    def test_single_point_hull(self):
        assert hull_membership([np.array([2.0, 3.0])], np.array([2.0, 3.0]))
        assert not hull_membership([np.array([2.0, 3.0])], np.array([2.0, 3.1]))

    def test_large_coordinates(self):
        pts = [p * 1e6 for p in SQUARE]
        assert hull_membership(pts, np.array([9.9e5, 0.0]))
        assert not hull_membership(pts, np.array([1.1e6, 0.0]))
        # neither a far translation nor a tiny scale may blur the hull
        shifted = [p + 1e9 for p in SQUARE]
        assert not hull_membership(shifted, np.array([5.0, 5.0]) + 1e9)
        tiny = [p * 1e-9 for p in SQUARE]
        assert not hull_membership(tiny, np.array([5e-9, 5e-9]))
        assert hull_membership(tiny, np.array([5e-10, 5e-10]))
        # a scaled and shifted copy gives the unit square's verdicts
        for s in (1e-6, 1e6):
            copy = [s * p + 1e3 * s for p in SQUARE]
            for q in SQUARE_INSIDE:
                assert hull_membership(copy, s * q + 1e3 * s)
            for q in SQUARE_OUTSIDE:
                assert not hull_membership(copy, s * q + 1e3 * s)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_convex_combination_always_inside(self, seed):
        rng = np.random.default_rng(seed)
        pts = [rng.standard_normal(3) for _ in range(6)]
        w = rng.random(6)
        w /= w.sum()
        x = sum(wi * p for wi, p in zip(w, pts))
        assert hull_membership(pts, x)


class TestUnionHullDistance:
    def test_interior_and_boundary_of_square(self):
        h = HullSpec(point_list=tuple(SQUARE))
        assert union_hull_distance(h, np.array([0.2, 0.3])) <= 1e-9
        assert union_hull_distance(h, np.array([1.0, 0.0])) <= 1e-9

    def test_exterior_distance(self):
        h = HullSpec(point_list=tuple(SQUARE))
        assert union_hull_distance(h, np.array([2.0, 0.0])) == pytest.approx(
            1.0, abs=1e-8)

    def test_ball_and_point_union(self):
        ball = Ellipsoid.ball(np.zeros(2), 1.0)
        h = HullSpec(point_list=(np.array([3.0, 0.0]),),
                     ellipsoid_list=(ball,))
        # the cone from the point tangent to the ball covers this one
        assert union_hull_distance(h, np.array([1.5, 0.4])) <= 1e-9
        assert union_hull_distance(h, np.array([0.0, 1.5])) == pytest.approx(
            0.5, abs=1e-8)

    def test_large_coordinates(self):
        # the solver must not lose the hull when the atoms, shifted by the
        # query, are large next to their differences
        h = HullSpec(point_list=tuple(p * 1e4 for p in SQUARE))
        assert union_hull_distance(h, np.array([2e4, 0.0])) == pytest.approx(
            1e4, rel=1e-12)
        assert union_hull_distance(h, np.array([5e3, -2e3])) <= 1e-9
        h = HullSpec(point_list=tuple(SQUARE))
        assert union_hull_distance(h, np.array([1e4 + 1.0, 0.0])) == (
            pytest.approx(1e4, rel=1e-12))
        assert union_hull_distance(h, np.array([3e6, 4e6])) == pytest.approx(
            math.hypot(3e6 - 1.0, 4e6 - 1.0), rel=1e-12)
        assert not hull_membership(SQUARE, np.array([1e4, 0.0]))
        # the centroid of a cloud far from unit scale is in its hull
        pts = np.random.default_rng(0).standard_normal((30, 3)) * 1e6
        x = pts.mean(axis=0)
        spread = np.abs(pts - x).max()
        assert union_hull_distance(HullSpec(point_list=tuple(pts)), x) <= 1e-9 * spread
        # a scaled and shifted copy gives s times the unit square's distances
        h = HullSpec(point_list=tuple(SQUARE))
        for s in (1e-6, 1e6):
            copy = HullSpec(point_list=tuple(s * p + 1e3 * s for p in SQUARE))
            for q in SQUARE_INSIDE:
                assert union_hull_distance(copy, s * q + 1e3 * s) <= 1e-9 * s
            for q in SQUARE_OUTSIDE:
                assert union_hull_distance(copy, s * q + 1e3 * s) == pytest.approx(
                    s * union_hull_distance(h, q), rel=1e-9)

    def test_unconverged_solve_raises(self, monkeypatch):
        # the nearest point lies on an edge, two major cycles away
        h = HullSpec(point_list=tuple(SQUARE))
        monkeypatch.setattr(oracle, "_cycle_budget", lambda d: 1)
        with pytest.raises(OracleError):
            union_hull_distance(h, np.array([2.0, 0.5]))
        monkeypatch.setattr(oracle, "_cycle_budget", lambda d: 2)
        assert union_hull_distance(h, np.array([2.0, 0.5])) == (
            pytest.approx(1.0, abs=1e-12))

    def test_high_dimension_centroid(self):
        # the cycle budget grows with d, as hull_membership's does: a fixed
        # 200 cycles raised here
        d = 200
        pts = np.random.default_rng(0).standard_normal((3 * d, d))
        x = pts.mean(axis=0)
        assert union_hull_distance(HullSpec(point_list=tuple(pts)), x) <= 10 * oracle.LP_TOL
        assert hull_membership(pts, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_raise(self, bad):
        h = HullSpec(point_list=tuple(SQUARE))
        with pytest.raises(OracleError, match="non-finite"):
            union_hull_distance(h, np.array([bad, 0.0]))
        # a spec checks its members once, when it is built
        with pytest.raises(OracleError, match="non-finite"):
            HullSpec(point_list=tuple(SQUARE) + (np.array([bad, 0.0]),))

    def test_spec_refuses_mixed_dimensions(self):
        # the members are stacked and checked once, when the spec is built
        ball = Ellipsoid.ball(np.zeros(3), 1.0)
        with pytest.raises(OracleError, match=r"dimensions \[2, 3\]"):
            HullSpec(point_list=(np.zeros(2),), ellipsoid_list=(ball,))
        h = HullSpec(point_list=(np.zeros(3), np.ones(3)), ellipsoid_list=(ball,))
        assert h.points.shape == (2, 3)
        assert union_hull_distance(h, np.ones(3)) <= 1e-9

    def test_agrees_with_lp_membership(self):
        rng = np.random.default_rng(52)
        pts = tuple(rng.standard_normal(3) for _ in range(8))
        h = HullSpec(point_list=pts)
        for _ in range(20):
            q = rng.standard_normal(3) * 0.8
            lp = linprog_membership(pts, q)
            fw = union_hull_distance(h, q) <= 1e-7
            assert lp == fw

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.data())
    def test_random_clouds_agree_with_linprog(self, seed, d, data):
        n = data.draw(st.integers(d + 1, 40))
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, d))
        h = HullSpec(point_list=tuple(pts))
        # inside: a convex combination with full support
        w = rng.random(n) + 0.05
        inside = (w / w.sum()) @ pts
        # outside: a vertex pushed further along a direction it maximizes
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        outside = pts[int(np.argmax(pts @ u))] + 0.1 * u
        for q, expected in ((inside, True), (outside, False)):
            assert linprog_membership(pts, q) is expected
            assert hull_membership(pts, q) is expected
            assert (union_hull_distance(h, q) <= 1e-7) is expected

    def test_repeated_and_collinear_points(self):
        # segments listed with repeated ends and interior points: corrals
        # become affinely dependent and the minor cycle has to drop atoms
        rng = np.random.default_rng(53)
        ends, pts = [], []
        for _ in range(3):
            a, b = rng.standard_normal((2, 3))
            ends += [a, b]
            pts += [a + t * (b - a) for t in (0.0, 0.3, 1.0, 0.7, 1.0, 0.0)]
        h = HullSpec(point_list=tuple(pts))
        h_ends = HullSpec(point_list=tuple(ends))
        for _ in range(20):
            q = rng.standard_normal(3) * 1.5
            inside = linprog_membership(pts, q)
            assert hull_membership(pts, q) is inside
            dist = union_hull_distance(h, q)
            assert (dist <= 1e-7) is inside
            assert dist == pytest.approx(union_hull_distance(h_ends, q),
                                         abs=1e-9)
        # on one segment the distances are known in closed form
        seg = [np.zeros(3), np.full(3, 3.0), np.full(3, 1.0), np.full(3, 3.0)]
        h = HullSpec(point_list=tuple(seg))
        on = np.full(3, 1.7)
        off = on + 1e-3 * np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert hull_membership(seg, on) and not hull_membership(seg, off)
        assert union_hull_distance(h, on) <= 1e-9
        assert union_hull_distance(h, off) == pytest.approx(1e-3, abs=1e-9)
        assert union_hull_distance(h, np.full(3, 4.0)) == pytest.approx(
            math.sqrt(3.0), abs=1e-9)


SIMPLEX = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
ORACLES = {
    "hull_membership": lambda x: hull_membership(SIMPLEX, x),
    "union_hull_distance": lambda x: union_hull_distance(HullSpec(point_list=tuple(SIMPLEX)), x),
    "union_hull_distance-ellipsoids": lambda x: union_hull_distance(
        HullSpec(ellipsoid_list=(Ellipsoid.ball(np.zeros(3), 1.0),)), x),
}


@pytest.mark.parametrize("oracle_name", sorted(ORACLES))
@pytest.mark.parametrize("query", [0.0, np.zeros((1, 3)), np.zeros(2), np.zeros(4),
                                   np.zeros((3, 1))],
                         ids=["scalar", "row", "short", "long", "column"])
def test_hull_oracles_refuse_malformed_queries(oracle_name, query):
    # a query is a vector of the members' dimension; numpy would broadcast
    # a scalar or a row, or raise its own ValueError or IndexError
    with pytest.raises(OracleError, match="not a vector of dimension 3"):
        ORACLES[oracle_name](query)
    ORACLES[oracle_name](np.zeros(3))  # the origin, a member of each hull


POINT_SETS = {
    "hull_membership": lambda pts: hull_membership(pts, np.zeros(3)),
    "mvee_khachiyan": mvee_khachiyan,
    "HullSpec": lambda pts: union_hull_distance(HullSpec(point_list=tuple(pts)), np.zeros(3)),
}


@pytest.mark.parametrize("oracle_name", sorted(POINT_SETS))
def test_point_set_oracles_refuse_malformed_points(oracle_name):
    # a point set is (n, d) rows of finite entries, whichever oracle reads it
    with pytest.raises(OracleError, match=r"shape \(3,\), not \(n, d\) rows"):
        POINT_SETS[oracle_name](np.array([1.0, 2.0, 3.0]))
    with pytest.raises(OracleError, match=r"shapes \[\(2,\), \(3,\)\]"):
        POINT_SETS[oracle_name]([np.zeros(3), np.ones(2), np.ones(3)])
    for bad in (math.nan, math.inf):
        with pytest.raises(OracleError, match="non-finite inputs"):
            POINT_SETS[oracle_name](np.vstack([SIMPLEX, [bad, 0.0, 0.0]]))
    POINT_SETS[oracle_name](SIMPLEX)


VALUE_RECORDS = {
    "HullSpec": lambda: HullSpec(point_list=(np.zeros(2), np.ones(2))),
    "RoundingState": lambda: RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(2), 1.0), 0.5),
}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_records_of_arrays_compare_by_identity_and_hash(name):
    # numpy fields have no truth value, so == compares identity
    a, b = VALUE_RECORDS[name](), VALUE_RECORDS[name]()
    assert (a == b) is False and a == a
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


class TestCheckMonotoneStep:
    def make_state(self, d=2, alpha=0.5):
        return RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(d), 1.0), alpha=alpha)

    def regular_step(self, z):
        s = step(self.make_state(), np.array(z))
        assert s.kind == "regular"
        return s

    def test_valid_regular_step(self):
        cert = check_monotone_step(self.regular_step([2.5, 0.4]))
        assert cert.outer_ok and cert.inner_ok
        assert cert.worst_margin >= -1e-9

    def test_valid_irregular_step(self):
        body = Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1.0]))
        prev = RoundingState.from_ellipsoid(body, alpha=0.5)
        s = step(prev, np.array([0.2, -0.1, 1.5]))
        assert s.kind == "irregular"
        cert = check_monotone_step(s)
        assert cert.outer_ok and cert.inner_ok

    def test_outer_shrink_detected(self):
        s = self.regular_step([2.5, 0.0])
        nxt = s.state
        bad = RoundingState.from_ellipsoid(
            Ellipsoid(nxt.center, nxt.ellipsoid.axes,
                      nxt.ellipsoid.semiaxes * 0.4), nxt.alpha)
        cert = check_monotone_step(s._replace(state=bad))
        assert not cert.outer_ok

    def test_missed_point_detected(self):
        nxt = self.regular_step([4.0, 0.0]).state
        z10 = np.array([10.0, 0.0])
        cert = check_monotone_step(step(self.make_state(), z10)._replace(state=nxt))
        assert not cert.outer_ok

    def test_step_without_split_raises(self):
        s = self.regular_step([2.5, 0.4])._replace(split=None)
        with pytest.raises(OracleError, match="no split"):
            check_monotone_step(s)

    def test_overgrown_inner_detected(self):
        s = self.regular_step([2.5, 0.0])
        bad = RoundingState.from_ellipsoid(s.state.ellipsoid, alpha=0.95)
        cert = check_monotone_step(s._replace(state=bad))
        assert not cert.inner_ok
        assert cert.worst_margin < 0


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def sampled_certificate(s, tol=1e-7):
    """check_monotone_step on its sampled path alone, the reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_structured_margins", lambda *args: None)
        return check_monotone_step(s, tol)


def certified_steps(pts, every=1):
    """Every Step the CLI's verifier would certify."""
    steps = []

    def observer(t, s):
        if s.kind not in ("init", "local") and t % every == 0:
            steps.append(s)

    run_fully_online(pts, on_step=observer)
    return steps


def frame_margin_reference(s, n_angles=100_001):
    """Inner and outer margins from the bodies' own views: the inner one
    over n_angles directions of the plane through z's direction in the
    step's frame (it holds the minimum of a body of revolution), from the
    ambient support functions; the outer ones from the exact containment
    search and membership."""
    prev, nxt, z = s.prev, s.state, s.z
    frame = update_rule.frame(prev, s.split)
    f = frame.shear @ frame.basis.T
    k = f.shape[0]
    e1 = frame.z / np.linalg.norm(frame.z)
    theta = np.linspace(0.0, 2.0 * math.pi, n_angles)
    dirs = np.cos(theta)[:, None] * e1
    if k > 1:
        dirs = dirs + np.sin(theta)[:, None] * oracle._orthogonal(e1)
    amb = dirs @ f  # the frame directions, pulled back to ambient space

    def support(body, alpha):
        # h(v) of center + alpha * body, taken from the previous center
        return ((body.center - prev.center) @ amb.T
                + alpha * np.linalg.norm((amb @ body.axes) * body.semiaxes, axis=1))

    h_prev = (support(prev.ellipsoid, prev.alpha) if prev.dim
              else np.zeros(len(theta)))
    inner = np.maximum(h_prev, amb @ (z - prev.center)) - support(nxt.ellipsoid, nxt.alpha)
    outer = min(-containment_margin(nxt.ellipsoid, prev.ellipsoid),
                -membership(nxt.ellipsoid, z))
    return float(inner.min()), outer


class TestStructuredCertificate:
    """The closed-form path of check_monotone_step against the sampled one
    and against a dense 1-D reference."""

    @pytest.mark.parametrize("name", ["audit-file", "regular-highd"])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_agrees_with_sampled_path_on_perfbench_streams(self, name, seed,
                                                           tmp_path, monkeypatch):
        sys.path.insert(0, str(PERFBENCH))
        try:
            import workloads
        finally:
            sys.path.remove(str(PERFBENCH))
        w = workloads.WORKLOADS[name]
        streams = workloads.make_inputs(w, seed, tmp_path).streams
        structured = oracle._structured_margins
        fallbacks = []

        def counted(*args):
            margins = structured(*args)
            fallbacks.append(margins is None)
            return margins

        monkeypatch.setattr(oracle, "_structured_margins", counted)
        n = 0
        for pts in streams:
            for s in certified_steps(pts, w.verify_every):
                fast = check_monotone_step(s, tol=1e-7)
                ref = sampled_certificate(s)
                assert fast.verdict == ref.verdict == "pass"
                assert fast.worst_margin <= ref.worst_margin + 1e-12
                n += 1
        assert n > 50 and len(fallbacks) == n
        assert sum(fallbacks) <= 0.01 * n

    @pytest.mark.parametrize("case", ["regular", "raise-0-1", "raise-k"])
    def test_margin_matches_dense_reference(self, case):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((40, 4))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts = 3.0 + g * np.exp(0.02 * np.arange(1, 41))[:, None]
        steps = certified_steps(pts)
        picked = {
            "regular": [s for s in steps if s.state.dim == s.prev.dim == 4][:6],
            "raise-0-1": [s for s in steps if s.prev.dim == 0],
            "raise-k": [s for s in steps if s.state.dim == s.prev.dim + 1 >= 3],
        }[case]
        assert picked
        for s in picked:
            margins = oracle._structured_margins(s.prev, s.state,
                                                 update_rule.frame(s.prev, s.split), 1e-7)
            assert margins is not None
            inner, outer = frame_margin_reference(s)
            assert margins[1] == pytest.approx(inner, abs=1e-10)
            assert margins[0] == pytest.approx(outer, abs=1e-10)

    @staticmethod
    def small_step(alpha):
        # a step of small gamma leaves little slack either side of the inner body
        prev = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(3), 1.0), alpha)
        w = np.array([0.6, 0.8, 0.0])
        s = step(prev, 1.001 * w)
        assert s.kind == "regular"
        # a and b as the kernel's regular step formed them
        return s, w, compute_params(s.gamma, prev.alpha)

    @pytest.mark.parametrize("alpha", [0.5, 0.1])
    @pytest.mark.parametrize("mutation", ["b+", "b-", "off-axis center", "shear"])
    def test_mutated_steps_flagged(self, alpha, mutation):
        s, w, params = self.small_step(alpha)
        nxt = s.state
        u2 = np.array([0.8, -0.6, 0.0])
        factor, center = nxt.factor, nxt.center
        if mutation in ("b+", "b-"):
            b = params.b + (1e-3 if mutation == "b+" else -1e-3)
            factor = b * np.eye(3) + (params.a - b) * np.outer(w, w)
        elif mutation == "off-axis center":
            center = center + 1e-3 * u2
        else:
            factor = factor @ (np.eye(3) + 1e-3 * np.outer(w, u2))
        bad = RoundingState(center, nxt.basis, factor, np.linalg.inv(factor),
                            nxt.alpha, nxt.log_volume)
        fast = check_monotone_step(s._replace(state=bad))
        ref = sampled_certificate(s._replace(state=bad))
        assert fast.verdict == ref.verdict == "fail"
        assert fast.worst_margin <= ref.worst_margin + 1e-12
        assert check_monotone_step(s).verdict == "pass"

    def test_structured_step_needs_no_decomposition(self, monkeypatch):
        s, _, _ = self.small_step(0.5)
        calls = []
        for owner, name in ((np.linalg, "svd"), (np.linalg, "eigh"),
                            (Ellipsoid, "__post_init__")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
        # fresh states, so that no cached view hides a decomposition
        prev, nxt = (RoundingState(r.center, r.basis, r.factor, r.inverse, r.alpha, r.log_volume)
                     for r in (s.prev, s.state))
        assert check_monotone_step(s._replace(prev=prev, state=nxt)).verdict == "pass"
        assert calls == []


class TestMvee:
    def test_square_gives_circumscribed_circle(self):
        e = mvee_khachiyan(SQUARE, eps=1e-8)
        assert np.allclose(e.center, 0.0, atol=1e-6)
        assert np.allclose(e.semiaxes, math.sqrt(2.0), atol=1e-5)

    def test_segment_in_the_plane(self):
        pts = [np.array([-1.0, 0.0]), np.array([1.0, 0.0])]
        e = mvee_khachiyan(pts, eps=1e-8)
        assert e.rank == 1
        assert e.semiaxes[0] == pytest.approx(1.0, abs=1e-5)
        # copies of an inexact point centre to rounding noise, not a segment
        with pytest.raises(OracleError, match="coincide"):
            mvee_khachiyan([np.array([0.1, 0.2, 0.3])] * 3)

    def test_all_points_covered(self):
        rng = np.random.default_rng(50)
        pts = [rng.standard_normal(4) for _ in range(40)]
        e = mvee_khachiyan(pts, eps=1e-6)
        assert max(membership(e, p) for p in pts) <= 1e-4
        # the affine rank is relative to the cloud's own spread
        pts = np.random.default_rng(0).standard_normal((50, 3))
        ref = log_volume(mvee_khachiyan(pts))
        e = mvee_khachiyan(pts * 1e-11)
        assert e.rank == 3
        assert log_volume(e) - 3.0 * math.log(1e-11) == pytest.approx(ref, rel=1e-9)
        assert max(membership(e, p) for p in pts * 1e-11) <= 1e-4

    def test_anisotropic_cloud(self):
        rng = np.random.default_rng(51)
        pts = [rng.standard_normal(2) * np.array([10.0, 0.1])
               for _ in range(60)]
        e = mvee_khachiyan(pts, eps=1e-7)
        assert e.semiaxes[0] / e.semiaxes[1] > 20.0

    def test_unconverged_raises(self, monkeypatch):
        rng = np.random.default_rng(50)
        pts = [rng.standard_normal(4) for _ in range(40)]
        monkeypatch.setattr(oracle, "MVEE_MAX_ITER", 1)
        with pytest.raises(OracleError):
            mvee_khachiyan(pts, eps=1e-6)

    @pytest.mark.parametrize("d", [3, 6])
    def test_interior_points_dropped(self, d):
        # the interior points and the repeated vertices carry no weight at
        # the optimum, so away steps must clear them; the enclosing
        # ellipsoid of the simplex then sandwiches it with factor d
        verts = simplex_vertices(d)
        rng = np.random.default_rng(d)
        interior = rng.dirichlet(np.ones(d + 1), 500) @ verts
        pts = np.vstack([verts, interior, verts, verts[:2]])
        e = mvee_khachiyan(pts, eps=1e-8)
        m = e.axes * e.semiaxes[None, :]
        factor = max(
            float(np.linalg.norm(m.T @ (v / np.linalg.norm(v))))
            / (1.0 + float(v @ e.center) / np.linalg.norm(v))
            for v in verts)
        assert 0.95 * d <= factor <= 1.05 * d

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(0, 80))
    def test_covering_and_near_optimal(self, seed, d, extra):
        eps = 1e-6
        pts = np.random.default_rng(seed).standard_normal(
            (min(d + 1 + extra, 80), d))
        e = mvee_khachiyan(pts, eps=eps)
        r = e.rank
        bound = math.sqrt(1.0 + eps * (r + 1) / r) - 1.0
        assert max(membership(e, p) for p in pts) <= bound + 1e-12
        ref = mvee_khachiyan(pts, eps=1e-10)
        gap = 0.5 * r * math.log1p(eps * (r + 1) / r)
        assert abs(log_volume(e) - log_volume(ref)) <= gap + 1e-9

    @staticmethod
    def drifting_cloud(seed, n=600, d=6):
        # unit gaussian directions whose norm grows by e^0.005 per point, as
        # in perfbench's audit-file workload: a few dozen points support the
        # optimum
        g = np.random.default_rng(seed).standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return g * np.exp(0.005 * np.arange(1, n + 1))[:, None]

    @staticmethod
    def spy_live_sets(monkeypatch):
        """Record, for every fresh inverse, the indices of the points it
        spans, by their first lifted coordinate; the first call spans all."""
        calls, lifted = [], oracle._lifted_inverse

        def spy(q, u):
            if not calls:
                calls.append(q[0].copy())
            calls.append(np.flatnonzero(np.isin(calls[0], q[0])))
            return lifted(q, u)

        monkeypatch.setattr(oracle, "_lifted_inverse", spy)
        return calls

    @staticmethod
    def assert_covering_and_near_optimal(pts, eps, e):
        r = e.rank
        bound = math.sqrt(1.0 + eps * (r + 1) / r) - 1.0
        assert max(membership(e, p) for p in pts) <= bound + 1e-12
        ref = mvee_khachiyan(pts, eps=1e-10)
        gap = 0.5 * r * math.log1p(eps * (r + 1) / r)
        assert abs(log_volume(e) - log_volume(ref)) <= gap + 1e-9

    def test_support_floor_is_sharp_and_absolute(self):
        # lifted simplex vertices q_i support the optimum with equal weights,
        # and under weights u they have m_i = 1/u_i: the floor is attained
        # there, and holds for every u
        rng = np.random.default_rng(7)
        for _ in range(2000):
            r = int(rng.integers(1, 8))
            m = 1.0 / rng.dirichlet(np.full(r + 1, rng.uniform(0.1, 3.0)))
            assert m.min() >= oracle._support_floor(m.max() - (r + 1), r) * (1.0 - 1e-12)
        m = 1.0 / np.array([0.9, 0.05, 0.05])
        assert m.min() >= oracle._support_floor(m.max() - 3, 2)
        # with the relative gap max m / (r+1) - 1 the floor would cut the
        # triangle's heavy vertex
        assert m.min() < oracle._support_floor(m.max() / 3 - 1, 2)
        assert oracle._support_floor(0.0, 5) == 6.0

    def test_elimination_keeps_a_tenth_and_covers(self, monkeypatch):
        pts = self.drifting_cloud(1)
        calls = self.spy_live_sets(monkeypatch)
        eps = 1e-3
        e = mvee_khachiyan(pts, eps=eps)
        assert min(len(ids) for ids in calls[1:]) <= 60
        self.assert_covering_and_near_optimal(pts, eps, e)

    def test_deleted_support_points_are_restored(self, monkeypatch):
        # a floor of 0.7 max m at the first elimination cuts into the
        # optimum's support; the confirmation over every point must then
        # bring the points back
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, (300, 4))
        eps = 1e-6
        ref = mvee_khachiyan(pts, eps=1e-10)
        support = {i for i, p in enumerate(pts) if membership(ref, p) > -1e-6}
        floors, floor = [], oracle._support_floor

        def cutting(gap, r):
            floors.append(gap)
            return 0.7 * (r + 1.0 + gap) if len(floors) == 1 else floor(gap, r)

        monkeypatch.setattr(oracle, "_support_floor", cutting)
        calls = self.spy_live_sets(monkeypatch)
        e = mvee_khachiyan(pts, eps=eps)
        live = [set(ids.tolist()) for ids in calls[1:]]
        cut = next(t for t, ids in enumerate(live) if len(ids) < len(pts))
        assert support - live[cut]
        assert sum(len(ids) == len(pts) for ids in live[cut:]) >= 2
        monkeypatch.undo()
        self.assert_covering_and_near_optimal(pts, eps, e)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(100, 600),
           st.sampled_from(["gaussian", "uniform", "drift"]))
    def test_covering_and_near_optimal_at_scale(self, seed, d, n, kind):
        rng = np.random.default_rng(seed)
        if kind == "drift":
            pts = self.drifting_cloud(seed, n, d)
        elif kind == "uniform":
            pts = rng.uniform(-1.0, 1.0, (n, d))
        else:
            pts = rng.standard_normal((n, d))
        self.assert_covering_and_near_optimal(pts, 1e-6, mvee_khachiyan(pts, eps=1e-6))


class TestInequalitySuite:
    def test_all_slacks_nonnegative(self):
        for report in inequality_suite():
            assert report.worst_slack >= -1e-12, report.claim_id

    def test_expected_claims_present(self):
        ids = {r.claim_id for r in inequality_suite()}
        assert "exp_lower_linear" in ids
        assert "inner_main_bound" in ids
        assert "gamma_ratio_bound" in ids
