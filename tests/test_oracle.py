import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ellipstream.adversary import simplex_vertices
from ellipstream import oracle, update_rule
from ellipstream.ellipsoid import (SPAN_RES, Ellipsoid, _norm, basis_split, containment_margin,
                                  log_volume, membership)
from ellipstream.oracle import (
    HullSpec,
    OracleError,
    union_hull_distance,
    check_monotone_step,
    check_monotone_steps,
    hull_membership,
    inequality_suite,
    mvee_khachiyan,
)
from ellipstream.coreset import run_coreset
from ellipstream.streaming import run_fully_online, run_seeded
from ellipstream.update_rule import Frame, RoundingState, compute_params, step

SQUARE = [np.array(p) for p in
          [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]]
# queries about SQUARE, inside (or on its boundary) and outside
SQUARE_INSIDE = [np.array(q) for q in [(0.2, 0.3), (1.0, 0.0), (-0.9, 0.9), (1.0, 1.0)]]
SQUARE_OUTSIDE = [np.array(q) for q in [(2.0, 0.0), (2.0, 0.5), (3.0, 4.0), (-1.5, -1.2)]]

# d = 4: two near-duplicate axes at 1e-300, then a raise 1e150 away that drops both
FAR_TWO_AXIS_DROP = np.array([[-1.3e-301, 6.4e-301, 1e-301, -5.4e-301],
                              [3.6e-301, 1.3e-300, 9.5e-301, -7e-301],
                              [-1.3e-300, -6.2e-301, 4e-302, -2.3e-300],
                              [-2.2e149, -1.2e150, -7.3e149, -5.4e149]])


def linprog_membership(points, x) -> bool:
    """Independent reference: is {lam >= 0, sum lam = 1, lam @ points = x}
    feasible, by HiGHS?"""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    res = linprog(np.zeros(n), A_eq=np.vstack([pts.T, np.ones((1, n))]),
                  b_eq=np.append(x, 1.0), bounds=(0.0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def reference_min_norm_point(lmo, start, tol, dropped_first=None):
    """Wolfe's method with each minor cycle's affine min-norm point solved
    afresh by np.linalg.lstsq on the corral's atom differences, the
    reference for the oracle's updated QR factor. Appends to
    `dropped_first`, if given, whether each drop removed the first atom."""
    max_iter = oracle._cycle_budget(len(start))
    corral = start[None, :]
    lam = np.ones(1)
    y = start
    for _ in range(max_iter):
        dist = float(np.linalg.norm(y))
        if dist <= tol:
            return dist
        s = lmo(y)
        if float(y @ (y - s)) <= tol * dist:
            return dist
        corral = np.vstack([corral, s])
        lam = np.append(lam, 0.0)
        while True:
            a0 = corral[0]
            t = np.linalg.lstsq((corral[1:] - a0).T, -a0, rcond=None)[0]
            mu = np.concatenate([[1.0 - t.sum()], t])
            if mu.min() > 0.0:
                lam = mu
                break
            neg = np.flatnonzero(mu <= 0.0)
            ratios = lam[neg] / np.maximum(lam[neg] - mu[neg], 1e-300)
            j = int(np.argmin(ratios))
            lam = lam + ratios[j] * (mu - lam)
            keep = lam > 0.0
            keep[neg[j]] = False
            if dropped_first is not None:
                dropped_first.append(not keep[0])
            corral, lam = corral[keep], lam[keep] / lam[keep].sum()
        y = lam @ corral
    raise OracleError(f"min-norm point not reached in {max_iter} major cycles")


def on_reference(fn, *args, dropped_first=None):
    """fn(*args) with reference_min_norm_point in place of the oracle's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_min_norm_point", lambda lmo, start, tol: reference_min_norm_point(
            lmo, start, tol, dropped_first))
        return fn(*args)


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
        # and in R^0, where the query has no entries to set the stop
        assert hull_membership(np.zeros((1, 0)), np.zeros(0))

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

    def test_thin_clouds_far_from_the_origin(self):
        # three segments in R^48 at 1e7 spreads from the origin: the shifted
        # points' rounding, not LP_TOL, sets the stop of both oracles
        rng = np.random.default_rng(0)
        for _ in range(6):
            ends = rng.standard_normal((3, 2, 48))
            t = rng.random((3, 20, 1))
            pts = (ends[:, :1] + t * (ends[:, 1:] - ends[:, :1])).reshape(60, 48)
            pts = pts * 2.5e-5 - 610.0
            h = HullSpec(point_list=tuple(pts))
            c = pts.mean(axis=0)
            spread = np.abs(pts - c).max()
            for q in (c, pts[:20].mean(axis=0)):
                assert hull_membership(pts, q)
                assert union_hull_distance(h, q) <= 1e-6 * spread
            # a point a hundredth of the spread beyond a supporting plane
            u = rng.standard_normal(48)
            u /= np.linalg.norm(u)
            off = pts[int(np.argmax(pts @ u))] + 0.01 * spread * u
            assert not hull_membership(pts, off)
            assert union_hull_distance(h, off) >= 0.0099 * spread

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


def cloud(kind, rng, n, d):
    """n points in R^d: gaussian, gaussian with repeats, or on three
    segments, whose corrals become affinely dependent."""
    if kind == "gaussian":
        return rng.standard_normal((n, d))
    if kind == "repeated":
        base = rng.standard_normal((max(2, n // 3), d))
        return base[rng.integers(0, len(base), n)]
    ends = rng.standard_normal((3, 2, d))
    seg, t = rng.integers(0, 3, n), rng.random(n)
    return ends[seg, 0] + t[:, None] * (ends[seg, 1] - ends[seg, 0])


# the vertex nearest the origin starts the corral, but the hull's nearest
# point lies on the opposite edge, at distance 1: a minor cycle drops it
NEAREST_DROPPED = np.array([[0.5, 1.5], [-5.0, 1.0], [5.0, 1.0]])


class TestAgainstReference:
    """Both hull oracles on the updated QR factor against
    reference_min_norm_point's least-squares minor cycle."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["gaussian", "repeated", "collinear"]),
           st.integers(2, 48), st.data())
    def test_clouds_agree_with_reference(self, seed, kind, d, data):
        n = data.draw(st.integers(d + 1, 2 * d + 8))
        rng = np.random.default_rng(seed)
        pts = cloud(kind, rng, n, d)
        h = HullSpec(point_list=tuple(pts))
        c = pts.mean(axis=0)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        v = pts[int(np.argmax(pts @ u))]
        w = rng.random(n) + 0.05
        # inside, beyond a vertex along the ray from the centroid, off a
        # vertex along a direction it maximizes, and anywhere
        for q in ((w / w.sum()) @ pts, c + 1.05 * (v - c), v + 0.1 * u, rng.standard_normal(d)):
            assert hull_membership(pts, q) is on_reference(hull_membership, pts, q)
            assert union_hull_distance(h, q) == pytest.approx(
                on_reference(union_hull_distance, h, q), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 16, 48])
    def test_drop_of_the_first_atom(self, d):
        rng = np.random.default_rng(d)
        basis = np.linalg.qr(rng.standard_normal((d, 2)))[0]
        x = rng.standard_normal(d)
        pts = NEAREST_DROPPED @ basis.T + x
        h = HullSpec(point_list=tuple(pts))
        dropped = []
        ref = on_reference(union_hull_distance, h, x, dropped_first=dropped)
        assert dropped[0]
        assert ref == pytest.approx(1.0, abs=1e-12)
        assert union_hull_distance(h, x) == pytest.approx(ref, abs=1e-12)
        inside = x + basis @ np.array([0.0, 1.2])
        for q, expected in ((x, False), (inside, True)):
            assert hull_membership(pts, q) is on_reference(hull_membership, pts, q) is expected

    def test_no_least_squares_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        rng = np.random.default_rng(54)
        pts = rng.standard_normal((40, 16))
        h = HullSpec(point_list=tuple(pts), ellipsoid_list=(Ellipsoid.ball(np.ones(16), 0.5),))
        for q in (pts.mean(axis=0), 3.0 * pts[0], rng.standard_normal(16)):
            hull_membership(pts, q)
            union_hull_distance(h, q)
        tri = HullSpec(point_list=tuple(NEAREST_DROPPED))
        assert union_hull_distance(tri, np.zeros(2)) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def argmin_lmo(atoms):
        return lambda g: atoms[int(np.argmin(atoms @ g))]

    @pytest.mark.parametrize("seed", range(4))
    def test_stops_once_the_corral_spans_the_space(self, seed):
        # the origin inside a triangle: at tol = 0 the min-norm point is rounding, and the
        # next atom finds Q already spanning R^2 (the reference, with no such exit, needs a tol)
        atoms = np.random.default_rng(seed).standard_normal((3, 2))
        atoms -= atoms.mean(axis=0)
        dist = oracle._min_norm_point(self.argmin_lmo(atoms), atoms[0], 0.0)
        ref = reference_min_norm_point(self.argmin_lmo(atoms), atoms[0], 1e-14)
        assert 0.0 < dist < 1e-14 and ref < 1e-14

    def test_stops_at_its_atoms_rounding(self):
        # once |y| is 1, the LMO returns the 1e9 atom, already in the corral, on
        # every cycle: its gap <y, y - s> is rounding, about eps |s|, far above
        # tol |y|, and without a floor at the atoms' rounding it is added again
        # until the cycle budget runs out
        q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((3, 3)))
        atoms = np.array([[-1.0, 0.0, 1.0], [1e9, 0.0, 1.0], [5e8, 1e-9, 1.0 - 1e-9]]) @ q.T
        dist = oracle._min_norm_point(self.argmin_lmo(atoms), atoms[0], 1e-12)
        ref = reference_min_norm_point(self.argmin_lmo(atoms), atoms[0], 1e-12)
        assert ref == pytest.approx(1.0, abs=1e-12)
        assert dist == pytest.approx(ref, abs=oracle._ATOM_RES * np.abs(atoms).max())

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_untrusted_columns_are_refactored(self, d, monkeypatch):
        # no Gram-Schmidt column is trusted, so every atom added refactors D by Householder QR
        monkeypatch.setattr(oracle, "_TWICE_ENOUGH", math.inf)
        rng = np.random.default_rng(d)
        for shift in (0.0, 0.5, 3.0):
            atoms = rng.standard_normal((2 * d + 3, d)) + shift * rng.standard_normal(d)
            dist = oracle._min_norm_point(self.argmin_lmo(atoms), atoms[0], 1e-12)
            ref = reference_min_norm_point(self.argmin_lmo(atoms), atoms[0], 1e-12)
            assert dist == pytest.approx(ref, abs=1e-12)

    def test_d64_agrees_with_linprog(self):
        # CGS2's loss of orthogonality would show first in a corral of
        # d + 1 atoms, which an interior query at high d needs
        d, n = 64, 192
        rng = np.random.default_rng(55)
        pts = rng.standard_normal((n, d))
        h = HullSpec(point_list=tuple(pts))
        c = pts.mean(axis=0)
        queries = []
        for _ in range(2):
            w = rng.random(n) + 0.05
            queries.append(((w / w.sum()) @ pts, True))
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            queries.append((c + 1.05 * (pts[int(np.argmax(pts @ u))] - c), False))
            # where the ray c + t u leaves the hull: max t with
            # pts^T lam - t u = c, sum lam = 1, lam >= 0
            res = linprog(np.append(np.zeros(n), -1.0),
                          A_eq=np.vstack([np.hstack([pts.T, -u[:, None]]),
                                          np.append(np.ones(n), 0.0)]),
                          b_eq=np.append(c, 1.0), bounds=(0.0, None), method="highs")
            assert res.status == 0, res.message
            queries += [(c + (1.0 - 1e-4) * res.x[-1] * u, True),
                        (c + (1.0 + 1e-4) * res.x[-1] * u, False)]
        for q, expected in queries:
            assert linprog_membership(pts, q) is expected
            assert hull_membership(pts, q) is expected
            assert (union_hull_distance(h, q) <= 1e-7) is expected


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


@pytest.mark.parametrize("make, message", [
    (lambda: HullSpec(), "empty hull spec"),
    (lambda: mvee_khachiyan(SQUARE, eps=0.5), r"eps must lie in \(0, 0.5\)"),
], ids=["HullSpec", "mvee_khachiyan"])
def test_refusals(make, message):
    with pytest.raises(OracleError, match=message):
        make()


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

    def test_a_nan_margin_is_the_worst(self):
        # the raise at t = 4 drops both near-duplicate axes (rank 2 -> 1);
        # the sampled path's projection overflows at these scales, and its
        # NaN inner margin, which fails the step, is the worst margin
        steps = []
        run_fully_online(FAR_TWO_AXIS_DROP, on_step=lambda t, s: steps.append(s))
        s = steps[-1]
        assert s.kind == "irregular" and (s.prev.dim, s.state.dim) == (2, 1)
        cert = check_monotone_step(s)
        assert cert.outer_ok and not cert.inner_ok and cert.verdict == "fail"
        assert math.isnan(cert.worst_margin)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def sampled_certificate(s, tol=1e-7):
    """check_monotone_step on its sampled path alone, the reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_structured_margins", lambda steps, frames, tol: (
            np.zeros(len(steps)), np.zeros(len(steps)), np.zeros(len(steps), bool)))
        return check_monotone_step(s, tol)


def reference_structured_margins(prev: RoundingState, next_: RoundingState,
                                 frame: Frame, tol: float):
    """The per-step closed form that oracle._structured_margins vectorizes
    (see its docstring), kept as the reference: (outer, inner), or None
    where it does not apply."""
    k = len(frame.z)
    basis = next_.basis
    if next_.dim != k or not (basis is frame.basis or np.array_equal(basis, frame.basis)):
        return None
    rho = math.sqrt(frame.z @ frame.z)
    split_c = basis_split(next_.center, basis, next_.span_scale, prev.center)
    if rho == 0.0 or split_c.off:
        return None
    e1 = frame.z / rho
    c = frame.shear @ -split_c.coeffs
    factor = np.linalg.inv(next_.inverse)
    n = frame.shear @ factor
    g = n @ n.T
    p = float(e1 @ g @ e1)
    q, dg = p, 0.0
    if k > 1:
        q = (float(np.trace(g)) - p) / (k - 1)
        asym = g - np.outer((p - q) * e1, e1)
        asym.flat[::k + 1] -= q
        dg = math.sqrt(np.vdot(asym, asym))
    c_par = float(c @ e1)
    c_perp = c - c_par * e1
    c_perp = math.sqrt(c_perp @ c_perp)
    r = next_.inverse @ factor
    r.flat[::k + 1] -= 1.0
    r = math.sqrt(np.vdot(r, r))
    low, high = min(p, q), max(p, q)
    if not dg < low:
        return None
    alpha, alpha_n, raised = prev.alpha, next_.alpha, frame.raised

    def inner_at(x: float) -> float:
        h_prev = alpha * math.sqrt(1.0 - x * x) if raised else alpha
        return (max(h_prev, rho * x) - c_par * x
                - alpha_n * math.sqrt(low + (p - low) * x * x))

    x_star = (alpha / math.hypot(alpha, rho)) if raised else min(alpha / rho, 1.0)
    x_inner = min((-1.0, 1.0, x_star) if k > 1 else (-1.0, 1.0), key=inner_at)
    r_in = r / (1.0 - r) if r < 1.0 else math.inf
    inner_err = (c_perp + alpha_n * (dg + q - low) / (2.0 * math.sqrt(low))
                 + alpha_n * math.sqrt(high + dg) * r_in)

    if raised:
        reach2 = c_par * c_par / p + (1.0 / q if k > 1 else 0.0)
        w2 = 1.0 + c_par * c_par
    else:
        xs = [-1.0, 1.0]
        if k > 1 and p > q:
            # concave in x: the vertex may lie inside
            xs.append(min(1.0, max(-1.0, c_par * q / (q - p))))
        reach2 = max((x - c_par) ** 2 / p + ((1.0 - x * x) / q if k > 1 else 0.0)
                     for x in xs)
        w2 = (1.0 + abs(c_par)) ** 2
    reach = (math.sqrt(reach2 + dg / (low * (low - dg)) * w2)
             + c_perp / math.sqrt(low - dg)) * (1.0 + r)
    if max(inner_err, reach - math.sqrt(reach2)) > 0.1 * tol:
        return None
    reach_z = np.linalg.solve(n, frame.z - c)
    reach_z = math.sqrt(reach_z @ reach_z) * (1.0 + r)

    return 1.0 - max(reach, reach_z), inner_at(x_inner) - inner_err


def reference_certificates(steps, tol=oracle.MONOTONE_TOL):
    """check_monotone_steps one step at a time, by the scalar closed form:
    (the certificates, the indices of the steps that fall back)."""
    certs, fallbacks = [], []
    for i, s in enumerate(steps):
        fr = update_rule.frame(s.prev, s.split)
        margins = reference_structured_margins(s.prev, s.state, fr, tol)
        if margins is None:
            fallbacks.append(i)
            margins = oracle._sampled_margins(s.prev, s.state, s.z, fr)
        outer, inner = margins
        worst = min(outer, inner)
        limited = False
        if worst < -tol:
            resolution = (SPAN_RES * _norm(fr.shear)
                          * (_norm(s.prev.center) + _norm(s.split.delta)))
            limited = worst >= -resolution
        certs.append(oracle.StepCertificate(outer >= -tol, inner >= -tol, worst, limited))
    return certs, fallbacks


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


MUTATIONS = ["b+", "b-", "off-axis center", "shear"]


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
            outer, inner, ok = structured(*args)
            fallbacks.extend(~ok)
            return outer, inner, ok

        monkeypatch.setattr(oracle, "_structured_margins", counted)
        n = 0
        for pts in streams:
            steps = certified_steps(pts, w.verify_every)
            for s, fast in zip(steps, check_monotone_steps(steps, tol=1e-7)):
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
            outer, inner, ok = oracle._structured_margins(
                [s], [update_rule.frame(s.prev, s.split)], 1e-7)
            assert ok[0]
            margins = outer[0], inner[0]
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

    @classmethod
    def mutated_step(cls, alpha, mutation):
        """small_step, and a copy whose next body is mutated by 1e-3."""
        s, w, params = cls.small_step(alpha)
        nxt = s.state
        u2 = np.array([0.8, -0.6, 0.0])
        factor, center = np.linalg.inv(nxt.inverse), nxt.center
        if mutation in ("b+", "b-"):
            b = params.b + (1e-3 if mutation == "b+" else -1e-3)
            factor = b * np.eye(3) + (params.a - b) * np.outer(w, w)
        elif mutation == "off-axis center":
            center = center + 1e-3 * u2
        else:
            factor = factor @ (np.eye(3) + 1e-3 * np.outer(w, u2))
        return s, s._replace(state=RoundingState(center, nxt.basis, np.linalg.inv(factor),
                                                 _norm(factor), nxt.alpha, nxt.log_volume))

    @pytest.mark.parametrize("alpha", [0.5, 0.1])
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutated_steps_flagged(self, alpha, mutation):
        s, bad = self.mutated_step(alpha, mutation)
        fast = check_monotone_step(bad)
        ref = sampled_certificate(bad)
        assert fast.verdict == ref.verdict == "fail"
        assert fast.worst_margin <= ref.worst_margin + 1e-12
        assert check_monotone_step(s).verdict == "pass"

    def test_a_next_center_off_the_next_span_falls_back(self, monkeypatch):
        # below full rank the closed form needs the previous center in the
        # next body's span: a foreign step whose next center leaves a plane
        # of R^3 by 1e-3 goes to the sampled path, which refutes it
        prev = RoundingState.from_ellipsoid(Ellipsoid(np.zeros(3), np.eye(3)[:, :2], np.ones(2)),
                                            0.5)
        s = step(prev, np.array([0.6, 0.8, 0.0]) * 1.5)
        assert s.kind == "regular" and s.state.dim == 2
        nxt = s.state
        bad = s._replace(state=RoundingState(nxt.center + 1e-3 * np.eye(3)[2], nxt.basis,
                                             nxt.inverse, nxt.factor_norm, nxt.alpha,
                                             nxt.log_volume))
        sampled, calls = oracle._sampled_margins, []
        monkeypatch.setattr(oracle, "_sampled_margins",
                            lambda *args: calls.append(args) or sampled(*args))
        assert check_monotone_step(s).verdict == "pass" and calls == []
        assert check_monotone_step(bad).verdict == "fail" and len(calls) == 1

    def test_structured_step_needs_no_decomposition(self, monkeypatch):
        s, _, _ = self.small_step(0.5)
        calls = []
        for owner, name in ((np.linalg, "svd"), (np.linalg, "eigh"),
                            (Ellipsoid, "__post_init__")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
        # fresh states, so that no cached view hides a decomposition
        prev, nxt = (RoundingState(r.center, r.basis, r.inverse, r.factor_norm, r.alpha,
                                   r.log_volume)
                     for r in (s.prev, s.state))
        assert check_monotone_step(s._replace(prev=prev, state=nxt)).verdict == "pass"
        assert calls == []


def unit_drift(rng, n, d):
    """n points in R^d drifting out from 3: gaussian directions at radii e^(0.02 t)."""
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return 3.0 + g * np.exp(0.02 * np.arange(1, n + 1))[:, None]


def two_axis_drop(rng, n, d=4):
    # the raise toward z0 + e3 drops the two near-duplicate axes
    z0, e = np.arange(1.0, d + 1), np.eye(d)
    g = rng.choice([1e-12, 1e-11, 1e-10])
    return np.vstack([z0, z0 + g * e[0], z0 + g * e[1], z0 + e[2],
                      rng.standard_normal((n, d))])


def mapped(rng, n, d=6):
    # cond 1e6: the factor's cond_bound passes 1e6, and the kernel keeps its own M
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return rng.standard_normal((n, d)) @ (q * np.logspace(0, 6, d)).T + 3.0


def scaled(rng, n, d=5):
    # squares of the coordinates overflow or underflow
    f = rng.choice([1e154, 1e300, 2.0 ** 600, 2.0 ** -600, 1e-170, 1e-200])
    return rng.standard_normal((n, d)) * f


CHAINS = {"drift": lambda rng: unit_drift(rng, 50, int(rng.integers(1, 7))),
          "two-axis drop": lambda rng: two_axis_drop(rng, 30),
          "mapped": lambda rng: mapped(rng, 40),
          "scaled": lambda rng: scaled(rng, 50)}


def chain_steps(pts, driver):
    """The steps a driver certifies on pts; the seeded driver's seed ball is
    the points' mean at a tenth of their spread."""
    steps = []

    def observer(t, s):
        if s.split is not None:
            steps.append(s)

    if driver == "seeded":
        c0 = pts.mean(axis=0)
        run_seeded(pts, c0, 0.1 * np.abs(pts - c0).max(), on_step=observer)
    else:
        {"online": run_fully_online, "coreset": run_coreset}[driver](pts, on_step=observer)
    return steps


class TestBlockCertificate:
    """check_monotone_steps against reference_certificates, the per-step
    closed form it vectorizes."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(CHAINS)), st.sampled_from(["online", "seeded", "coreset"]),
           st.integers(0, 2**32 - 1), st.sampled_from(MUTATIONS), st.booleans(), st.booleans())
    def test_blocks_match_the_scalar_reference(self, chain, driver, seed, mutation, repeat,
                                               shuffle):
        rng = np.random.default_rng(seed)
        pts = CHAINS[chain](rng)
        # the seeded driver needs d >= 2
        steps = chain_steps(pts, "online" if pts.shape[1] == 1 else driver)
        # a mutated step and its sound original among the chain's steps
        steps += TestStructuredCertificate.mutated_step(rng.choice([0.5, 0.1]), mutation)
        if repeat:
            # some steps twice in one block, their states with them
            steps += [steps[i] for i in rng.integers(0, len(steps), len(steps) // 2 + 1)]
        if shuffle:
            steps = [steps[i] for i in rng.permutation(len(steps))]
        structured, closed = oracle._structured_margins, {}

        def recorded(block, frames, tol):
            outer, inner, ok = structured(block, frames, tol)
            closed.update((id(s), m) for s, *m, good in zip(block, outer, inner, ok) if good)
            return outer, inner, ok

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_structured_margins", recorded)
            certs = check_monotone_steps(steps)
        refs, fallbacks = reference_certificates(steps)
        assert [i for i, s in enumerate(steps) if id(s) not in closed] == fallbacks
        for s, cert, ref in zip(steps, certs, refs):
            assert (cert.outer_ok, cert.inner_ok, cert.resolution_limited) == \
                (ref.outer_ok, ref.inner_ok, ref.resolution_limited)
            assert cert.worst_margin == pytest.approx(ref.worst_margin, abs=1e-13)
            if id(s) in closed:
                fr = update_rule.frame(s.prev, s.split)
                assert closed[id(s)] == pytest.approx(
                    reference_structured_margins(s.prev, s.state, fr, 1e-7), abs=1e-13)
        assert len(certs) == len(steps)

    @pytest.mark.parametrize("shift", [-0.3, -0.02, 0.0, 0.02, 0.3])
    def test_a_moved_center_at_rank_1(self, shift):
        # the previous body's reach at rank 1 is the larger of x = -1 and x = 1,
        # whichever side of the previous center the next one lies; with z
        # inside the previous body, z's own reach does not cover for it
        prev = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(1), 1.0), 0.5)
        s = step(prev, np.array([0.5]))
        s = s._replace(state=RoundingState(prev.center + shift, prev.basis, prev.inverse,
                                           prev.factor_norm, prev.alpha, prev.log_volume))
        fr = update_rule.frame(s.prev, s.split)
        outer, inner, ok = oracle._structured_margins([s], [fr], 1e-7)
        assert ok[0]
        assert (outer[0], inner[0]) == pytest.approx(
            reference_structured_margins(s.prev, s.state, fr, 1e-7), abs=1e-13)

    def test_no_steps(self):
        assert check_monotone_steps([]) == []

    def test_peak_memory_of_a_block(self):
        # one call over a drifting d = 64 stream holds at most four k x k
        # stacks per step at a time
        d = 64
        g = np.random.default_rng(3).standard_normal((3 * d, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts = g * np.exp(0.002 * np.arange(3 * d))[:, None]
        steps = certified_steps(pts)
        assert len(steps) == 190
        tracemalloc.start()
        try:
            assert {c.verdict for c in check_monotone_steps(steps)} == {"pass"}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * len(steps) * d * d


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

    def test_one_point_is_refused(self):
        with pytest.raises(OracleError, match=r"need at least 2 point\(s\), got 1"):
            mvee_khachiyan([np.array([0.1, 0.2])])

    def test_a_stop_the_fresh_inverse_refutes_goes_on(self, monkeypatch):
        # the first inverse reads every m_i = r + 1, a stop at once; the fresh
        # inverse refutes it, and the iterations go on to the stop's bound
        exact = oracle._lifted_inverse
        calls = []

        def first_reads_optimal(q, u):
            x_inv, m = exact(q, u)
            calls.append(1)
            return (x_inv, np.full_like(m, len(q))) if len(calls) == 1 else (x_inv, m)

        monkeypatch.setattr(oracle, "_lifted_inverse", first_reads_optimal)
        pts = np.random.default_rng(56).standard_normal((60, 3))
        eps = 1e-6
        e = mvee_khachiyan(pts, eps=eps)
        assert len(calls) >= 2
        self.assert_covering_and_near_optimal(pts, eps, e)

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
    def assert_covering_and_near_optimal(pts, eps, e):
        r = e.rank
        bound = math.sqrt(1.0 + eps * (r + 1) / r) - 1.0
        assert max(membership(e, p) for p in pts) <= bound + 1e-12
        ref = mvee_khachiyan(pts, eps=1e-10)
        gap = 0.5 * r * math.log1p(eps * (r + 1) / r)
        assert abs(log_volume(e) - log_volume(ref)) <= gap + 1e-9

    def test_extreme_start_is_sparse_and_nonsingular(self):
        rng = np.random.default_rng(8)
        for r in range(1, 9):
            for pts in (rng.standard_normal((40, r)), rng.uniform(-1.0, 1.0, (300, r)),
                        self.drifting_cloud(r, 600, r), rng.standard_normal((r + 1, r))):
                p = pts - pts.mean(axis=0)
                u = oracle._extreme_start(p)
                assert np.count_nonzero(u) <= 2 * r
                assert u.min() >= 0.0
                assert u.sum() == pytest.approx(1.0, abs=1e-15)
                q = np.vstack([p.T, np.ones(len(p))])
                assert np.linalg.matrix_rank(q @ (u[:, None] * q.T)) == r + 1

    @pytest.mark.parametrize("d", [2, 3, 6, 8])
    def test_extreme_start_on_a_simplex_is_every_vertex(self, d):
        verts = simplex_vertices(d)
        interior = np.random.default_rng(d).dirichlet(np.ones(d + 1), 200) @ verts
        for pts in (verts, np.vstack([verts, interior])):
            u = oracle._extreme_start(pts - pts.mean(axis=0))
            assert np.array_equal(u[:d + 1], np.full(d + 1, 1.0 / (d + 1)))
            assert not u[d + 1:].any()

    def test_start_on_a_drifting_cloud_covers(self):
        # a few dozen of the 600 points support the optimum: the iterations
        # from the start must still reach every point
        pts = self.drifting_cloud(1)
        assert np.count_nonzero(oracle._extreme_start(pts - pts.mean(axis=0))) <= 12
        eps = 1e-3
        self.assert_covering_and_near_optimal(pts, eps, mvee_khachiyan(pts, eps=eps))

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

    def test_grid_reads_the_kernels_params(self, monkeypatch):
        # the grid claims test the floats compute_params gives, not a copy of its formulas
        exact = oracle.compute_params
        monkeypatch.setattr(oracle, "compute_params", lambda g, a: exact(g, a)._replace(b=0.5))
        slack = {r.claim_id: r.worst_slack for r in inequality_suite()}
        assert slack["params_pad_floor"] == -0.5
