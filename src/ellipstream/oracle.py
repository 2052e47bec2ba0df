"""Brute-force and exact verification utilities.

Everything in this module exists to check the geometry layer from the
outside: min-norm-point hull membership and distance (to the hull of a
union of points and ellipsoids), per-step monotonicity certificates, an
offline enclosing-ellipsoid baseline, and dense grids over the closed-form
scalar inequalities the update rule relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .ellipsoid import (SPAN_RES, Ellipsoid, _norm, _unit_directions, basis_split,
                        containment_margin, membership, row_norms, safe_row_norms)
# looked up here by perfbench/tracing.py
from .ellipsoid import log_volume  # noqa: F401
from .update_rule import Frame, RoundingState, Step, compute_params, frame, solve_gamma

# the min-norm-point stopping tolerance of both hull oracles: in units of
# the members' spread for hull_membership, of x for union_hull_distance
LP_TOL = 1e-9
# the floor on that stop, in spread units: the rounding of the shifted
# atoms, _ATOM_RES (1 + 2 |x|_inf / spread); _min_norm_point floors any
# tol at _ATOM_RES max |atom|_inf once it refactors
_ATOM_RES = 64 * np.finfo(float).eps
# _min_norm_point trusts a Gram-Schmidt column when the second pass keeps
# this much of the first's residual (Daniel, Gragg, Kaufman & Stewart 1976)
_TWICE_ENOUGH = 1.0 / math.sqrt(2.0)
# check_monotone_step's default tolerance on a margin
MONOTONE_TOL = 1e-7
_DIR_SEED = 987654321
# check_monotone_step's sampled falsifier directions and slice resolution
_N_SAMPLE_DIRS = 4096
_N_SLICE = 2048
# the slice's angles as (cos, sin) columns, and the fine offsets swept
# around its worst angle
_SLICE_ANGLES = np.linspace(0.0, 2.0 * math.pi, _N_SLICE, endpoint=False)
_SLICE_COS, _SLICE_SIN = np.cos(_SLICE_ANGLES), np.sin(_SLICE_ANGLES)
_FINE_OFFSETS = np.linspace(-2.0 * math.pi / _N_SLICE, 2.0 * math.pi / _N_SLICE, 64)
# mvee_khachiyan's iteration budget; it recomputes inv(X) from scratch
# every _MVEE_RESYNC iterations
MVEE_MAX_ITER = 100000
_MVEE_RESYNC = 1000
# points per axis of inequality_suite's (gamma, alpha) grid
GRID_DENSITY = 100


class OracleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# hull membership and distance by Wolfe's min-norm-point method


def _cycle_budget(d: int) -> int:
    """Major cycles both hull oracles allow in dimension d: an interior
    query needs d + 1 or more. The benchmark's certify queries take d + 1
    in the median and at most d + 3 (35 at d = 32), and points outside
    their hulls at most d + 4."""
    return 20 * (d + 1)


def _min_norm_point(lmo: Callable[[np.ndarray], np.ndarray],
                    start: np.ndarray, tol: float) -> float:
    """Norm of the point of least norm in conv(atoms), by Wolfe (1976).

    The atoms are shifted so that the query is the origin; `lmo(g)`
    returns an atom minimizing <atom, g>. Each major cycle adds the atom s
    the current point y sees best to the corral; the minor cycles then move
    y to the affine min-norm point of the corral, dropping one atom per
    cycle whenever that point leaves the hull. Stops once |y| <= tol or
    Wolfe's gap <y, y - s> <= tol*|y|, which bounds |y| - dist by tol.
    From the first refactor on (see below), tol is floored at the atoms'
    rounding, _ATOM_RES max |atom|_inf over the corrals factored so far.
    An atom the LMO returns while it is in the corral has a gap of
    rounding, about eps |s|, which can pass tol*|y| on every cycle; its
    column is rounding too, so it is not trusted or it is dropped again
    (or it fills Q, the m = d exit), and either way it reaches a refactor,
    after which the floor stops the routine. Refactors are rare, so the
    floor costs no scan per cycle.
    Raises OracleError when neither holds within _cycle_budget(d) major
    cycles.

    The minor cycles find the affine weights mu = (1 - sum t, t) from
    R t = -Q^T a0, for a thin QR factor of the atom differences
    D = [a_i - a0]: unlike a bordered Gram system, it keeps the corral's
    own conditioning, however far the corral is from 0. Q and R^-1 are
    kept, so t costs two mat-vecs. An added atom appends one column to
    each, by classical Gram-Schmidt applied twice (Daniel, Gragg, Kaufman
    & Stewart 1976) at O(d m) cost. Its residual w off the span of D is
    not 0: y is orthogonal to every a_i - a0 and <y, a0> = |y|^2, so the
    gap equals -<y, w> and exceeds tol*|y| only if |w| > tol. Where
    rounding gives a larger gap with |w| <= tol, the gap read off the
    factor meets the stop, so the routine returns rather than add that
    atom. A column whose second pass cancels more than 1 - _TWICE_ENOUGH
    of the first's residual is not trusted, and D is factored afresh by
    Householder QR, as after every drop; drops are rare (1-6% of the
    minor cycles on the benchmark workloads' queries).
    """
    d = len(start)
    max_iter = _cycle_budget(d)
    corral = start[None, :]
    lam = np.ones(1)
    y = start
    stop = tol
    # D = Q R, with Q and R^-1 in the leading m columns; at most d atom
    # differences are independent
    q_buf, r_inv, m = np.zeros((d, d)), np.zeros((d, d)), 0
    for _ in range(max_iter):
        dist = float(np.linalg.norm(y))
        if dist <= stop:
            return dist
        s = lmo(y)
        if float(y @ (y - s)) <= stop * dist:
            return dist
        q = q_buf[:, :m]
        v = s - corral[0]
        h = v @ q
        w1 = v - q @ h
        h2 = w1 @ q
        w = w1 - q @ h2
        rnn = math.sqrt(w @ w)
        # once Q spans R^d, w is rounding too
        if rnn <= stop or m == d:
            return dist
        corral = np.vstack([corral, s])
        lam = np.append(lam, 0.0)
        if rnn >= _TWICE_ENOUGH * math.sqrt(w1 @ w1):
            # R gains the column (h + h2, rnn), so R^-1 gains this one
            q_buf[:, m] = w / rnn
            r_inv[:m, m] = r_inv[:m, :m] @ (h + h2) / -rnn
            r_inv[m, m] = 1.0 / rnn
            m += 1
        else:
            m, top = _factor(corral, q_buf, r_inv)
            stop = max(stop, _ATOM_RES * top)
        while True:
            t = r_inv[:m, :m] @ -(corral[0] @ q_buf[:, :m])
            mu = np.concatenate([[1.0 - t.sum()], t])
            if mu.min() > 0.0:
                lam = mu
                break
            # walk from lam toward mu until the first weight hits zero, and
            # drop the atom that sets the ratio even if it rounds to zero
            neg = np.flatnonzero(mu <= 0.0)
            ratios = lam[neg] / np.maximum(lam[neg] - mu[neg], 1e-300)
            j = int(np.argmin(ratios))
            lam = lam + ratios[j] * (mu - lam)
            keep = lam > 0.0
            keep[neg[j]] = False
            corral, lam = corral[keep], lam[keep] / lam[keep].sum()
            m, top = _factor(corral, q_buf, r_inv)
            stop = max(stop, _ATOM_RES * top)
        y = lam @ corral
    raise OracleError(f"min-norm point not reached in {max_iter} major cycles")


def _factor(corral: np.ndarray, q_buf: np.ndarray, r_inv: np.ndarray) -> Tuple[int, float]:
    """Householder QR of the corral's atom differences: Q into the leading
    columns of q_buf, R^-1 into the leading block of r_inv; returns their
    count and the atoms' largest |entry|, the scale of their rounding."""
    q, r = np.linalg.qr((corral[1:] - corral[0]).T)
    m = len(r)
    q_buf[:, :m], r_inv[:m, :m] = q, np.linalg.inv(r)
    return m, float(np.abs(corral).max())


def _rows(points: Sequence[np.ndarray], least: int) -> np.ndarray:
    """A point set as finite (n, d) float rows, n >= least; OracleError
    otherwise, naming the shape it got."""
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError:
        shapes = sorted({np.shape(p) for p in points})
        raise OracleError(f"points of shapes {shapes}, not (n, d) rows") from None
    if pts.ndim != 2:
        raise OracleError(f"points of shape {pts.shape}, not (n, d) rows")
    if len(pts) < least:
        raise OracleError(f"need at least {least} point(s), got {len(pts)}")
    if not np.all(np.isfinite(pts)):
        raise OracleError("non-finite inputs")
    return pts


def _hull_distance(points: np.ndarray, ellipsoids: Sequence[Ellipsoid], x: np.ndarray,
                   tol: Callable[[float], float]) -> Tuple[float, float, float]:
    """(dist / spread, spread, stop) for the distance dist from x to
    conv(points union ellipsoids), by Wolfe's method on the members shifted
    by -x and divided by their spread about x, max |member - x|_inf, so
    that translation and scale drop out. It starts at the nearest point (the
    nearest ellipsoid center if there are none) and stops, in spread units,
    at tol(spread) or, where coarser, at the atoms' rounding: an atom
    carries about eps (|x|_inf + |member|_inf) / spread, and |member|_inf
    <= |x|_inf + spread, so the floor is _ATOM_RES (1 + 2 |x|_inf / spread).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != points.shape[1:]:
        raise OracleError(f"query of shape {x.shape}, not a vector of dimension "
                          f"{points.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise OracleError("non-finite inputs")
    atoms = points - x
    ells = [(e.center - x, e.axes, e.semiaxes) for e in ellipsoids]
    # a spread of 0, where every member is x, leaves the members as they are
    spread = max([float(np.abs(atoms).max(initial=0.0))]
                 + [float((np.abs(c) + row_norms(axes * s)).max()) for c, axes, s in ells]) or 1.0
    atoms /= spread
    ells = [(c / spread, axes, s / spread) for c, axes, s in ells]

    def lmo(g: np.ndarray) -> np.ndarray:
        best = atoms[int(np.argmin(atoms @ g))] if len(atoms) else None
        for c, axes, s in ells:
            # the ellipsoid's farthest point against g
            coeff = s * (axes.T @ g)
            cn = math.sqrt(coeff @ coeff)
            cand = c - axes @ (s * coeff / cn) if cn > 0.0 else c
            if best is None or cand @ g < best @ g:
                best = cand
        return best

    starts = atoms if len(atoms) else np.array([c for c, _, _ in ells])
    start = starts[int(np.argmin(np.einsum("ij,ij->i", starts, starts)))]
    stop = max(tol(spread), _ATOM_RES * (1.0 + 2.0 * float(np.abs(x).max(initial=0.0)) / spread))
    return _min_norm_point(lmo, start, stop), spread, stop


def hull_membership(points: Sequence[np.ndarray], x: np.ndarray) -> bool:
    """Is x within 10 stops of the points' convex hull, where the stop is
    LP_TOL spreads or the rounding of the shifted points, whichever is
    coarser (see _hull_distance)? Raises OracleError rather than guess when
    the solver does not settle."""
    dist, _, stop = _hull_distance(_rows(points, 1), (), x, lambda spread: LP_TOL)
    return dist <= 10 * stop


@dataclass(frozen=True, eq=False)
class HullSpec:
    """conv of a union of points and ellipsoids of one dimension; `points`
    stacks point_list as (n, d) rows."""

    point_list: Tuple[np.ndarray, ...] = ()
    ellipsoid_list: Tuple[Ellipsoid, ...] = ()
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (len(self.point_list) or len(self.ellipsoid_list)):
            raise OracleError("empty hull spec")
        dims = {e.dim for e in self.ellipsoid_list}
        pts = _rows(self.point_list, 0) if len(self.point_list) else np.zeros((0, min(dims)))
        dims.add(pts.shape[1])
        if len(dims) > 1:
            raise OracleError(f"members of dimensions {sorted(dims)}")
        object.__setattr__(self, "points", pts)


def union_hull_distance(h: HullSpec, x: np.ndarray) -> float:
    """Distance from x to conv(points union ellipsoids), by hull_membership's
    routine; it stops at LP_TOL in x's units or at the rounding of the
    shifted members, whichever is coarser. Raises OracleError as
    hull_membership does."""
    dist, spread, _ = _hull_distance(h.points, h.ellipsoid_list, x, lambda spread: LP_TOL / spread)
    return spread * dist


# ---------------------------------------------------------------------------
# monotone-step certification


@dataclass(frozen=True)
class StepCertificate:
    """One step's margins. A check fails when its margin is below -tol;
    when every failing margin still lies within the rounding of the
    bodies' coordinates, SPAN_RES * (|c| + |delta|) in frame units, the
    step is `resolution_limited`: float64 cannot tell it from a pass."""

    outer_ok: bool
    inner_ok: bool
    worst_margin: float
    resolution_limited: bool = False

    @property
    def verdict(self) -> str:
        """pass | resolution_limited | fail"""
        if self.outer_ok and self.inner_ok:
            return "pass"
        return "resolution_limited" if self.resolution_limited else "fail"


def _orthogonal(e1: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to the unit vector e1 (len(e1) >= 2)."""
    probe = np.zeros(len(e1))
    probe[int(np.argmin(np.abs(e1)))] = 1.0
    e2 = probe - e1 * (e1 @ probe)
    return e2 / math.sqrt(e2 @ e2)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for the rows of two (n, m) arrays, by the product a 1-D `@`
    makes, so that each rounds as one step's dot product does."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _structured_margins(steps: Sequence[Step], frames: Sequence[Frame], tol: float):
    """(outer, inner, ok) arrays over a block of steps whose frames share a
    size k and the raised flag, each next body on its frame's basis, in
    closed form from one k x k Gram per step; ok is False where that does
    not apply: z at the previous center, the previous center off the next
    span, or a bound on the next body's asymmetry above tol/10.

    In the frame the previous outer body is the unit ball B. The next state
    keeps only the inverse M' of its factor: with T' = inv(M') by LU and its
    residual R = M' T' - I, the next outer body is c + N (I + R)^-1 B for N
    = shear @ T'. The closed form measures c + N B, then widens. With
    e1 = z/|z| = z/rho, split G = N N^T as p e1 e1^T + q (I - e1 e1^T) + dG
    and c as c_par e1 + c_perp. For the symmetric part each margin is a
    function of x = <u, e1> alone:
    - inner: max(h_prev(x), rho x) - c_par x - alpha' sqrt(q + (p - q) x^2),
      with h_prev = alpha, or alpha sqrt(1 - x^2) after a raise. For p >= q
      both pieces either side of the switch point x* are concave, so the
      minimum is at x in {-1, x*, 1}; a q above p joins dG.
    - outer: the reach of the previous body in the next one, max over the
      sphere of (x - c_par)^2 / p + (1 - x^2) / q, a quadratic in x (at
      x = 0 after a raise, where the previous body is the disk orthogonal
      to e1). The reach of z is |N^-1 (z - c)|, by one solve.
    The asymmetric parts enter by rigorous bounds: |c_perp|, alpha' |dG|_F
    / (2 sqrt(min(p, q))) on the inner support, Weyl's bounds on |G^-1 -
    G0^-1| and on the smallest singular value of N for the reach, and r =
    |R|_F for the rebuilt T'. For r < 1, |(I + R)^-1 v| lies in |v| / (1
    -+ r), so the body lies between c + N B / (1 + r) and c + N B / (1 - r):
    the reach of a point, |(I + R) N^-1 (x - c)|, is at most (1 + r) times
    N's, and the inner support alpha' |(I + R)^-T N^T u| in a unit
    direction u at most alpha' |N^T u| r / (1 - r) above N's, with |N^T u|^2
    <= max(p, q) + |dG|_F. An r of 1 or more falls back.

    Each step is computed as its own k x k problem, stacked from the step's
    own arrays: its frame's shear (after a regular step the previous inverse
    M), its next state's inverse and the previous center's coordinates in
    the next span, delta at full rank and basis_split's below it; so only
    k x k arrays are stacked, and a state two steps share is stacked twice.
    The stacked products and dot products (`_dots`) round as one step's do,
    and the comparisons take Python's max and min order, so a NaN falls on
    the side the per-step form puts it.
    """
    n, k, raised = len(steps), len(frames[0].z), frames[0].raised
    prevs, nexts = [s.prev for s in steps], [s.state for s in steps]
    alpha = np.array([s.alpha for s in prevs])
    alpha_n = np.array([s.alpha for s in nexts])
    z = np.array([fr.z for fr in frames])

    # the previous center against the next body's span, by basis_split; a
    # full-rank next body is ambient (its basis is I), so there the
    # coordinates are delta itself and nothing is off-span
    if k == len(prevs[0].center):
        coeffs = np.array([s.center for s in prevs]) - np.array([s.center for s in nexts])
        off = np.zeros(n, dtype=bool)
    else:
        splits = [basis_split(s.center, s.basis, s.span_scale, p.center)
                  for p, s in zip(prevs, nexts)]
        coeffs = np.array([sp.coeffs for sp in splits])
        off = np.array([sp.off for sp in splits])

    # T' = inv(M') by one batched LU per step, and r = |M' T' - I|_F. The
    # k x k stacks are dropped once read: at high k they are most of a
    # block's memory
    shear, n_inv = np.array([fr.shear for fr in frames]), np.array([s.inverse for s in nexts])
    n_fac = np.linalg.inv(n_inv)
    r = (n_inv @ n_fac).reshape(n, k * k)
    r[:, ::k + 1] -= 1.0
    r = np.sqrt(_dots(r, r))
    del n_inv
    c = (shear @ -coeffs[:, :, None])[:, :, 0]
    nn = shear @ n_fac
    del shear, n_fac

    with np.errstate(all="ignore"):
        rho = np.sqrt(_dots(z, z))
        e1 = z / rho[:, None]
        g = nn @ nn.transpose(0, 2, 1)
        p = _dots((e1[:, None, :] @ g)[:, 0], e1)
        q, dg = p, 0.0
        if k > 1:
            q = (g.trace(axis1=1, axis2=2) - p) / (k - 1)
            # g becomes the asymmetric part dG
            g -= ((p - q)[:, None] * e1)[:, :, None] * e1[:, None, :]
            g = g.reshape(n, k * k)
            g[:, ::k + 1] -= q[:, None]
            dg = np.sqrt(_dots(g, g))
        del g
        c_par = _dots(c, e1)
        c_perp = c - c_par[:, None] * e1
        c_perp = np.sqrt(_dots(c_perp, c_perp))
        low = np.where(q < p, q, p)
        high = np.where(q > p, q, p)
        r_in = np.where(r < 1.0, r / (1.0 - r), np.inf)

        # the inner margin at x = -1, 1 and, for k > 1, the switch point x*
        if raised:
            x_star = alpha / np.hypot(alpha, rho)
        else:
            x_star = alpha / rho
            x_star = np.where(1.0 < x_star, 1.0, x_star)
        ones = np.ones(n)
        xs = np.array([-ones, ones, x_star] if k > 1 else [-ones, ones])
        h_prev = alpha * np.sqrt(1.0 - xs * xs) if raised else alpha
        support = rho * xs
        at_x = (np.where(support > h_prev, support, h_prev) - c_par * xs
                - alpha_n * np.sqrt(low + (p - low) * xs * xs))
        inner = at_x[0]
        for v in at_x[1:]:
            inner = np.where(v < inner, v, inner)
        inner_err = (c_perp + alpha_n * (dg + q - low) / (2.0 * np.sqrt(low))
                     + alpha_n * np.sqrt(high + dg) * r_in)

        if raised:
            reach2 = c_par * c_par / p + (1.0 / q if k > 1 else 0.0)
            w2 = 1.0 + c_par * c_par
        else:
            def reach2_at(x):
                return (x - c_par) ** 2 / p + ((1.0 - x * x) / q if k > 1 else 0.0)

            reach2, at_x = reach2_at(-1.0), reach2_at(1.0)
            reach2 = np.where(at_x > reach2, at_x, reach2)
            if k > 1:
                # concave in x where p > q: the vertex may lie inside
                x = c_par * q / (q - p)
                x = np.where(x > -1.0, x, -1.0)
                at_x = reach2_at(np.where(x < 1.0, x, 1.0))
                reach2 = np.where((p > q) & (at_x > reach2), at_x, reach2)
            w2 = (1.0 + np.abs(c_par)) ** 2
        reach = (np.sqrt(reach2 + dg / (low * (low - dg)) * w2)
                 + c_perp / np.sqrt(low - dg)) * (1.0 + r)
        err = reach - np.sqrt(reach2)
        err = np.where(err > inner_err, err, inner_err)
        ok = ~((rho == 0.0) | off | ~(dg < low) | (err > 0.1 * tol))
        reach_z = np.zeros(n)
        if ok.any():
            solved = np.linalg.solve(nn[ok], (z - c)[ok][:, :, None])[:, :, 0]
            reach_z[ok] = np.sqrt(_dots(solved, solved)) * (1.0 + r[ok])
    return 1.0 - np.where(reach_z > reach, reach_z, reach), inner - inner_err, ok


def _sampled_margins(prev: RoundingState, next_: RoundingState, z: np.ndarray,
                     frame: Frame):
    """(outer, inner) by brute force. The outer checks are the
    exact containment search and membership on the SVD views. The inner
    margin is taken over a 2-D slice through z's direction (exact for the
    rotation-symmetric bodies the update rule builds), refined around its
    worst angle, and over random directions of the whole frame, which act
    as a falsifier."""
    prev_e, next_e = prev.ellipsoid, next_.ellipsoid
    outer = _least(-containment_margin(next_e, prev_e), -membership(next_e, z))

    def project(vecs: np.ndarray) -> np.ndarray:
        return frame.shear @ (frame.basis.T @ vecs)

    k = len(frame.z)
    c_in = project(next_.center - prev.center)
    m_in = next_.alpha * project(next_e.axes * next_e.semiaxes)
    prev_a, z_n, raised = prev.alpha, frame.z, frame.raised

    def margin_for(dirs: np.ndarray) -> np.ndarray:
        # dirs: (n, k) unit directions in the frame
        h_next = dirs @ c_in + safe_row_norms(dirs @ m_in)
        h_prev = prev_a * safe_row_norms(dirs[:, :k - 1]) if raised else prev_a
        return np.maximum(h_prev, dirs @ z_n) - h_next

    zn = _norm(z_n)
    e1 = z_n / zn if zn > 1e-12 else np.eye(k)[:, 0]
    inner = math.inf
    if k >= 2:
        # the slice, then the fine sweep around its worst angle
        e2 = _orthogonal(e1)
        slice_margins = margin_for(_SLICE_COS[:, None] * e1 + _SLICE_SIN[:, None] * e2)
        worst_idx = int(np.argmin(slice_margins))
        inner = float(slice_margins[worst_idx])
        fine = 2.0 * math.pi * worst_idx / _N_SLICE + _FINE_OFFSETS
        dirs = np.cos(fine)[:, None] * e1 + np.sin(fine)[:, None] * e2
    else:
        dirs = np.array([[1.0], [-1.0]]) * e1[None, :]
    falsifier = _unit_directions(_N_SAMPLE_DIRS, k, _DIR_SEED)
    return outer, _least(inner, float(margin_for(dirs).min()),
                         float(margin_for(falsifier).min()))


def _least(*values: float) -> float:
    """The least of the values, NaN if any is NaN (Python's min keeps a NaN only in first place)."""
    return math.nan if any(v != v for v in values) else min(values)


def check_monotone_steps(steps: Sequence[Step],
                         tol: float = MONOTONE_TOL) -> List[StepCertificate]:
    """Certify monotone steps of the kernel (not init or local), one
    certificate per step in order: the previous outer body and z inside the
    next outer body, and the next inner body inside the hull of the previous
    inner body and z, each with margins in the step's `frame`, the kernel's
    own.

    The update rule grows bodies of revolution about z's direction, so
    _structured_margins certifies the steps in closed form, one pass per
    group of steps with the same frame size and raised flag, each step from
    its own arrays. _sampled_margins checks by brute force a near-duplicate
    drop, a step the kernel did not build (its next body off the frame's
    basis) and a step whose rounding bounds pass tol/10 (cond_bound ~1e8 and
    up). The tests take the sampled path as the reference. A block's peak
    memory is about four k x k stacks per step of its largest group, at
    every rank: no basis is stacked.
    A margin past float64's range reads -inf or NaN, fails, and is the
    step's worst_margin; numpy's floating-point warnings are off throughout.
    """
    with np.errstate(all="ignore"):
        frames, groups = [], {}
        for i, s in enumerate(steps):
            prev, next_, split = s.prev, s.state, s.split
            if split is None or not (prev.center.shape == next_.center.shape == s.z.shape):
                raise OracleError(f"{s.kind} step: no split to certify, or a span mismatch")
            fr = frame(prev, split)
            frames.append(fr)
            k = len(fr.z)
            # the closed form needs the next body on the frame's basis
            if next_.dim == k and (next_.basis is fr.basis
                                   or np.array_equal(next_.basis, fr.basis)):
                groups.setdefault((k, fr.raised), []).append(i)
        margins = [None] * len(steps)
        for idx in groups.values():
            outer, inner, ok = _structured_margins([steps[i] for i in idx],
                                                   [frames[i] for i in idx], tol)
            for i, o, n, good in zip(idx, outer.tolist(), inner.tolist(), ok.tolist()):
                if good:
                    margins[i] = o, n
        certs = []
        for s, fr, pair in zip(steps, frames, margins):
            outer, inner = pair or _sampled_margins(s.prev, s.state, s.z, fr)
            worst = _least(outer, inner)
            limited = False
            if worst < -tol:
                resolution = (SPAN_RES * _norm(fr.shear)
                              * (_norm(s.prev.center) + _norm(s.split.delta)))
                limited = worst >= -resolution
            certs.append(StepCertificate(outer_ok=outer >= -tol, inner_ok=inner >= -tol,
                                         worst_margin=worst, resolution_limited=limited))
        return certs


def check_monotone_step(step: Step, tol: float = MONOTONE_TOL) -> StepCertificate:
    """check_monotone_steps on one step."""
    return check_monotone_steps([step], tol)[0]


# ---------------------------------------------------------------------------
# offline enclosing-ellipsoid baseline


def _lifted_inverse(q: np.ndarray, u: np.ndarray):
    """inv(X) for X = q diag(u) q^T, and m_i = q_i^T inv(X) q_i."""
    x_inv = np.linalg.inv(q @ (u[:, None] * q.T))
    return x_inv, np.einsum("in,in->n", q, x_inv @ q)


def _extreme_start(p: np.ndarray) -> np.ndarray:
    """Kumar & Yildirim's (2005) start for n points in R^r centred at their
    mean: uniform weight on the two extreme points along each of r
    directions, the i-th the largest residual of a point off the span of
    the first i-1 chords between extremes. Each chord leaves that span, so
    the lifted design q diag(u) q^T is nonsingular.
    """
    resid, chosen = p.copy(), []
    for _ in range(p.shape[1]):
        proj = resid @ resid[int(np.argmax(row_norms(resid)))]
        hi, lo = int(np.argmax(proj)), int(np.argmin(proj))
        chosen += [hi, lo]
        chord = resid[hi] - resid[lo]
        resid -= np.outer(resid @ chord, chord) / (chord @ chord)
    u = np.zeros(len(p))
    u[chosen] = 1.0
    return u / u.sum()


def mvee_khachiyan(points: Sequence[np.ndarray], eps: float = 1e-4) -> Ellipsoid:
    """(1+eps)-approximate minimum-volume enclosing ellipsoid.

    Solves the D-optimal-design dual on the lifted points q_i = [p_i, 1]
    by Todd & Yildirim's weight adjustment with away steps (WA-TY), which
    converges linearly (Ahipasaoglu, Sun & Todd 2008); degenerate point
    sets are first projected onto their affine span, of dimension r.
    With m_i = q_i^T inv(X) q_i and X = sum u_i q_i q_i^T, each iteration
    either moves weight toward argmax m (a Khachiyan step) or away from
    the support point of least m, dropping it from the support when its
    weight reaches zero. It stops once max m <= (1+eps)(r+1) and
    min over the support of m >= (1-eps)(r+1).

    The weights start on at most 2r points, _extreme_start's (the start
    Todd & Yildirim use), so the iterations add the few points that
    support the optimum rather than drop the many that do not; every
    point stays in play. inv(X) and m follow each step by a
    Sherman-Morrison update at O(n r) cost and are recomputed from
    scratch every _MVEE_RESYNC iterations. The stop is confirmed from a
    fresh inverse, so every point has membership at most
    sqrt(1 + eps (r+1)/r) - 1 in the returned body. Raises OracleError
    when MVEE_MAX_ITER iterations do not reach the stop.
    """
    pts = _rows(points, 2)
    if not (0.0 < eps < 0.5):
        raise OracleError("eps must lie in (0, 0.5)")
    mean = pts.mean(axis=0)
    centered = pts - mean
    u_s, s_s, _ = np.linalg.svd(centered.T, full_matrices=False)
    # spread must clear both the cloud's own scale and its rounding
    floor = 4.0 * np.finfo(float).eps * math.sqrt(pts.size) * np.abs(pts).max()
    rank = int(np.sum(s_s > max(1e-10 * s_s[0], floor)))
    if rank == 0:
        raise OracleError("all points coincide")
    basis = u_s[:, :rank]
    p = centered @ basis  # n x rank coordinates in the affine span
    n, r = p.shape

    q = np.hstack([p, np.ones((n, 1))]).T  # (r+1) x n
    u = _extreme_start(p)
    x_inv, m = _lifted_inverse(q, u)
    for it in range(1, MVEE_MAX_ITER + 1):
        j = int(np.argmax(m))
        i = int(np.argmin(np.where(u > 0.0, m, math.inf)))
        eps_plus = m[j] / (r + 1) - 1.0
        eps_minus = 1.0 - m[i] / (r + 1)
        if eps_plus <= eps and eps_minus <= eps:
            x_inv, m = _lifted_inverse(q, u)
            if m.max() <= (1.0 + eps) * (r + 1):
                break
            continue
        if eps_plus >= eps_minus:
            k, dropped = j, False
            tau = (m[k] - r - 1.0) / ((r + 1.0) * (m[k] - 1.0))
        else:
            # away step; below m = 1 the volume grows all the way to the drop
            k = i
            drop = u[k] / (1.0 - u[k])
            line = (math.inf if m[k] <= 1.0
                    else (r + 1.0 - m[k]) / ((r + 1.0) * (m[k] - 1.0)))
            dropped = drop <= line
            tau = -min(line, drop)
        w = x_inv @ q[:, k]
        g = w @ q
        coef = tau / ((1.0 - tau) + tau * m[k])
        x_inv = (x_inv - coef * np.outer(w, w)) / (1.0 - tau)
        m = (m - coef * g * g) / (1.0 - tau)
        u *= 1.0 - tau
        u[k] += tau
        if dropped:
            u[k] = 0.0
        if it % _MVEE_RESYNC == 0:
            x_inv, m = _lifted_inverse(q, u)
    else:
        raise OracleError(f"enclosing ellipsoid not within eps={eps:g} "
                          f"after {MVEE_MAX_ITER} iterations")
    c_span = u @ p
    shape = (p.T @ (u[:, None] * p) - np.outer(c_span, c_span)) * r
    evals, evecs = np.linalg.eigh(shape)
    evals = np.maximum(evals, 1e-300)
    semiaxes = np.sqrt(evals)
    axes = basis @ evecs
    center = mean + basis @ c_span
    return Ellipsoid(center, axes, semiaxes)


# ---------------------------------------------------------------------------
# scalar inequality grids


class SlackReport(NamedTuple):
    claim_id: str
    worst_slack: float


def _grid_params():
    """(gamma, alpha, a, b, c, alpha') on the grid, the kernel's compute_params at each point."""
    gammas = np.geomspace(1e-6, 10.0, GRID_DENSITY)
    alphas = np.linspace(1e-4, 0.5, GRID_DENSITY)
    g, al = (m.ravel() for m in np.meshgrid(gammas, alphas, indexing="ij"))
    _, a, b, c, alp = np.array([compute_params(*p) for p in zip(g.tolist(), al.tolist())]).T
    return g, al, a, b, c, alp


def _min_report(claim_id: str, slack: np.ndarray) -> SlackReport:
    return SlackReport(claim_id, float(slack.min()))


def inequality_suite() -> List[SlackReport]:
    """Evaluate the scalar inequalities behind the update analysis on
    dense grids; every worst slack should be >= -1e-12.
    """
    reports: List[SlackReport] = []
    n1 = max(GRID_DENSITY * GRID_DENSITY, 10000)

    x = np.linspace(-10.0, 10.0, n1)
    reports.append(_min_report("exp_lower_linear", np.exp(x) - (1.0 + x)))
    x = np.linspace(0.0, 10.0, n1)
    reports.append(_min_report("exp_lower_quadratic",
                               np.exp(x) - (1.0 + x + x * x / 2.0)))
    x = np.linspace(0.0, 4.0 / 3.0, n1)
    reports.append(_min_report("exp_upper_cubic",
                               (1.0 + x + x * x / 2.0 + x ** 3 / 4.0) - np.exp(x)))

    g1 = np.geomspace(1e-6, 10.0, n1)
    lhs = (np.expm1(g1)) ** 2 / (np.exp(2.0 * g1) - (1.0 + g1 / 4.0) ** 2)
    reports.append(_min_report("gamma_ratio_bound", 1.5 * g1 - lhs))

    g, al, a, b, c, alp = _grid_params()
    harmonic = np.abs(1.0 / alp - (1.0 / al + 2.0 * g)) / (1.0 / al + 2.0 * g)
    reports.append(_min_report("params_harmonic", -harmonic))
    reports.append(_min_report("params_pad_floor", b - 1.0))
    reports.append(_min_report("params_shift_nonneg", c))
    reports.append(_min_report("params_reach_floor", c + alp * a - al))
    reports.append(_min_report("pad_axis_bound", 1.0 + g / 4.0 - b))
    reports.append(_min_report("pad_below_stretch", a - b))
    reports.append(_min_report("stretch_gap", 1.0 - (a - 1.0) ** 2 / (a * a - b * b)))
    reports.append(_min_report("pad_alpha_identity", b * b - (1.0 + al - alp)))
    reports.append(_min_report("outer_shift_bound",
                               (b * b - 1.0) / (b * b) * (a * a - b * b) - c * c))
    ell1 = 1.0 / (c + a)
    ell2sq = 1.0 / (al * al) - ell1 * ell1
    r = (a * a * ell1 * ell1) / (b * b * ell2sq)
    reports.append(_min_report("inner_touch_nonneg",
                               a - alp * a * np.sqrt((1.0 + r) / r)))
    reports.append(_min_report("inner_main_bound",
                               (al * al / (alp * alp)) * (1.0 - alp)
                               - b * b * (1.0 + alp - 2.0 * al / a)))

    # constructed updates at the shell distance rho = 2: the new inner
    # body's transverse width never exceeds the previous one, and obeys
    # the tangent-line bound
    alphas = np.linspace(1e-4, 0.5, n1 // 100 + 10)
    width = np.empty_like(alphas)
    tangent = np.empty_like(alphas)
    for i, alpha in enumerate(alphas):
        params = compute_params(solve_gamma(2.0, float(alpha)), float(alpha))
        width[i] = alpha - params.alpha_next * params.b
        tangent[i] = ((2.0 - params.c) * (alpha / 2.0)
                      / math.sqrt(1.0 - (alpha / 2.0) ** 2)
                      - params.alpha_next * params.b)
    reports.append(_min_report("inner_width_bound", width))
    reports.append(_min_report("tangent_width_bound", tangent))
    return reports
