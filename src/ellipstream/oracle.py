"""Brute-force and exact verification utilities.

Everything in this module exists to check the geometry layer from the
outside: min-norm-point hull membership and distance (to the hull of a
union of points and ellipsoids), per-step monotonicity certificates, an
offline enclosing-ellipsoid baseline, and dense grids over the closed-form
scalar inequalities the update rule relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .ellipsoid import (
    Ellipsoid,
    _unit_directions,
    containment_margin,
    membership,
    span_split,
)
# looked up here by perfbench/tracing.py
from .ellipsoid import log_volume  # noqa: F401
from .linalg import row_norms
from .state import RoundingState
from .update_rule import compute_params, solve_gamma

LP_TOL = 1e-9
_DIR_SEED = 987654321
# check_monotone_step's sampled falsifier directions and slice resolution
_N_SAMPLE_DIRS = 4096
_N_SLICE = 2048
# the slice's angles as (cos, sin) columns, and the fine offsets swept
# around its worst angle
_SLICE_ANGLES = np.linspace(0.0, 2.0 * math.pi, _N_SLICE, endpoint=False)
_SLICE_COS, _SLICE_SIN = np.cos(_SLICE_ANGLES), np.sin(_SLICE_ANGLES)
_FINE_OFFSETS = np.linspace(-2.0 * math.pi / _N_SLICE, 2.0 * math.pi / _N_SLICE, 64)
# mvee_khachiyan recomputes inv(X) from scratch every this many iterations
_MVEE_RESYNC = 1000
# points per axis of inequality_suite's (gamma, alpha) grid
GRID_DENSITY = 100


class OracleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# hull membership and distance by Wolfe's min-norm-point method


def _min_norm_point(lmo: Callable[[np.ndarray], np.ndarray],
                    start: np.ndarray, tol: float, max_iter: int) -> float:
    """Norm of the point of least norm in conv(atoms), by Wolfe (1976).

    The atoms are shifted so that the query is the origin; `lmo(g)`
    returns an atom minimizing <atom, g>. Each major cycle adds the atom
    the current point y sees best to the corral; the minor cycles then move
    y to the affine min-norm point of the corral, dropping one atom per
    cycle whenever that point leaves the hull. Stops once |y| <= tol or
    Wolfe's gap <y, y - s> <= tol*|y|, which bounds |y| - dist by tol.
    Raises OracleError when neither holds after max_iter major cycles.
    """
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
            # affine min-norm point, mu = (1 - sum t, t), by least squares on
            # the atom differences: unlike a bordered Gram system this keeps
            # the corral's own conditioning, however far it is from 0
            a0 = corral[0]
            t = np.linalg.lstsq((corral[1:] - a0).T, -a0, rcond=None)[0]
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
        y = lam @ corral
    raise OracleError(f"min-norm point not reached in {max_iter} major cycles")


def hull_membership(points: Sequence[np.ndarray], x: np.ndarray) -> bool:
    """Is x a convex combination of the given points? Raises OracleError
    rather than guess when the solver does not settle."""
    pts = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise OracleError("need at least one point")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(x))):
        raise OracleError("non-finite inputs")
    # scale by the atoms' own spread, so translation and scale drop out
    atoms = pts - x
    scale = float(np.abs(atoms).max())
    if scale == 0.0:
        return True
    atoms /= scale

    def lmo(g: np.ndarray) -> np.ndarray:
        return atoms[int(np.argmin(atoms @ g))]

    # start from the nearest point; an interior query needs d + 1 or more
    # major cycles, and the benchmark's queries settle within d + 2
    start = atoms[int(np.argmin(np.einsum("ij,ij->i", atoms, atoms)))]
    max_iter = 20 * (atoms.shape[1] + 1)
    return _min_norm_point(lmo, start, LP_TOL, max_iter) <= 10 * LP_TOL


# ---------------------------------------------------------------------------
# distance to the hull of a union


@dataclass(frozen=True)
class HullSpec:
    """conv of a union of points and ellipsoids."""

    point_list: Tuple[np.ndarray, ...] = ()
    ellipsoid_list: Tuple[Ellipsoid, ...] = ()

    def __post_init__(self):
        if not self.point_list and not self.ellipsoid_list:
            raise OracleError("empty hull spec")


def union_hull_distance(h: HullSpec, x: np.ndarray, tol: float = 1e-9,
                        max_iter: int = 200) -> float:
    """Distance from x to conv(points union ellipsoids), by Wolfe's
    min-norm-point method on the members shifted by -x.

    Each major cycle asks every member for its farthest point against the
    current gradient, which is trivial for both points and ellipsoids.
    Raises OracleError if max_iter major cycles do not settle the distance.
    """
    x = np.asarray(x, dtype=float)
    pts = (np.asarray(h.point_list, dtype=float) - x
           if h.point_list else np.zeros((0, x.shape[0])))

    def lmo(g):
        best, val = None, math.inf
        if pts.shape[0]:
            i = int(np.argmin(pts @ g))
            best, val = pts[i], float(pts[i] @ g)
        for e in h.ellipsoid_list:
            cand = e.center - x
            coeff = e.semiaxes * (e.axes.T @ g)
            cn = float(np.linalg.norm(coeff))
            if cn > 0.0:
                cand = cand - e.axes @ (e.semiaxes * coeff / cn)
            v = float(cand @ g)
            if v < val:
                best, val = cand, v
        return best

    return _min_norm_point(lmo, lmo(-x), tol, max_iter)


# ---------------------------------------------------------------------------
# monotone-step certification


@dataclass(frozen=True)
class StepCertificate:
    outer_ok: bool
    inner_ok: bool
    worst_margin: float
    violating_direction: Optional[np.ndarray] = None


def _normalized_frame(prev: RoundingState, z: np.ndarray):
    """Linear map sending the previous outer body to the unit ball.

    Returns (project, k, z_norm, raised) where `project` maps ambient
    vectors (already shifted by the previous center) into normalized span
    coordinates. `raised` is the step kernel's own off-span verdict on z;
    for a span-raising step the frame is extended by the residual
    direction and composed with the shear that pins the new point onto
    the fresh axis, so the constructed bodies become bodies of revolution
    about the last coordinate.
    """
    axes = prev.ellipsoid.axes
    s = prev.ellipsoid.semiaxes
    delta, coeffs, residual, rnorm, off_span = span_split(prev.ellipsoid, z)
    k = prev.ellipsoid.rank
    if not off_span:
        def project(vecs: np.ndarray) -> np.ndarray:
            return (axes.T @ vecs) / s[:, None]
        z_norm = coeffs / s
        return project, k, z_norm, False
    v_new = residual / rnorm
    w_basis = np.hstack([axes, v_new[:, None]])
    a_bar = np.concatenate([1.0 / s, [1.0]])
    # shear sending z onto the new axis at its original normalized height;
    # it fixes the old span, so the constructed bodies stay rotation
    # symmetric about the last coordinate
    m = np.eye(k + 1)
    m[:k, k] = -coeffs / rnorm

    def project(vecs: np.ndarray) -> np.ndarray:
        return a_bar[:, None] * (m @ (w_basis.T @ vecs))

    z_norm = project(delta[:, None])[:, 0]
    return project, k + 1, z_norm, True


def check_monotone_step(prev: RoundingState, next_: RoundingState,
                        z: np.ndarray, tol: float = 1e-7) -> StepCertificate:
    """Certify one monotone step: outer growth + coverage, inner inclusion.

    The inner inclusion is checked in coordinates where the previous outer
    body is the unit ball: there the previous inner body is a centered
    ball, and a fine sweep over a 2-D slice through the new point's
    direction (exact for the rotation-symmetric bodies the update rule
    builds) is combined with random full-dimensional directions that act
    as a falsifier.
    """
    prev_c, prev_e, prev_a = prev.center, prev.ellipsoid, prev.alpha
    next_c, next_e, next_a = next_.center, next_.ellipsoid, next_.alpha
    z = np.asarray(z, dtype=float)
    if prev_e.dim != next_e.dim or prev_e.dim != z.shape[0]:
        raise OracleError("span mismatch")

    margins: List[Tuple[float, Optional[np.ndarray]]] = []

    # outer: previous outer inside next outer, and z covered
    margins.append((-containment_margin(next_e, prev_e), None))
    margins.append((-membership(next_e, z), None))
    outer_ok = min(m for m, _ in margins) >= -tol

    # inner: h_next_inner(u) <= max(h_prev_inner(u), <z,u>) in normalized
    # coordinates
    inner_margins: List[Tuple[float, Optional[np.ndarray]]] = []
    if next_e.rank == 0:
        # a rank-0 next inner is just its center; check it against the hull
        inner_ok = True
    else:
        project, k, z_norm, raised = _normalized_frame(prev, z)
        c_in = project((next_c - prev_c)[:, None])[:, 0]
        m_in = project(next_e.axes * (next_a * next_e.semiaxes)[None, :])

        def margin_for(dirs: np.ndarray) -> np.ndarray:
            # dirs: (n, k) unit directions in normalized coordinates
            h_next = dirs @ c_in + row_norms(dirs @ m_in)
            h_prev = prev_a * row_norms(dirs[:, :k - 1]) if raised else prev_a
            allowed = np.maximum(h_prev, dirs @ z_norm)
            return allowed - h_next

        # 2-D slice through the new point's direction
        zn = float(np.linalg.norm(z_norm))
        e1 = z_norm / zn if zn > 1e-12 else np.eye(k)[:, 0]
        if k >= 2:
            # any unit vector orthogonal to e1
            probe = np.eye(k)[:, int(np.argmin(np.abs(e1)))]
            e2 = probe - e1 * np.dot(e1, probe)
            e2 /= np.linalg.norm(e2)
            dirs = _SLICE_COS[:, None] * e1 + _SLICE_SIN[:, None] * e2
        else:
            dirs = np.array([[1.0], [-1.0]]) * e1[None, :] if k == 1 else np.zeros((0, k))
            dirs = dirs.reshape(-1, k)
        slice_margins = margin_for(dirs)
        worst_idx = int(np.argmin(slice_margins))
        inner_margins.append((float(slice_margins[worst_idx]), dirs[worst_idx]))

        # refine the worst slice direction locally
        if k >= 2:
            base = 2.0 * math.pi * worst_idx / _N_SLICE
            fine = base + _FINE_OFFSETS
            dirs_f = np.cos(fine)[:, None] * e1 + np.sin(fine)[:, None] * e2
            fm = margin_for(dirs_f)
            j = int(np.argmin(fm))
            inner_margins.append((float(fm[j]), dirs_f[j]))

        # sampled falsifier directions in the full normalized space
        dirs_r = _unit_directions(_N_SAMPLE_DIRS, k, _DIR_SEED)
        rm = margin_for(dirs_r)
        j = int(np.argmin(rm))
        inner_margins.append((float(rm[j]), dirs_r[j].copy()))

        inner_ok = min(m for m, _ in inner_margins) >= -tol
        margins.extend(inner_margins)

    worst, direction = min(margins, key=lambda p: p[0])
    return StepCertificate(outer_ok=outer_ok, inner_ok=inner_ok,
                           worst_margin=worst,
                           violating_direction=(direction if worst < -tol else None))


# ---------------------------------------------------------------------------
# offline enclosing-ellipsoid baseline


def _lifted_inverse(q: np.ndarray, u: np.ndarray):
    """inv(X) for X = q diag(u) q^T, and m_i = q_i^T inv(X) q_i."""
    x_inv = np.linalg.inv(q @ (u[:, None] * q.T))
    return x_inv, np.einsum("in,in->n", q, x_inv @ q)


def mvee_khachiyan(points: Sequence[np.ndarray], eps: float = 1e-4,
                   max_iter: int = 100000) -> Ellipsoid:
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

    inv(X) and m follow each step by a Sherman-Morrison update at
    O(n r) cost and are recomputed from scratch every _MVEE_RESYNC
    iterations. The stop is confirmed from a fresh inverse, so every
    point has membership at most sqrt(1 + eps (r+1)/r) - 1 in the
    returned body. Raises OracleError when max_iter iterations do not
    reach the stop.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) < 2:
        raise OracleError("need at least two points")
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
    u = np.full(n, 1.0 / n)
    x_inv, m = _lifted_inverse(q, u)
    for it in range(1, max_iter + 1):
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
        raise OracleError(
            f"enclosing ellipsoid not within eps={eps:g} after {max_iter} iterations")
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


@dataclass(frozen=True)
class SlackReport:
    claim_id: str
    worst_slack: float
    argmin: Tuple[float, ...]


def _grid_params():
    gammas = np.geomspace(1e-6, 10.0, GRID_DENSITY)
    alphas = np.linspace(1e-4, 0.5, GRID_DENSITY)
    g, al = np.meshgrid(gammas, alphas, indexing="ij")
    g = g.ravel()
    al = al.ravel()
    a = np.exp(g)
    alp = 1.0 / (1.0 / al + 2.0 * g)
    b = 1.0 + (al - alp) / 2.0
    c = -al + alp * a
    return g, al, a, b, c, alp


def _min_report(claim_id: str, slack: np.ndarray,
                args: Sequence[np.ndarray]) -> SlackReport:
    j = int(np.argmin(slack))
    return SlackReport(claim_id, float(slack[j]),
                       tuple(float(arg[j]) for arg in args))


def inequality_suite() -> List[SlackReport]:
    """Evaluate the scalar inequalities behind the update analysis on
    dense grids; every worst slack should be >= -1e-12.
    """
    reports: List[SlackReport] = []
    n1 = max(GRID_DENSITY * GRID_DENSITY, 10000)

    x = np.linspace(-10.0, 10.0, n1)
    reports.append(_min_report("exp_lower_linear", np.exp(x) - (1.0 + x), [x]))
    x = np.linspace(0.0, 10.0, n1)
    reports.append(_min_report("exp_lower_quadratic",
                               np.exp(x) - (1.0 + x + x * x / 2.0), [x]))
    x = np.linspace(0.0, 4.0 / 3.0, n1)
    reports.append(_min_report("exp_upper_cubic",
                               (1.0 + x + x * x / 2.0 + x ** 3 / 4.0) - np.exp(x), [x]))

    g1 = np.geomspace(1e-6, 10.0, n1)
    lhs = (np.expm1(g1)) ** 2 / (np.exp(2.0 * g1) - (1.0 + g1 / 4.0) ** 2)
    reports.append(_min_report("gamma_ratio_bound", 1.5 * g1 - lhs, [g1]))

    g, al, a, b, c, alp = _grid_params()
    args = [g, al]
    harmonic = np.abs(1.0 / alp - (1.0 / al + 2.0 * g)) / (1.0 / al + 2.0 * g)
    reports.append(_min_report("params_harmonic", -harmonic, args))
    reports.append(_min_report("params_pad_floor", b - 1.0, args))
    reports.append(_min_report("params_shift_nonneg", c, args))
    reports.append(_min_report("params_reach_floor", c + alp * a - al, args))
    reports.append(_min_report("pad_axis_bound", 1.0 + g / 4.0 - b, args))
    reports.append(_min_report("pad_below_stretch", a - b, args))
    reports.append(_min_report("stretch_gap",
                               1.0 - (a - 1.0) ** 2 / (a * a - b * b), args))
    reports.append(_min_report("pad_alpha_identity",
                               b * b - (1.0 + al - alp), args))
    reports.append(_min_report("outer_shift_bound",
                               (b * b - 1.0) / (b * b) * (a * a - b * b) - c * c,
                               args))
    ell1 = 1.0 / (c + a)
    ell2sq = 1.0 / (al * al) - ell1 * ell1
    r = (a * a * ell1 * ell1) / (b * b * ell2sq)
    reports.append(_min_report("inner_touch_nonneg",
                               a - alp * a * np.sqrt((1.0 + r) / r), args))
    reports.append(_min_report("inner_main_bound",
                               (al * al / (alp * alp)) * (1.0 - alp)
                               - b * b * (1.0 + alp - 2.0 * al / a), args))

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
    reports.append(_min_report("inner_width_bound", width, [alphas]))
    reports.append(_min_report("tangent_width_bound", tangent, [alphas]))
    return reports
