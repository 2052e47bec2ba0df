"""The monotone sandwich update: per-step scalars, the gamma solve, the
regular full-dimensional step, the dimension-raising irregular step,
`step`, the one per-point kernel that decides between skip, regular step
and span raise, and `leading_skips`, which finds a run of certain skips in
a block of points with one mat-mul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .ellipsoid import SPAN_TOL, Ellipsoid, SpanSplit, scan_rows, scan_tolerance, span_split
from .state import RoundingState

GAMMA_MAX_ITER = 200
GAMMA_REL_RESIDUAL = 1e-10
GAMMA_FALLBACK_RESIDUAL = 1e-8  # accepted once GAMMA_MAX_ITER steps are spent
# leading_skips takes a row as a certain skip only this far (relative)
# inside its limit, on top of scan_tolerance; 100x GAMMA_REL_RESIDUAL, so a
# gamma solved anywhere in its window stays below the coreset's threshold
SKIP_MARGIN = 1e-8


class UpdateError(ValueError):
    pass


@dataclass(frozen=True)
class UpdateParams:
    """Scalars (gamma, a, b, c, alpha') of one regular update step."""

    gamma: float
    a: float
    b: float
    c: float
    alpha_next: float


def compute_params(gamma: float, alpha: float) -> UpdateParams:
    """Evaluate the update scalars at a given gamma and previous alpha.

    a = e^gamma grows the axis pointing at the new point, b pads the
    orthogonal axes, c shifts the center, and alpha' follows the harmonic
    rule 1/alpha' = 1/alpha + 2*gamma.
    """
    if not (0.0 < alpha <= 0.5):
        raise UpdateError("alpha must lie in (0, 1/2]")
    if gamma < 0.0:
        raise UpdateError("gamma must be nonnegative")
    a = math.exp(gamma)
    alpha_next = 1.0 / (1.0 / alpha + 2.0 * gamma)
    b = 1.0 + (alpha - alpha_next) / 2.0
    c = -alpha + alpha_next * a
    return UpdateParams(gamma=gamma, a=a, b=b, c=c, alpha_next=alpha_next)


def _a_plus_c(gamma: float, alpha: float) -> float:
    alpha_next = 1.0 / (1.0 / alpha + 2.0 * gamma)
    return math.exp(gamma) * (1.0 + alpha_next) - alpha


def solve_gamma(rho: float, alpha: float) -> float:
    """Smallest gamma with a + c in [rho, rho*(1 + GAMMA_REL_RESIDUAL)].

    The map gamma -> a + c equals 1 at gamma = 0 and is strictly
    increasing, so a plain bisection on [0, log(rho)+1] works. The upper
    end of the residual window is returned deliberately: overshooting
    keeps the new point covered.
    """
    if not (rho > 1.0):
        raise UpdateError("rho must exceed 1")
    if not (0.0 < alpha <= 0.5):
        raise UpdateError("alpha must lie in (0, 1/2]")
    lo = 0.0
    hi = math.log(rho) + 1.0
    if _a_plus_c(hi, alpha) < rho:
        raise UpdateError("bisection bracket failed")
    target_hi = rho * (1.0 + GAMMA_REL_RESIDUAL)
    for _ in range(GAMMA_MAX_ITER):
        f_hi = _a_plus_c(hi, alpha)
        if rho <= f_hi <= target_hi:
            return hi
        mid = 0.5 * (lo + hi)
        if _a_plus_c(mid, alpha) >= rho:
            hi = mid
        else:
            lo = mid
    f_hi = _a_plus_c(hi, alpha)
    if rho <= f_hi <= rho * (1.0 + GAMMA_FALLBACK_RESIDUAL):
        return hi
    raise UpdateError("gamma bisection did not converge")


def _finite_point(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise UpdateError("non-finite point")
    return z


def is_off_span(state: RoundingState, z: np.ndarray) -> bool:
    return span_split(state.ellipsoid, z).off


def _regular(state: RoundingState,
             coeffs: np.ndarray) -> Tuple[RoundingState, Optional[UpdateParams]]:
    """The regular step on an in-span point given by its span coordinates;
    (state, None) when the point is already covered."""
    body = state.ellipsoid
    s = body.semiaxes
    # u is the new point in the outer body's unit-ball coordinates
    u = coeffs / s
    rho = float(np.linalg.norm(u))
    if rho <= 1.0:
        return state, None

    # solve_gamma enforces alpha <= 1/2
    params = compute_params(solve_gamma(rho, state.alpha), state.alpha)
    w = u / rho

    # compose the shrink map with the current factor, both in axis coords
    core = np.diag(1.0 / (params.b * s))
    core += np.outer((1.0 / params.a - 1.0 / params.b) * w, w / s)
    # center moves along the pre-image of w
    return _reshaped(body.center + body.axes @ (s * w) * params.c, body.axes,
                     core, 1.0, params.alpha_next), params


def _irregular(state: RoundingState, z: np.ndarray,
               split: SpanSplit) -> RoundingState:
    """The span raise toward an off-span point z, given its split."""
    if not (0.0 < state.alpha <= 1.0):
        raise UpdateError("alpha must lie in (0, 1]")
    body = state.ellipsoid
    # axes below SPAN_TOL/2 * rnorm (a near-duplicate's) are a point at z's
    # scale, in the new body's span as its s_max >= 2/3 rnorm; kept, they collapse it
    keep = body.semiaxes > 0.5 * SPAN_TOL * split.rnorm
    if not keep.all():
        body = Ellipsoid(body.center, body.axes[:, keep], body.semiaxes[keep])
        split = span_split(body, z)
    delta, coeffs, residual, rnorm, _ = split
    alpha = state.alpha
    k = body.rank
    v_new = residual / rnorm
    root = math.sqrt(1.0 + 2.0 * alpha)

    # all linear algebra happens in the extended-span basis [axes, v_new];
    # the shear m_w sends [coeffs, rnorm] to root*e_k. Its column is set
    # directly: 1 - (rnorm - root)/rnorm cancels once rnorm >> root
    a_bar = np.ones(k + 1)
    a_bar[:k] = 1.0 / body.semiaxes
    m_w = np.eye(k + 1)
    m_w[:k, k] = -coeffs / rnorm
    m_w[k, k] = root / rnorm
    composed = (a_bar[:, None]) * m_w
    return _reshaped(body.center + (alpha / (1.0 + 2.0 * alpha)) * delta,
                     np.hstack([body.axes, v_new[:, None]]), composed,
                     (1.0 + alpha) / root, 1.0 / (1.0 / alpha + 1.0))


def _reshaped(center: np.ndarray, basis: np.ndarray, core: np.ndarray,
              scale: float, alpha: float) -> RoundingState:
    """The state whose outer body is {center + basis x : |core x| <= scale},
    read off the SVD of the small square core."""
    _, cs, cvt = np.linalg.svd(core)
    # semiaxes ascend after inversion; the Ellipsoid constructor re-sorts
    return RoundingState(Ellipsoid(center, basis @ cvt.T, scale / cs), alpha)


def step(state: RoundingState, z: np.ndarray
         ) -> Tuple[RoundingState, str, Optional[UpdateParams]]:
    """The per-point kernel every driver folds: returns the next state, the
    step kind (skip | regular | irregular) and the scalars of a regular
    step (None otherwise). A skip returns `state` itself.
    """
    z = _finite_point(z)
    split = span_split(state.ellipsoid, z)
    if split.off:
        return _irregular(state, z, split), "irregular", None
    new_state, params = _regular(state, split.coeffs)
    return new_state, ("skip" if params is None else "regular"), params


def leading_skips(state: RoundingState, zs: np.ndarray, limit: float = 1.0) -> int:
    """How many leading rows of zs are certain skips at `state`: in the span
    by half its threshold (see scan_rows) and with rho <= limit * (1 -
    SKIP_MARGIN - scan_tolerance). `step` skips each of them; a row nearer
    either threshold ends the run, and `step` re-decides it. A limit above 1
    also passes covered-by-limit rows, which only the coreset may drop.
    """
    body = state.ellipsoid
    rho, inside = scan_rows(body, zs)
    ok = inside & (rho <= limit * (1.0 - SKIP_MARGIN - scan_tolerance(body)))
    j = int(ok.argmin())
    return len(ok) if ok[j] else j


def full_update_detailed(
    state: RoundingState, z: np.ndarray
) -> Tuple[RoundingState, Optional[UpdateParams]]:
    """One regular step; returns the next state and the scalars used.

    Returns (state, None) unchanged when the point is already covered.
    """
    z = _finite_point(z)
    if state.alpha > 0.5 + 1e-12:
        raise UpdateError("alpha must lie in (0, 1/2]")
    if state.dim == 0:
        raise UpdateError("irregular step required")
    split = span_split(state.ellipsoid, z)
    if split.off:
        raise UpdateError("irregular step required")
    return _regular(state, split.coeffs)


def irregular_update(state: RoundingState, z: np.ndarray) -> RoundingState:
    """Dimension-raising step: extend the span toward z.

    In normalized coordinates the previous body is the unit ball of its
    span and z maps onto sqrt(1+2*alpha) times the new basis vector; the
    new outer body is the ball of radius (1+alpha)/sqrt(1+2*alpha) in the
    extended span, recentred a fraction alpha/(1+2*alpha) of the way
    toward z. 1/alpha grows by exactly one.
    """
    z = _finite_point(z)
    split = span_split(state.ellipsoid, z)
    if not split.off:
        raise UpdateError("regular step required")
    return _irregular(state, z, split)
