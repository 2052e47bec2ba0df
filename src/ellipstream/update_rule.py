"""The monotone sandwich update on the `RoundingState`: per-step scalars,
the gamma solve, the regular and the dimension-raising irregular step, each
an update of the state's factor and its inverse in O(d k + k^2) (Golub &
Van Loan 6.5), `step`, the per-point kernel, which decides between skip,
regular step and span raise and returns a `Step`, and `leading_skips`,
which finds a run of certain skips in a block of points with one mat-mul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .ellipsoid import (SPAN_TOL, Ellipsoid, NumericalLimitError, SpanSplit, basis_split,
                        log_volume, scan_rows, scan_tolerance, span_scale)

GAMMA_MAX_ITER = 200
GAMMA_REL_RESIDUAL = 1e-10
GAMMA_FALLBACK_RESIDUAL = 1e-8  # accepted once GAMMA_MAX_ITER steps are spent
# leading_skips takes a row as a certain skip only this far (relative)
# inside its limit, on top of scan_tolerance; 100x GAMMA_REL_RESIDUAL, so a
# gamma solved anywhere in its window stays below the coreset's threshold
SKIP_MARGIN = 1e-8
# a factor updated in place is accurate to about eps * s_max/s_min of its
# thin axes; past this bound on that ratio, each step restarts from an SVD
ALIGN_LIMIT = 1e6


class UpdateError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class RoundingState:
    """The sandwich center + alpha*E inside the hull inside center + E, with
    E = {basis @ factor @ x : |x| <= 1} on an orthonormal d x k basis of the
    span (k = dim) and the factor's `inverse`, so a step needs no
    decomposition (see ALIGN_LIMIT). `log_volume` = log |det factor| is E's
    log volume over the unit k-ball's; `ellipsoid` is a validated view."""

    center: np.ndarray
    basis: np.ndarray
    factor: np.ndarray
    inverse: np.ndarray
    alpha: float
    log_volume: float

    @staticmethod
    def from_ellipsoid(e: Ellipsoid, alpha: float) -> "RoundingState":
        return RoundingState(e.center, e.axes, np.diag(e.semiaxes),
                             np.diag(1.0 / e.semiaxes), alpha, log_volume(e))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def alpha_inv(self) -> float:
        return 1.0 / self.alpha

    @cached_property
    def ellipsoid(self) -> Ellipsoid:
        """The outer body as an Ellipsoid, from the SVD of the factor; its
        constructor raises NumericalLimitError on a collapsed body."""
        u, s, _ = np.linalg.svd(self.factor)
        return Ellipsoid(self.center, self.basis @ u, s)

    @cached_property
    def span_scale(self) -> float:
        """The view's span_scale, read off the factor without its SVD."""
        return span_scale(self.factor, self.dim)

    @cached_property
    def inverse_norm(self) -> float:
        """|inverse|_F, at least 1 / the smallest semiaxis."""
        return math.sqrt(np.vdot(self.inverse, self.inverse))

    @property
    def cond_bound(self) -> float:
        """|factor|_F |inverse|_F, the running bound on s_max/s_min."""
        return max(self.dim, 1) ** 0.25 * self.span_scale * self.inverse_norm


@dataclass(frozen=True)
class UpdateParams:
    """Scalars (gamma, a, b, c, alpha') of one regular update step."""

    gamma: float
    a: float
    b: float
    c: float
    alpha_next: float


class Step(NamedTuple):
    """One per-point step from `prev` to `state` (prev itself on a skip) on
    z; gamma is 0 unless regular. `split` is the kernel's split of z against
    prev, None for init, local and the seeded phase-I skips."""

    prev: RoundingState
    state: RoundingState
    z: np.ndarray
    kind: str  # init | skip | regular | irregular | local
    gamma: float
    split: Optional[SpanSplit]


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
    """A gamma with a + c in [rho, rho*(1 + GAMMA_REL_RESIDUAL)].

    The map gamma -> a + c equals 1 at gamma = 0 and is increasing and
    convex, so Newton started at the upper bracket log(rho) + 1 falls
    monotonically onto the root from above; should rounding push an
    iterate below it, bisection of the bracket takes over. The upper end
    of the residual window is returned deliberately: overshooting keeps
    the new point covered.
    """
    if not (rho > 1.0):
        raise UpdateError("rho must exceed 1")
    if not (0.0 < alpha <= 0.5):
        raise UpdateError("alpha must lie in (0, 1/2]")
    lo, hi = 0.0, math.log(rho) + 1.0
    f_hi = _a_plus_c(hi, alpha)
    if f_hi < rho:
        raise UpdateError("bisection bracket failed")
    target_hi = rho * (1.0 + GAMMA_REL_RESIDUAL)
    newton = True
    for _ in range(GAMMA_MAX_ITER):
        if f_hi <= target_hi:
            return hi
        if newton:
            # d(a + c)/dgamma = a (1 + alpha' - 2 alpha'^2)
            alpha_next = 1.0 / (1.0 / alpha + 2.0 * hi)
            slope = math.exp(hi) * (1.0 + alpha_next * (1.0 - 2.0 * alpha_next))
            mid = hi - (f_hi - rho) / slope
        else:
            mid = 0.5 * (lo + hi)
        f_mid = _a_plus_c(mid, alpha)
        if f_mid >= rho:
            hi, f_hi = mid, f_mid
        else:
            lo, newton = mid, False
    if f_hi <= rho * (1.0 + GAMMA_FALLBACK_RESIDUAL):
        return hi
    raise UpdateError("gamma solve did not converge")


def _finite_point(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise UpdateError("non-finite point")
    return z


def _split(state: RoundingState, z: np.ndarray) -> SpanSplit:
    """basis_split of z against the state at its span scale."""
    return basis_split(state.center, state.basis, state.span_scale, z)


def is_off_span(state: RoundingState, z: np.ndarray) -> bool:
    return _split(state, z).off


class Frame(NamedTuple):
    """A step's normalized frame, where the previous outer body is the unit
    ball: v taken from the previous center has coordinates shear @ (basis.T @ v)."""

    basis: np.ndarray   # d x kf: Q, or [Q, v] after a span raise
    shear: np.ndarray   # kf x kf: M, or M bordered and sheared
    z: np.ndarray       # the new point in the frame
    raised: bool


def frame(state: RoundingState, split: SpanSplit) -> Frame:
    """The frame M Q^T of a step from `state` on z, given z's split. A span
    raise borders it by v = residual/|residual| and shears it to fix the old
    span and send z to sqrt(1 + 2 alpha) e_k, where `_irregular` builds the
    raised body as a ball."""
    m = state.inverse
    if not split.off:
        return Frame(state.basis, m, m @ split.coeffs, False)
    k = state.dim
    root = math.sqrt(1.0 + 2.0 * state.alpha)
    shear = np.zeros((k + 1, k + 1))
    shear[:k, :k] = m
    shear[:k, k] = (m @ split.coeffs) / -split.rnorm
    shear[k, k] = root / split.rnorm
    z = np.zeros(k + 1)
    z[k] = root
    return Frame(np.hstack([state.basis, (split.residual / split.rnorm)[:, None]]), shear, z, True)


def _checked(state: RoundingState) -> RoundingState:
    """The state, kept as it is while its cond_bound stays within
    ALIGN_LIMIT; past it, a restart from the SVD of its factor, whose view
    raises NumericalLimitError on the exact ratio of a collapsed body."""
    if state.cond_bound <= ALIGN_LIMIT:
        return state
    e = state.ellipsoid
    return RoundingState(state.center, e.axes, np.diag(e.semiaxes), np.diag(1.0 / e.semiaxes),
                         state.alpha, state.log_volume)


def _regular(state: RoundingState,
             coeffs: np.ndarray) -> Tuple[RoundingState, Optional[UpdateParams]]:
    """The regular step on an in-span point given by its span coordinates;
    (state, None) when covered; NumericalLimitError if rho overflows.

    With y the point's unit-ball coordinates, rho = |y| and w = y/rho, the
    factor becomes T' = T (b I + (a - b) w w^T) and its inverse, by Sherman
    & Morrison (1950), M' = (I - (1 - b/a) w w^T) M / b; both are O(k^2).
    """
    y = state.inverse @ coeffs
    rho = math.sqrt(y @ y)
    if rho <= 1.0:
        return state, None
    if rho == math.inf:
        raise NumericalLimitError(math.inf)

    # solve_gamma enforces alpha <= 1/2
    params = compute_params(solve_gamma(rho, state.alpha), state.alpha)
    a, b = params.a, params.b
    w = y / rho
    tw = state.factor @ w
    factor = b * state.factor + np.outer((a - b) * tw, w)
    inverse = (state.inverse - np.outer((1.0 - b / a) * w, w @ state.inverse)) / b
    # the center moves along the pre-image of w; log a = gamma
    return _checked(RoundingState(
        state.center + state.basis @ (params.c * tw), state.basis, factor, inverse,
        params.alpha_next,
        state.log_volume + params.gamma + (state.dim - 1) * math.log(b))), params


def _irregular(state: RoundingState, z: np.ndarray,
               split: SpanSplit) -> RoundingState:
    """The span raise toward an off-span point z, given its split.

    In the step's `frame` the previous body is the unit ball of its span
    and z lies at sqrt(1+2*alpha) times the new basis vector; the new outer
    body is the ball of radius (1+alpha)/sqrt(1+2*alpha) there, recentred a
    fraction alpha/(1+2*alpha) of the way toward z. Its inverse is the
    frame's shear over that radius; its factor borders the previous one by
    one row and column. 1/alpha grows by one.
    """
    if not (0.0 < state.alpha <= 1.0):
        raise UpdateError("alpha must lie in (0, 1]")
    # axes under SPAN_TOL/2 rnorm are a near-duplicate's: below 3/4 (k+1)^(1/4) SPAN_TOL times
    # the raised span scale (|factor|_F >= 2/3 rnorm). Kept, they collapse it, as axes kept by a
    # lower threshold do. Unless s_min >= 1/|inverse|_F rules them out, drop them
    if state.inverse_norm * 0.5 * SPAN_TOL * split.rnorm >= 1.0:
        body = state.ellipsoid
        keep = body.semiaxes > 0.5 * SPAN_TOL * split.rnorm
        if not keep.all():
            state = RoundingState.from_ellipsoid(
                Ellipsoid(body.center, body.axes[:, keep], body.semiaxes[keep]),
                state.alpha)
            split = _split(state, z)
    delta, coeffs, _, rnorm, _ = split
    fr = frame(state, split)
    alpha = state.alpha
    k = state.dim
    root = float(fr.z[k])
    scale = (1.0 + alpha) / root
    factor = np.zeros((k + 1, k + 1))
    factor[:k, :k] = state.factor
    factor[:k, k] = coeffs / root
    factor[k, k] = rnorm / root
    return _checked(RoundingState(
        state.center + (alpha / (1.0 + 2.0 * alpha)) * delta, fr.basis,
        scale * factor, fr.shear / scale, 1.0 / (1.0 / alpha + 1.0),
        state.log_volume + (k + 1) * math.log(scale) + math.log(rnorm / root)))


def step(state: RoundingState, z: np.ndarray) -> Step:
    """The per-point kernel every driver folds: a skip, regular or
    irregular Step from `state`, carrying the split that decided it."""
    z = _finite_point(z)
    split = _split(state, z)
    if split.off:
        return Step(state, _irregular(state, z, split), z, "irregular", 0.0, split)
    new, params = _regular(state, split.coeffs)
    if params is None:
        return Step(state, state, z, "skip", 0.0, split)
    return Step(state, new, z, "regular", params.gamma, split)


def leading_skips(state: RoundingState, zs: np.ndarray, limit: float = 1.0) -> int:
    """How many leading rows of zs are certain skips at `state`: in the span
    by half its threshold (see scan_rows) and with rho <= limit * (1 -
    SKIP_MARGIN - scan_tolerance). `step` skips each of them; a row nearer
    either threshold ends the run, and `step` re-decides it. A limit above 1
    also passes covered-by-limit rows, which only the coreset may drop.
    """
    # P = inverse @ basis.T is built per scan, not kept on the state
    rho, inside = scan_rows(state.center, state.basis, state.inverse @ state.basis.T,
                            state.span_scale, zs)
    tol = scan_tolerance(len(state.center), state.dim, state.cond_bound)
    ok = inside & (rho <= limit * (1.0 - SKIP_MARGIN - tol))
    j = int(ok.argmin())
    return len(ok) if ok[j] else j


# full_update_detailed, irregular_update and is_off_span re-run step's split;
# out of the package API, they stay only for perfbench/tracing.py to wrap.


def full_update_detailed(
    state: RoundingState, z: np.ndarray
) -> Tuple[RoundingState, Optional[UpdateParams]]:
    """One regular step: (next state, its scalars), or (state, None) if covered."""
    z = _finite_point(z)
    split = _split(state, z)
    if split.off:
        raise UpdateError("irregular step required")
    return _regular(state, split.coeffs)


def irregular_update(state: RoundingState, z: np.ndarray) -> RoundingState:
    """Dimension-raising step: extend the span toward z (see _irregular)."""
    z = _finite_point(z)
    split = _split(state, z)
    if not split.off:
        raise UpdateError("regular step required")
    return _irregular(state, z, split)
