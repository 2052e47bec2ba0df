"""The monotone sandwich update on the `RoundingState`: per-step scalars,
the gamma solve, the regular and the dimension-raising irregular step, each
an update of the state's inverse factor in O(d k + k^2) (Golub & Van Loan
6.5) and of the factor's norm by a scalar recurrence; a full-rank state is
kept in ambient coordinates, where a step reads no basis; `step`, the per-point
kernel (skip, regular step or span raise, as a `Step`), which refuses a
non-finite point, and `_step`, the same kernel that the drivers fold on rows
already checked; and `leading_skips`, a run of certain skips by one mat-mul.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .ellipsoid import (RANK_COLLAPSE_RATIO, SPAN_TOL, Ellipsoid, NumericalLimitError, SpanSplit,
                        _norm, basis_split, check_shape, log_volume, scan_rows, scan_tolerance,
                        span_scale)

GAMMA_MAX_ITER = 200
# a = e^gamma and a (1 + alpha') stay finite (alpha' < 1/1419 there); RHO_MAX, about
# DBL_MAX/e, is the largest rho whose bracket top log(rho) + 1 this holds
GAMMA_MAX = 709.78
RHO_MAX = math.exp(GAMMA_MAX - 1.0)
GAMMA_REL_RESIDUAL = 1e-10
GAMMA_FALLBACK_RESIDUAL = 1e-8  # accepted once GAMMA_MAX_ITER steps are spent
# leading_skips takes a row as a certain skip only this far (relative)
# inside its limit, on top of scan_tolerance; 100x GAMMA_REL_RESIDUAL, so a
# gamma solved anywhere in its window stays below the coreset's threshold
SKIP_MARGIN = 1e-8


class UpdateError(ValueError):
    pass


@functools.lru_cache(maxsize=8)
def _identity(d: int) -> np.ndarray:
    """The read-only d x d identity, the basis every full-rank state in R^d shares."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True, eq=False, init=False)
class RoundingState:
    """The sandwich center + alpha*E inside the hull inside center + E, with
    E = {basis @ T @ x : |x| <= 1} on an orthonormal d x k basis of the span
    (k = dim). The state keeps T's `inverse` M, the map to E's unit-ball
    coordinates, which only a step's own rank-one update or raise changes,
    with no decomposition, and `factor_norm` = |T|_F, which it updates by a
    recurrence; T itself is never formed. `log_volume` = log |det T| is E's
    log volume over the unit k-ball's; `ellipsoid` is a validated view.

    A full-rank state (k = d) is in ambient coordinates: its basis is the
    identity, so M maps x - center straight to unit-ball coordinates and
    the kernel reads no basis. `from_ellipsoid` and a raise to rank d give
    it the shared read-only identity, and a regular step keeps any state's
    basis; `step` refuses a full-rank state built directly on another."""

    center: np.ndarray
    basis: np.ndarray
    inverse: np.ndarray
    factor_norm: float
    alpha: float
    log_volume: float

    def __init__(self, center: np.ndarray, basis: np.ndarray, inverse: np.ndarray,
                 factor_norm: float, alpha: float, log_volume: float):
        # the generated __init__ of a frozen dataclass pays object.__setattr__ per field
        v = self.__dict__
        v["center"], v["basis"], v["inverse"] = center, basis, inverse
        v["factor_norm"], v["alpha"], v["log_volume"] = factor_norm, alpha, log_volume
        # |inverse|_F, at least 1 / the smallest semiaxis: every kernel state reads it
        v["inverse_norm"] = _norm(inverse)

    @staticmethod
    def from_ellipsoid(e: Ellipsoid, alpha: float) -> "RoundingState":
        """e's state: M = diag(1/semiaxes) on the basis e.axes, or at full rank times axes^T."""
        d, k = e.axes.shape
        inv_s = 1.0 / e.semiaxes
        if k == d:
            # C order, as every other inverse: a product's rounding follows the layout
            basis, inverse = _identity(d), np.multiply(inv_s[:, None], e.axes.T, order="C")
        else:
            basis, inverse = e.axes, np.diag(inv_s)
        return RoundingState(e.center, basis, inverse, _norm(e.semiaxes), alpha, log_volume(e))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def alpha_inv(self) -> float:
        return 1.0 / self.alpha

    @functools.cached_property
    def ellipsoid(self) -> Ellipsoid:
        """The outer body as an Ellipsoid on the axes and semiaxes `_factor_svd` reads
        off M's SVD; NumericalLimitError on a collapsed body or a non-finite M."""
        u, s = _factor_svd(self.inverse)
        return Ellipsoid(self.center, u if self.dim == len(self.center) else self.basis @ u, s)

    @property
    def span_scale(self) -> float:
        """The view's span_scale, read off factor_norm = |T|_F."""
        return span_scale(self.factor_norm, self.dim)

    @property
    def cond_bound(self) -> float:
        """|T|_F |M|_F, the running bound on s_max/s_min."""
        return self.factor_norm * self.inverse_norm


def _factor_svd(inverse: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(U, S), S descending, of the SVD T = U S V^T of T = inv(inverse), read off
    the one SVD inverse = U' S' V'^T: T = V' S'^-1 U'^T, so U is V' and S is 1/S',
    both reversed. NumericalLimitError(s_max/s_min = s'_max/s'_min) past
    1/RANK_COLLAPSE_RATIO, inf where S' holds a 0 or the inverse is not finite,
    which is refused first: LAPACK's SVD can loop on inf entries."""
    if not np.isfinite(inverse).all():
        raise NumericalLimitError(math.inf)
    try:
        _, s, vt = np.linalg.svd(inverse)
    except np.linalg.LinAlgError:
        raise NumericalLimitError(math.inf) from None
    if len(s) and not (s[-1] >= RANK_COLLAPSE_RATIO * s[0] and s[0] > 0.0):
        raise NumericalLimitError(float(s[0] / s[-1]) if s[-1] else math.inf)
    return vt[::-1].T, 1.0 / s[::-1]


class UpdateParams(NamedTuple):
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
    if not 0.0 <= gamma <= GAMMA_MAX:
        raise UpdateError("gamma must be finite, nonnegative and at most GAMMA_MAX")
    a = math.exp(gamma)
    alpha_next = 1.0 / (1.0 / alpha + 2.0 * gamma)
    b = 1.0 + (alpha - alpha_next) / 2.0
    c = -alpha + alpha_next * a
    return UpdateParams(gamma, a, b, c, alpha_next)


def _a_plus_c(gamma: float, alpha: float) -> Tuple[float, float]:
    """a + c at gamma and its slope d(a + c)/dgamma = a (1 + alpha' - 2 alpha'^2)."""
    alpha_next = 1.0 / (1.0 / alpha + 2.0 * gamma)
    a = math.exp(gamma)
    return a * (1.0 + alpha_next) - alpha, a * (1.0 + alpha_next * (1.0 - 2.0 * alpha_next))


def solve_gamma(rho: float, alpha: float) -> float:
    """A gamma with a + c in [rho, rho*(1 + GAMMA_REL_RESIDUAL)].

    The map gamma -> a + c equals 1 at gamma = 0 and is increasing and
    convex, so Newton started at the upper bracket log(rho) + 1 falls
    monotonically onto the root from above; should rounding push an
    iterate below it, bisection of the bracket takes over. The upper end
    of the residual window is returned deliberately: overshooting keeps
    the new point covered. The bracket holds: at log(rho) + 1, a + c >=
    e rho - 1/2 > rho, as alpha <= 1/2 and rho > 1.
    """
    if not 1.0 < rho <= RHO_MAX:
        raise UpdateError("rho must be finite, exceed 1 and be at most RHO_MAX")
    if not (0.0 < alpha <= 0.5):
        raise UpdateError("alpha must lie in (0, 1/2]")
    lo, hi = 0.0, math.log(rho) + 1.0
    f_hi, slope = _a_plus_c(hi, alpha)
    target_hi = rho * (1.0 + GAMMA_REL_RESIDUAL)
    newton = True
    for _ in range(GAMMA_MAX_ITER):
        if f_hi <= target_hi:
            return hi
        mid = hi - (f_hi - rho) / slope if newton else 0.5 * (lo + hi)
        f_mid, slope_mid = _a_plus_c(mid, alpha)
        if f_mid >= rho:
            hi, f_hi, slope = mid, f_mid, slope_mid
        else:
            lo, newton = mid, False
    if f_hi <= rho * (1.0 + GAMMA_FALLBACK_RESIDUAL):
        return hi
    raise UpdateError("gamma solve did not converge")


def _finite_point(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise UpdateError("non-finite point")
    return z


def _split(state: RoundingState, z: np.ndarray) -> SpanSplit:
    """basis_split of z at the state's span scale; at full rank, where the
    state is ambient, what it returns on the identity basis with no product:
    coeffs = delta and a residual of 0."""
    d, k = state.basis.shape
    if k < d:
        return basis_split(state.center, state.basis, state.span_scale, z)
    check_shape(z, state.center)
    delta = z - state.center
    return SpanSplit(delta, delta, np.zeros(d), 0.0, False)


class Frame(NamedTuple):
    """A step's normalized frame, where the previous outer body is the unit
    ball: v taken from the previous center has coordinates shear @ (basis.T @ v)."""

    basis: np.ndarray   # d x kf: Q, or [Q, v] after a span raise; I once kf = d
    shear: np.ndarray   # kf x kf: M, or M bordered and sheared (times [Q, v]^T once kf = d)
    z: np.ndarray       # the new point in the frame
    raised: bool


def frame(state: RoundingState, split: SpanSplit) -> Frame:
    """The frame M Q^T of a step from `state` on z, given z's split. A span
    raise borders it by v = residual/|residual| and shears it to fix the old
    span and send z to sqrt(1 + 2 alpha) e_k, where `_irregular` builds the
    raised body as a ball. A raise to rank d gives the frame in ambient
    coordinates, basis I and shear @ [Q, v]^T, as the raised state keeps it."""
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
    basis = np.hstack([state.basis, (split.residual / split.rnorm)[:, None]])
    if k + 1 == len(basis):
        return Frame(_identity(k + 1), shear @ basis.T, z, True)
    return Frame(basis, shear, z, True)


def _checked(state: RoundingState) -> RoundingState:
    """The state as it is, once the collapse guard has passed it: where its
    cond_bound >= s_max/s_min passes 0.5/RANK_COLLAPSE_RATIO (0.5 for the
    rounding of factor_norm's recurrence, as in coreset.drop_limit), or is
    NaN, `_factor_svd` reads the exact ratio off M's SVD and raises on a collapsed body;
    so does a factor_norm past float64's range, whose span_scale reads every point in-span."""
    if not state.cond_bound * RANK_COLLAPSE_RATIO <= 0.5:
        if not state.factor_norm < math.inf:
            raise NumericalLimitError(math.inf)
        _factor_svd(state.inverse)
    return state


def _regular(state: RoundingState,
             coeffs: np.ndarray) -> Tuple[RoundingState, Optional[UpdateParams]]:
    """The regular step on an in-span point given by its span coordinates;
    (state, None) when covered. NumericalLimitError at rank 1 where rho
    passes RHO_MAX, and at rank k >= 2 where its square overflows: then a/b
    > 1e153, so s_max/s_min of the new body, at least (a/b) / the previous
    cond_bound (s_max' >= a s_min, s_min' <= b s_max), is far past
    1/RANK_COLLAPSE_RATIO. A collapse reports that bound where it exceeds
    the ratio of the guard's SVD.

    With y = M coeffs the point's unit-ball coordinates, rho = |y| and w =
    y/rho, the factor becomes T' = T (b I + (a - b) w w^T), so its inverse
    is, by Sherman & Morrison (1950), M' = (I - (1 - b/a) w w^T) M / b: one
    O(k^2) update. T w = coeffs/rho needs no T, and |T'|_F^2 = b^2 |T|_F^2
    + (2 b (a - b) + (a - b)^2) |T w|^2 = b^2 |T|_F^2 + (a^2 - b^2) |T w|^2.
    """
    d, k = state.basis.shape
    if k == 1:
        # |M c| in Python floats, which pass float64's range as inf with no warning
        rho = abs(state.inverse_norm * float(coeffs[0]))
    else:
        y = state.inverse @ coeffs
        rho = _norm(y)
    if rho <= 1.0:
        return state, None
    if not (rho <= RHO_MAX if k == 1 else rho * rho < math.inf):
        raise NumericalLimitError(math.inf)

    # solve_gamma enforces alpha <= 1/2
    params = compute_params(solve_gamma(rho, state.alpha), state.alpha)
    a, b = params.a, params.b
    tw = coeffs / rho
    r = b / a
    if k == 1:
        # w = -+1 and M' = M / a, which the rank-one form cancels to 0 once b/a < eps/2
        inverse = state.inverse / a
    else:
        # M' by broadcasting, rounding as (M - outer((1 - b/a) w, w M)) / b
        w = y / rho
        inverse = ((1.0 - r) * w)[:, None] * (w @ state.inverse)
        np.subtract(state.inverse, inverse, out=inverse)
        inverse /= b
    # sqrt(a^2 - b^2) = a sqrt((1 - b/a)(1 + b/a)); a > b, and no square overflows
    factor_norm = math.hypot(b * state.factor_norm,
                             a * math.sqrt((1.0 - r) * (1.0 + r)) * _norm(tw))
    # the center moves along the pre-image of w, in span coordinates below
    # full rank; log a = gamma
    move = params.c * tw
    try:
        return _checked(RoundingState(
            state.center + (move if k == d else state.basis @ move), state.basis, inverse,
            factor_norm, params.alpha_next,
            state.log_volume + params.gamma + (k - 1) * math.log(b))), params
    except NumericalLimitError as exc:
        # the guard's SVD of a rounded M' may read its rounding floor (see above)
        raise NumericalLimitError(max(exc.ratio, a / b / state.cond_bound)) from None


def _irregular(state: RoundingState, z: np.ndarray,
               split: SpanSplit) -> RoundingState:
    """The span raise toward an off-span point z, given its split.

    In the step's `frame` the previous body is the unit ball of its span
    and z lies at sqrt(1+2*alpha) times the new basis vector; the new outer
    body is the ball of radius (1+alpha)/sqrt(1+2*alpha) there, recentred a
    fraction alpha/(1+2*alpha) of the way toward z. Its inverse is the
    frame's shear over that radius. Its factor, scale [[T, coeffs], [0,
    rnorm]] / root, borders the previous one by one row and column, so
    |T'|_F^2 = scale^2 (|T|_F^2 + (|coeffs|^2 + rnorm^2) / root^2). 1/alpha
    grows by one.
    """
    if not (0.0 < state.alpha <= 1.0):
        raise UpdateError("alpha must lie in (0, 1]")
    # axes under SPAN_TOL/2 rnorm are a near-duplicate's: below 3/4 (k+1)^(1/4) SPAN_TOL times
    # the raised span scale (|T'|_F >= 2/3 rnorm). Kept, they collapse it, as axes kept by a
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
    factor_norm = scale * math.hypot(state.factor_norm, _norm(coeffs) / root, rnorm / root)
    return _checked(RoundingState(
        state.center + (alpha / (1.0 + 2.0 * alpha)) * delta, fr.basis,
        fr.shear / scale, factor_norm, 1.0 / (1.0 / alpha + 1.0),
        state.log_volume + (k + 1) * math.log(scale) + math.log(rnorm / root)))


def step(state: RoundingState, z: np.ndarray) -> Step:
    """The per-point kernel: a skip, regular or irregular Step from
    `state`, carrying the split that decided it. Refuses a non-finite z and
    a full-rank state whose basis is not the identity (the kernel reads none)."""
    d, k = state.basis.shape
    if k == d and not (state.basis is _identity(d) or np.array_equal(state.basis, _identity(d))):
        raise UpdateError("a full-rank basis must be I (see RoundingState.from_ellipsoid)")
    return _step(state, _finite_point(z))


def _step(state: RoundingState, z: np.ndarray) -> Step:
    """`step` on a finite float z, the kernel every driver's fold runs:
    `streaming.chunks` has checked each row's finiteness, once."""
    split = _split(state, z)
    if split.off:
        return Step(state, _irregular(state, z, split), z, "irregular", 0.0, split)
    new, params = _regular(state, split.coeffs)
    if params is None:
        return Step(state, state, z, "skip", 0.0, split)
    return Step(state, new, z, "regular", params.gamma, split)


def leading_skips(state: RoundingState, zs: np.ndarray, limit: float) -> int:
    """How many leading rows of zs are certain skips at `state`: in the span
    by half its threshold (see scan_rows) and with rho <= limit * (1 -
    SKIP_MARGIN - scan_tolerance). `step` skips each of them; a row nearer
    either threshold ends the run, and `step` re-decides it. A limit above 1
    also passes covered-by-limit rows, which only the coreset may drop.
    """
    # the map to unit-ball coordinates: a full-rank state's inverse itself,
    # else inverse @ basis.T, formed per scan and not kept on the state
    d, k = state.basis.shape
    rho, inside = scan_rows(state.center, state.basis,
                            state.inverse if k == d else state.inverse @ state.basis.T,
                            state.span_scale, zs)
    tol = scan_tolerance(len(state.center), state.dim, state.cond_bound)
    ok = inside & (rho <= limit * (1.0 - SKIP_MARGIN - tol))
    j = int(ok.argmin())
    return len(ok) if ok[j] else j


full_update_detailed = irregular_update = is_off_span = None  # for perfbench/tracing.py only
