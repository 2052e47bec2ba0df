"""Streaming convex-hull coreset selection.

`coreset_step` is a keep-rule on `step`. A point is kept when committing it
would either raise the affine span dimension or multiply the outer volume
by at least e; everything else is provably redundant and the driver state
is left untouched, which is what makes replaying the kept points, the
report's non-skip steps, bit-exact.

Since a dropped point leaves the state untouched, `run_coreset` scans past
runs of them in bulk (see `streaming.fold`): a covered point, and also an
in-span point whose tentative regular step would stay below the threshold.
The tentative step multiplies the factor by b I + (a - b) w w^T, whose
determinant is a b^(k-1), so on a rank-k body the recorded log volume grows
by log a + (k-1) log b = gamma + (k-1) log b(gamma), in closed form. That
is increasing in gamma, and gamma in rho, so the point is dropped for every
rho below rho*, where gamma* solves gamma + (k-1) log b(gamma) =
VOLUME_JUMP_LOG - TIE_TOL and rho* = a(gamma*) + c(gamma*). The scan passes
rows with rho <= rho* (1 - SKIP_MARGIN - scan_tolerance): the margin covers
the gamma solve's 1e-10 window and the rounding of the difference of two
recorded log volumes, a few ulps of their size. A state whose tentative
step could trip the collapse guard scans with limit 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .ellipsoid import RANK_COLLAPSE_RATIO
from .streaming import RunReport, StepObserver, fold
from .update_rule import RoundingState, Step, _step, compute_params, step
# looked up here by perfbench/tracing.py
from .ellipsoid import log_volume  # noqa: F401
from .update_rule import full_update_detailed, irregular_update, is_off_span  # noqa: F401

# selection threshold in log space; ties select the point
VOLUME_JUMP_LOG = 1.0
TIE_TOL = 1e-12


@dataclass(frozen=True)
class CoresetTrace:
    selected: Tuple[int, ...] = ()
    reasons: Tuple[str, ...] = ()  # dim_growth | volume_jump
    driver: Optional[RoundingState] = None


# the reason recorded for a kept step of each kind
REASONS = {"init": "dim_growth", "irregular": "dim_growth", "regular": "volume_jump"}


def coreset_step(state: RoundingState, z: np.ndarray) -> Step:
    """`step`, keeping only span raises and volume-jumping regular steps; a
    dropped regular step becomes a skip that keeps its split."""
    return _kept(step(state, z))


def _kept(s: Step) -> Step:
    if s.kind == "regular" and s.state.log_volume - s.prev.log_volume < VOLUME_JUMP_LOG - TIE_TOL:
        return Step(s.prev, s.prev, s.z, "skip", 0.0, s.split)
    return s


def run_coreset(stream: Iterable[np.ndarray],
                on_step: Optional[StepObserver] = None,
                ) -> Tuple[CoresetTrace, RunReport]:
    """Fold coreset_step over a stream; `on_step` sees each kept step."""
    state, report = fold(stream, lambda state, z: _kept(_step(state, z)), on_step=on_step,
                         skip_limit=drop_limit)
    kept = [(rec.t + i, REASONS[rec.step_kind]) for rec, n in report.runs
            if rec.step_kind != "skip" for i in range(n)]
    return CoresetTrace(tuple(t for t, _ in kept), tuple(r for _, r in kept),
                        state), report


def drop_limit(state: RoundingState) -> float:
    """rho* = a + c at gamma* (from below, `_drop_gamma`): coreset_step drops
    every in-span point with rho below it (see the module docstring). 1 at
    rank 0, and near the collapse guard, where a tentative step could raise.
    """
    k = state.dim
    if k == 0:
        return 1.0
    # a dropped step stretches s_max/s_min by at most a < e; near the
    # guard its tentative body may collapse, which must still raise; the
    # state's cond_bound stands in for the ratio
    if state.cond_bound * math.e > 0.5 / RANK_COLLAPSE_RATIO:
        return 1.0
    p = compute_params(_drop_gamma(k, state.alpha), state.alpha)
    return p.a + p.c


def _drop_gamma(k: int, alpha: float) -> float:
    """gamma* from below: growth(gamma) = gamma + (k-1) log b < VOLUME_JUMP_LOG - TIE_TOL.
    growth is increasing and concave (d log b/dgamma = alpha'^2/b), so Newton from 0
    stays below gamma*, until rounding stalls its steps or puts an iterate on or past
    gamma* (at k = 1 the first lands on it); that one backs off by Newton's correction,
    at least an ulp and twice its last back-off."""
    target = VOLUME_JUMP_LOG - TIE_TOL

    def growth(gamma: float) -> Tuple[float, float]:
        # and its slope, with b as compute_params forms it
        alpha_next = 1.0 / (1.0 / alpha + 2.0 * gamma)
        b = 1.0 + (alpha - alpha_next) / 2.0
        return gamma + (k - 1) * math.log(b), 1.0 + (k - 1) * alpha_next * alpha_next / b

    gamma, (g, slope), last = 0.0, growth(0.0), math.inf
    while True:
        rise = (target - g) / slope
        g_nxt, slope_nxt = growth(gamma + rise)
        if g_nxt >= target or not 2.0 * rise < last:
            break
        gamma, g, slope, last = gamma + rise, g_nxt, slope_nxt, rise
    nxt, back = gamma + rise, 0.0
    while g_nxt >= target and nxt > gamma:
        back = max(2.0 * back, (g_nxt - target) / slope_nxt, nxt - math.nextafter(nxt, 0.0))
        nxt -= back
        g_nxt, slope_nxt = growth(nxt)
    return max(gamma, nxt)
