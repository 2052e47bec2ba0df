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
from .update_rule import RoundingState, Step, compute_params, step
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
    s = step(state, z)
    jump = s.state.log_volume - state.log_volume
    if s.kind == "regular" and jump < VOLUME_JUMP_LOG - TIE_TOL:
        return Step(state, state, s.z, "skip", 0.0, s.split)
    return s


def run_coreset(stream: Iterable[np.ndarray],
                on_step: Optional[StepObserver] = None,
                ) -> Tuple[CoresetTrace, RunReport]:
    """Fold coreset_step over a stream; `on_step` sees each kept step."""
    state, report = fold(stream, coreset_step, on_step=on_step,
                         skip_limit=drop_limit)
    kept = [(rec.t + i, REASONS[rec.step_kind]) for rec, n in report.runs
            if rec.step_kind != "skip" for i in range(n)]
    return CoresetTrace(tuple(t for t, _ in kept), tuple(r for _, r in kept),
                        state), report


def drop_limit(state: RoundingState) -> float:
    """rho* of the state: coreset_step drops every in-span point with rho
    below it (see the module docstring). 1 at rank 0, and near the collapse
    guard, where a tentative step could raise NumericalLimitError.
    """
    k = state.dim
    if k == 0:
        return 1.0
    # a dropped step stretches s_max/s_min by at most a < e; near the
    # guard its tentative body may collapse, which must still raise; the
    # state's cond_bound stands in for the ratio
    if state.cond_bound * math.e > 0.5 / RANK_COLLAPSE_RATIO:
        return 1.0
    alpha = state.alpha
    target = VOLUME_JUMP_LOG - TIE_TOL

    def growth(gamma: float) -> float:
        # gamma + (k-1) log b, with b as compute_params forms it
        alpha_next = 1.0 / (1.0 / alpha + 2.0 * gamma)
        return gamma + (k - 1) * math.log(1.0 + (alpha - alpha_next) / 2.0)

    # growth(gamma) >= gamma, so gamma* lies in [0, target]; lo stays below
    # it, and 1e-12 is far inside SKIP_MARGIN
    lo, hi = 0.0, target
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if growth(mid) < target:
            lo = mid
        else:
            hi = mid
    p = compute_params(lo, alpha)
    return p.a + p.c
