"""Streaming convex-hull coreset selection.

A point is kept when committing it would either raise the affine span
dimension or multiply the outer volume by at least e; everything else is
provably redundant and the driver state is left untouched, which is what
makes replaying the selected sub-stream bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .ellipsoid import Ellipsoid, NumericalLimitError, log_volume
from .state import RoundingState
from .streaming import RunReport, StepRecord
from .update_rule import step
# looked up here by perfbench/tracing.py
from .update_rule import full_update_detailed, irregular_update, is_off_span  # noqa: F401

# selection threshold in log space; ties select the point
VOLUME_JUMP_LOG = 1.0
TIE_TOL = 1e-12


@dataclass(frozen=True)
class CoresetTrace:
    selected: Tuple[int, ...] = ()
    reasons: Tuple[str, ...] = ()  # dim_growth | volume_jump
    driver: Optional[RoundingState] = None

    def with_selection(self, t: int, reason: str,
                       state: RoundingState) -> "CoresetTrace":
        return CoresetTrace(self.selected + (t,), self.reasons + (reason,), state)


def coreset_step(trace: CoresetTrace, t: int,
                 z: np.ndarray) -> Tuple[CoresetTrace, str, float]:
    """Process one stream point; returns the new trace, the step kind
    (init | irregular | regular for a kept point, skip for a dropped one)
    and the gamma of a kept regular step (0 otherwise)."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"non-finite point at index {t}")
    state = trace.driver
    if state is None:
        first = RoundingState(Ellipsoid.point(z), alpha=1.0)
        return trace.with_selection(t, "dim_growth", first), "init", 0.0

    tentative, kind, params = step(state, z)
    if kind == "irregular":
        return trace.with_selection(t, "dim_growth", tentative), kind, 0.0
    if kind == "regular":
        dlogvol = log_volume(tentative.ellipsoid) - log_volume(state.ellipsoid)
        if dlogvol >= VOLUME_JUMP_LOG - TIE_TOL:
            return (trace.with_selection(t, "volume_jump", tentative), kind,
                    params.gamma)
    return trace, "skip", 0.0


def run_coreset(stream: Iterable[np.ndarray]) -> Tuple[CoresetTrace, RunReport]:
    """Fold coreset_step over a stream."""
    trace = CoresetTrace()
    report = RunReport()
    try:
        for t, z in enumerate(stream, start=1):
            trace, kind, gamma = coreset_step(trace, t, z)
            state = trace.driver
            report.append(StepRecord(t, state.alpha, log_volume(state.ellipsoid),
                                     kind, gamma))
    except NumericalLimitError as exc:
        raise exc.at_step(t) from exc
    if trace.driver is not None:
        report.final_alpha_inv = trace.driver.alpha_inv
    return trace, report
