"""End-to-end drivers: seeded two-phase rounding and fully-online rounding.

Both consume a finite iterable of points and fold the monotone update rule
over it, producing the final sandwich state plus a per-step report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from .ellipsoid import Ellipsoid, NumericalLimitError, log_volume
from .state import RoundingState
from .update_rule import UpdateParams, step
# looked up here by perfbench/tracing.py
from .update_rule import full_update_detailed, irregular_update, is_off_span  # noqa: F401

# re-exported: the state type logically belongs to this module
__all__ = [
    "RoundingState",
    "StepRecord",
    "RunReport",
    "run_seeded",
    "run_fully_online",
]

StepObserver = Callable[[int, RoundingState, RoundingState, np.ndarray, str, float], None]


@dataclass(frozen=True)
class StepRecord:
    t: int
    alpha: float
    log_volume: float
    step_kind: str  # init | skip | regular | irregular | local
    gamma: float


@dataclass
class RunReport:
    records: List[StepRecord] = field(default_factory=list)
    final_alpha_inv: float = 1.0

    def append(self, rec: StepRecord) -> None:
        if self.records and rec.t <= self.records[-1].t:
            raise ValueError("records must be strictly ordered by t")
        self.records.append(rec)

    def regular_gamma_sum(self) -> float:
        return sum(r.gamma for r in self.records if r.step_kind == "regular")

    def irregular_count(self) -> int:
        return sum(1 for r in self.records if r.step_kind == "irregular")


def _check_point(z: np.ndarray, t: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"non-finite point at index {t}")
    return z


def _record(report: RunReport, on_step: Optional[StepObserver], t: int,
            prev: RoundingState, state: RoundingState, z: np.ndarray,
            kind: str, params: Optional[UpdateParams]) -> None:
    gamma = 0.0 if params is None else params.gamma
    report.append(StepRecord(t, state.alpha, log_volume(state.ellipsoid),
                             kind, gamma))
    if on_step is not None:
        on_step(t, prev, state, z, kind, gamma)


def run_seeded(
    stream: Iterable[np.ndarray],
    c0: np.ndarray,
    r0: float,
    on_step: Optional[StepObserver] = None,
) -> Tuple[RoundingState, RunReport]:
    """Two-phase rounding given a seed ball c0 + r0*B inside the hull.

    Phase I keeps both bodies as balls around c0; once a point lands
    beyond r0 * d * log(d) the outer ball is grown to that radius once
    and for all and every remaining point (including the trigger) goes
    through the step kernel.
    """
    c0 = np.atleast_1d(np.asarray(c0, dtype=float))
    d = c0.shape[0]
    if d < 2:
        raise ValueError("seeded mode needs dimension >= 2")
    if not (r0 > 0):
        raise ValueError("seed radius must be positive")
    gate = r0 * d * math.log(d)

    report = RunReport()
    state = RoundingState(Ellipsoid.ball(c0, r0), alpha=1.0)
    local = True  # phase I: both bodies are balls around c0
    try:
        for t, z in enumerate(stream, start=1):
            z = _check_point(z, t)
            if local:
                dist = float(np.linalg.norm(z - c0))
                if dist > gate:
                    # transition: grow the ball to its maximum allowed size; the
                    # update rule needs alpha <= 1/2, so small dimensions are
                    # clamped
                    alpha0 = min(0.5, 1.0 / (d * math.log(d)))
                    state = RoundingState(Ellipsoid.ball(c0, gate), alpha=alpha0)
                    local = False
            prev = state
            if not local:
                state, kind, params = step(state, z)
            elif dist > state.ellipsoid.semiaxes[0]:
                state = RoundingState(Ellipsoid.ball(c0, dist), alpha=r0 / dist)
                kind, params = "local", None
            else:
                kind, params = "skip", None
            _record(report, on_step, t, prev, state, z, kind, params)
    except NumericalLimitError as exc:
        raise exc.at_step(t) from exc

    report.final_alpha_inv = state.alpha_inv
    return state, report


def run_fully_online(
    stream: Iterable[np.ndarray],
    on_step: Optional[StepObserver] = None,
) -> Tuple[RoundingState, RunReport]:
    """Online rounding with no seed: the first point initializes a rank-0
    state and every span-raising point triggers an irregular step.
    """
    report = RunReport()
    state: Optional[RoundingState] = None
    try:
        for t, z in enumerate(stream, start=1):
            z = _check_point(z, t)
            if state is None:
                state = RoundingState(Ellipsoid.point(z), alpha=1.0)
                _record(report, on_step, t, state, state, z, "init", None)
                continue
            prev = state
            state, kind, params = step(state, z)
            _record(report, on_step, t, prev, state, z, kind, params)
    except NumericalLimitError as exc:
        raise exc.at_step(t) from exc

    if state is None:
        raise ValueError("empty stream")
    report.final_alpha_inv = state.alpha_inv
    return state, report
