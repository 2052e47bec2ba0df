"""Lower-bound adversary: a point stream that forces any monotone rule to
pay approximation factor for volume.

Phase I feeds the vertices of a regular simplex circumscribing the unit
ball; Phase II repeatedly serves a point on the boundary of the doubled
outer ellipsoid (staying inside the R-ball) until the outer volume
reaches that of the R/2 ball or no such point exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from .ellipsoid import Ellipsoid, _unit_directions, log_volume
from .linalg import orthonormal_completion
from .state import RoundingState
from .update_rule import step

UpdateRule = Callable[[RoundingState, np.ndarray], RoundingState]

_SHELL_SEED = 1729
ADVERSARY_MAX_STEPS = 100000
# reduced_case_grid: the dimensions, and the grid sizes for a, b, A and c
GRID_DIMS = (2, 3, 4, 5, 6, 7, 8)
GRID_N_A, GRID_N_B, GRID_N_BIG_A, GRID_N_C = 24, 24, 16, 60


class AdversaryError(ValueError):
    pass


@dataclass
class AdversaryTrace:
    points: List[np.ndarray] = field(default_factory=list)
    a_values: List[float] = field(default_factory=list)  # 1/alpha after each step
    p_values: List[float] = field(default_factory=list)  # log outer volume ratio
    step_kinds: List[str] = field(default_factory=list)  # simplex | shell
    stop_reason: str = ""

    @property
    def phase2_steps(self) -> int:
        return sum(1 for k in self.step_kinds if k == "shell")


def simplex_vertices(d: int) -> np.ndarray:
    """The d+1 vertices of a regular simplex circumscribing the unit ball.

    Constructed from the standard simplex in one dimension up: centered,
    rotated into the hyperplane orthogonal to the all-ones vector, and
    scaled so the inradius is exactly 1 (making the circumradius d).
    """
    if d < 2:
        raise AdversaryError("dimension must be at least 2")
    ones = np.full(d + 1, 1.0 / math.sqrt(d + 1))
    frame = orthonormal_completion(ones)
    basis = frame[:, 1:]  # orthonormal basis of the sum-zero hyperplane
    eye = np.eye(d + 1)
    centered = eye - 1.0 / (d + 1)
    coords = centered @ basis  # rows: centered vertices in d coordinates
    scale = math.sqrt(d * (d + 1))  # takes vertex norm sqrt(d/(d+1)) to d
    return coords * scale


def library_rule(state: RoundingState, z: np.ndarray) -> RoundingState:
    """This library's own update, with the initial alpha clamped to the
    update rule's valid range (shrinking the inner body is always a
    legal monotone move)."""
    if state.alpha > 0.5:
        state = replace(state, alpha=0.5)
    return step(state, z).state


def shell_point(state: RoundingState, r_cap: float) -> Optional[np.ndarray]:
    """A point of boundary(center + 2E) with norm at most r_cap, if any.

    Deterministic: the 2d signed semiaxis endpoints are tried first in
    order of increasing norm; failing that, 4096 fixed-seed random boundary
    directions are scanned and the smallest-norm candidate is returned if
    it fits.
    """
    body = state.ellipsoid
    if body.rank != body.dim:
        raise AdversaryError("shell search needs a full-rank state")
    c = body.center
    candidates = []
    for i in range(body.rank):
        step = 2.0 * body.semiaxes[i] * body.axes[:, i]
        candidates.append(c + step)
        candidates.append(c - step)
    candidates.sort(key=lambda p: float(np.linalg.norm(p)))
    for p in candidates:
        if np.linalg.norm(p) <= r_cap * (1.0 + 1e-12):
            return p
    dirs = _unit_directions(4096, body.rank, _SHELL_SEED)
    pts = c[None, :] + 2.0 * (dirs * body.semiaxes[None, :]) @ body.axes.T
    norms = np.linalg.norm(pts, axis=1)
    j = int(np.argmin(norms))
    if norms[j] <= r_cap * (1.0 + 1e-12):
        return pts[j]
    return None


def run_adversary(rule: UpdateRule, d: int, r_big: float) -> AdversaryTrace:
    """Drive a monotone rule with the adversarial stream.

    The trace records A_t = 1/alpha_t and P_t = log-volume ratio after
    every fed point. Basic monotonicity (alpha never grows back, volume
    never shrinks) is spot-checked on every step.
    """
    if d < 2:
        raise AdversaryError("dimension must be at least 2")
    if not (1.0 <= r_big < math.inf):
        raise AdversaryError("outer radius must be finite and at least 1")
    state = RoundingState.from_ellipsoid(Ellipsoid.ball(np.zeros(d), 1.0), alpha=1.0)
    trace = AdversaryTrace()

    def feed(z: np.ndarray, kind: str) -> None:
        nonlocal state
        prev_alpha = state.alpha
        prev_vol = log_volume(state.ellipsoid)
        state = rule(state, np.asarray(z, dtype=float))
        if state.alpha > prev_alpha + 1e-12 or \
                log_volume(state.ellipsoid) < prev_vol - 1e-9:
            raise AdversaryError("non-monotone rule")
        trace.points.append(np.asarray(z, dtype=float))
        trace.a_values.append(state.alpha_inv)
        trace.p_values.append(log_volume(state.ellipsoid))
        trace.step_kinds.append(kind)

    for v in simplex_vertices(d):
        feed(v, "simplex")

    target = d * math.log(r_big / 2.0)
    for _ in range(ADVERSARY_MAX_STEPS):
        if log_volume(state.ellipsoid) > target:
            trace.stop_reason = "volume_reached"
            break
        z = shell_point(state, r_big)
        if z is None:
            trace.stop_reason = "shell_empty"
            break
        feed(z, "shell")
    else:
        raise AdversaryError("adversary did not terminate")
    return trace


# ---------------------------------------------------------------------------
# reduced-case grid for the per-step reverse evolution bound


@dataclass(frozen=True)
class ReducedCaseReport:
    n_points: int
    min_ratio: float
    c_observed: float
    min_slack: float


def reduced_case_grid() -> ReducedCaseReport:
    """Numerically probe the hardest monotone update in the reduced
    two-ellipse configuration (previous sandwich = unit ball pair scaled
    by 1/A, new point at distance 2 on the long axis).

    For every grid cell the largest feasible next inner scale is computed
    from the width, reach, and tangent-line constraints, giving the
    smallest possible step ratio dA/dP; the report carries the minimal
    constant observed wherever the A/(10 d) branch is not the binding one.
    The cells are evaluated in one pass over (A, a, b, c); d enters only
    dP and the bound.
    """
    big_a = np.geomspace(1.0, 200.0, GRID_N_BIG_A)[:, None, None]
    a = np.geomspace(1.5, 50.0, GRID_N_A)[:, None]
    b = np.geomspace(1.0, 50.0, GRID_N_B)
    alpha = 1.0 / big_a
    # (A, a, c): GRID_N_C values of c from c_lo to c_hi, as np.linspace
    # lays them out; a cell with c_hi <= c_lo is dropped
    c_lo = np.maximum(-alpha, 2.0 - a) + 1e-9
    c_hi = a - 1.0
    c = np.arange(GRID_N_C) * ((c_hi - c_lo) / (GRID_N_C - 1)) + c_lo
    c[..., -1] = c_hi[:, 0]
    # (A, a, b, c) -> (A, a, b): the largest next inner scale over c
    width = (alpha / b)[..., None]
    reach = ((c + alpha) / a)[:, :, None, :]
    tangent = ((2.0 - c) * (alpha / 2.0) / np.sqrt(1.0 - (alpha / 2.0) ** 2))
    tangent = tangent[:, :, None, :] / b[:, None]
    best = np.minimum(width, np.minimum(reach, tangent)).max(axis=-1)
    ok = (c_hi > c_lo) & (best > 0.0)

    # (d, kept cell)
    dims = np.asarray(GRID_DIMS)
    big_a = np.broadcast_to(big_a, ok.shape)[ok]
    delta_a = 1.0 / best[ok] - big_a
    delta_p = np.log(a) + (dims[:, None, None] - 1) * np.log(b)
    delta_p = np.broadcast_to(delta_p[:, None], (len(dims),) + ok.shape)[:, ok]
    ratios = delta_a / delta_p
    bounds = big_a / (10.0 * dims[:, None])

    below = ratios < bounds
    c_observed = float(ratios[below].min() if below.any() else ratios.min())
    slack = ratios - np.minimum(c_observed, bounds)
    return ReducedCaseReport(n_points=ratios.size, min_ratio=float(ratios.min()),
                             c_observed=c_observed, min_slack=float(slack.min()))
