"""The streaming sandwich state shared by the update rules and the drivers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .ellipsoid import Ellipsoid


class Phase(enum.Enum):
    LOCAL_BALL = "local_ball"
    FULL = "full"


@dataclass(frozen=True)
class RoundingState:
    """Current sandwich center + alpha*E inside the hull inside center + E.

    `ellipsoid` carries the outer body; its axes double as the orthonormal
    basis of the affine span of the points seen so far (relative to the
    center). `dim` is the span dimension; `phase` is only used by the
    seeded two-phase driver.
    """

    ellipsoid: Ellipsoid
    alpha: float
    phase: Optional[Phase] = None

    @property
    def center(self) -> np.ndarray:
        return self.ellipsoid.center

    @property
    def dim(self) -> int:
        return self.ellipsoid.rank

    def with_body(self, ellipsoid: Ellipsoid, alpha: float) -> "RoundingState":
        return replace(self, ellipsoid=ellipsoid, alpha=alpha)

    @property
    def alpha_inv(self) -> float:
        return 1.0 / self.alpha
