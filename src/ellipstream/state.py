"""The streaming sandwich state shared by the update rules and the drivers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ellipsoid import Ellipsoid


@dataclass(frozen=True)
class RoundingState:
    """Current sandwich center + alpha*E inside the hull inside center + E.

    `ellipsoid` carries the outer body; its axes double as the orthonormal
    basis of the affine span of the points seen so far (relative to the
    center). `dim` is the span dimension.
    """

    ellipsoid: Ellipsoid
    alpha: float

    @property
    def center(self) -> np.ndarray:
        return self.ellipsoid.center

    @property
    def dim(self) -> int:
        return self.ellipsoid.rank

    @property
    def alpha_inv(self) -> float:
        return 1.0 / self.alpha
