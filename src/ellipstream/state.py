"""The streaming sandwich state shared by the update rules and the drivers:
the outer body {center + basis @ factor @ x : |x| <= 1}, with `basis` the
orthonormal d x k basis of the points' span and `inverse` the factor's, so
that a step on a well-conditioned body needs no decomposition (see
update_rule.ALIGN_LIMIT); `ellipsoid` is a validated view of it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ellipsoid import Ellipsoid, log_volume


@dataclass(frozen=True)
class RoundingState:
    """Current sandwich center + alpha*E inside the hull inside center + E;
    `log_volume` is log |det factor|, E's log volume over the unit k-ball's.
    `dim` is the span dimension k.
    """

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
    def factor_norm(self) -> float:
        """|factor|_F, at least the largest semiaxis."""
        return math.sqrt(np.vdot(self.factor, self.factor))

    @cached_property
    def inverse_norm(self) -> float:
        """|inverse|_F, at least 1 / the smallest semiaxis."""
        return math.sqrt(np.vdot(self.inverse, self.inverse))
