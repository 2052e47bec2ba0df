"""Orthonormal frames for the geometry layer.

Everything here works with plain float64 numpy arrays and value semantics:
inputs are never mutated, outputs are freshly allocated.
"""

from __future__ import annotations

import numpy as np

ORTHO_TOL = 1e-10


class LinalgError(ValueError):
    pass


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array; one einsum pass, about
    half the cost of np.linalg.norm(x, axis=1) on the certificates' arrays."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def orthonormal_completion(w: np.ndarray) -> np.ndarray:
    """Return an orthonormal d x d frame whose first column is `w`.

    Uses the Householder reflector that swaps e1 and w, so the result is
    deterministic and exact up to floating-point rounding.
    """
    w = np.asarray(w, dtype=float)
    nrm = np.linalg.norm(w)
    if nrm == 0.0:
        raise LinalgError("degenerate direction")
    if abs(nrm - 1.0) > 1e-8:
        raise LinalgError("direction must be a unit vector")
    w = w / nrm
    d = w.shape[0]
    e1 = np.zeros(d)
    e1[0] = 1.0
    v = w - e1
    if w[0] > 0.0:
        # w[0] - 1 cancels when w is close to e1; since |w| = 1 it equals
        # -|w[1:]|^2 / (1 + w[0]) (Parlett; Golub & Van Loan Alg. 5.1.1)
        v[0] = -float(w[1:] @ w[1:]) / (1.0 + w[0])
    vv = np.dot(v, v)
    if vv < 1e-30:
        return np.eye(d)
    frame = np.eye(d) - (2.0 / vv) * np.outer(v, v)
    # pin the first column to w exactly; the reflector already agrees to
    # rounding error
    frame[:, 0] = w
    return frame

