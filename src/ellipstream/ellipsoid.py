"""Ellipsoid values: span split, membership, volume, containment.

An ellipsoid is stored as a center plus orthonormal axis directions with
strictly positive semiaxis lengths; the rank may be below the ambient
dimension, in which case the body lives in the affine span of its axes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

# Ellipsoid's bound on |axes^T axes - I|_F
ORTHO_TOL = 1e-10

# a semiaxis below this fraction of the largest one means the body has
# effectively collapsed a dimension; such bodies raise NumericalLimitError
RANK_COLLAPSE_RATIO = 1e-10

# containment verdicts operate on the normalized (unit-ball) scale
CONTAINMENT_TOL = 1e-8

# a vector is off a body's span once its orthogonal residual exceeds this
# fraction of the body's span scale (basis_split); far above SVD noise
SPAN_TOL = 1e-8
# ... and this fraction of the coordinates' size, a few hundred ulps
SPAN_RES = 256 * np.finfo(float).eps
_EPS = float(np.finfo(float).eps)
# the smallest normal float64, 2^-1022: a sum of squares below it is subnormal
_TINY = float(np.finfo(float).tiny)
_ROOT_TINY = math.sqrt(_TINY)

# eigenvalues of m.T m closer to the top than this fraction of it are one
# repeated value to _max_norm_over_ellipsoid: a few ulps of eigh's rounding
_EIG_RES = 64 * np.finfo(float).eps
# cap on its Newton steps; 20k random cases (semiaxes 1e-6..1e6, centers
# 1e-8..1e8) took at most 11
_NEWTON_MAX_ITER = 100

_FALSIFIER_SEED = 20260823
_N_FALSIFIERS = 2048


class EllipsoidError(ValueError):
    pass


class NumericalLimitError(EllipsoidError):
    """float64 can no longer hold the body: its semiaxis ratio s_max/s_min
    passed 1/RANK_COLLAPSE_RATIO; a ratio that is not finite says float64's
    range ran out. `t` is the stream index of the step that built it, once
    a driver has attached it."""

    def __init__(self, ratio: float, t: Optional[int] = None):
        super().__init__(ratio, t)
        self.ratio = ratio
        self.t = t

    def __str__(self) -> str:
        where = "" if self.t is None else f" at step t={self.t}"
        if not math.isfinite(self.ratio):
            return f"numerical limit{where}: float64's range runs out"
        return (f"numerical limit{where}: semiaxis ratio s_max/s_min = {self.ratio:.3e} "
                f"exceeds 1/RANK_COLLAPSE_RATIO = {1.0 / RANK_COLLAPSE_RATIO:.0e}")

    def at_step(self, t: int) -> "NumericalLimitError":
        return NumericalLimitError(self.ratio, t)


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """{center + sum_i t_i * semiaxes[i] * axes[:, i] : sum t_i^2 <= 1}.

    `axes` is d x k with orthonormal columns, `semiaxes` length-k positive,
    stored in descending order. k == 0 encodes a single point.
    """

    center: np.ndarray
    axes: np.ndarray
    semiaxes: np.ndarray

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        axes = np.asarray(self.axes, dtype=float)
        semiaxes = np.atleast_1d(np.asarray(self.semiaxes, dtype=float))
        if axes.ndim != 2 or axes.shape[0] != center.shape[0]:
            raise EllipsoidError("axes must be d x k")
        if semiaxes.shape[0] != axes.shape[1]:
            raise EllipsoidError("one semiaxis length per axis")
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(axes))
                and np.all(np.isfinite(semiaxes))):
            raise EllipsoidError("non-finite entries")
        if semiaxes.size:
            if np.any(semiaxes <= 0):
                raise EllipsoidError("semiaxes must be strictly positive")
            if semiaxes.min() < RANK_COLLAPSE_RATIO * semiaxes.max():
                raise NumericalLimitError(float(semiaxes.max() / semiaxes.min()))
            if np.any(semiaxes[1:] > semiaxes[:-1]):
                # sort descending, ties in place; an SVD's are sorted already
                order = np.argsort(-semiaxes, kind="stable")
                semiaxes = semiaxes[order]
                axes = axes[:, order]
            k = axes.shape[1]
            if np.linalg.norm(axes.T @ axes - np.eye(k)) > ORTHO_TOL:
                raise EllipsoidError("axes not orthonormal")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "semiaxes", semiaxes)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def rank(self) -> int:
        return self.axes.shape[1]

    @staticmethod
    def ball(center: np.ndarray, radius: float) -> "Ellipsoid":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        d = center.shape[0]
        return Ellipsoid(center, np.eye(d), np.full(d, float(radius)))

    @staticmethod
    def point(center: np.ndarray) -> "Ellipsoid":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        d = center.shape[0]
        return Ellipsoid(center, np.zeros((d, 0)), np.zeros(0))

    def scaled(self, factor: float) -> "Ellipsoid":
        """The ellipsoid scaled about its own center."""
        return Ellipsoid(self.center, self.axes, self.semiaxes * factor)


def _norm(v: np.ndarray) -> float:
    """The 2-norm of an array's entries, sqrt(sum v^2), rescaled by max|v|
    where the sum overflows, or falls below _TINY (a subnormal with few
    significant bits, or 0) while v is not 0; a max|v| of inf (or NaN) is
    returned as it is."""
    sq = np.vdot(v, v)
    if _TINY <= sq < math.inf or not np.count_nonzero(v):
        return math.sqrt(sq)
    m = np.abs(v).max()
    return float(m * math.sqrt(np.vdot(v / m, v / m))) if m < math.inf else float(m)


def span_scale(norm: float, k: int) -> float:
    """basis_split's body scale norm / k^(1/4), 0 at rank 0, for a rank-k body
    whose semiaxes have 2-norm `norm`: the geometric middle of [norm /
    sqrt(k), norm], which holds s_max. The one copy of the formula."""
    return norm / max(k, 1) ** 0.25


class SpanSplit(NamedTuple):
    delta: np.ndarray     # x - center
    coeffs: np.ndarray    # span coordinates of delta
    residual: np.ndarray  # part of delta orthogonal to the span; exactly 0 at full rank
    rnorm: float
    off: bool             # the residual counts as off-span


def span_split(e: Ellipsoid, x: np.ndarray) -> SpanSplit:
    """basis_split against the body's axes and its span scale."""
    return basis_split(e.center, e.axes, span_scale(_norm(e.semiaxes), e.rank), x)


def check_shape(x: np.ndarray, center: np.ndarray) -> None:
    """EllipsoidError unless the point x has the center's shape: numpy would broadcast it."""
    if x.shape != center.shape:
        raise EllipsoidError(f"point of shape {x.shape} against a center of shape {center.shape}")


def basis_split(center: np.ndarray, basis: np.ndarray, scale: float,
                x: np.ndarray) -> SpanSplit:
    """Split x - center into coordinates on the orthonormal `basis` and an
    orthogonal residual; the one off-span test every layer shares.

    x is off-span once the residual exceeds both SPAN_TOL * max(|delta|,
    scale), with `scale` the body's span_scale, and SPAN_RES * (|delta| +
    |center|), the rounding of the coordinates; at rank 0 only the second
    applies. Each norm is _norm's, safe from overflow and underflow of the
    squares. An off-span residual gets a second Gram-Schmidt pass whose
    correction joins coeffs: [coeffs, rnorm] spells delta in [basis,
    residual/rnorm]. At k = d the residual is exactly 0: |B B^T - I| = |B^T B - I|
    <= ORTHO_TOL keeps the computed one far below SPAN_TOL |delta| (see scan_rows).
    """
    x = np.asarray(x, dtype=float)
    check_shape(x, center)
    delta = x - center
    coeffs = basis.T @ delta
    if basis.shape[1] == len(delta):
        return SpanSplit(delta, coeffs, np.zeros(len(delta)), 0.0, False)
    residual = delta - basis @ coeffs
    rnorm = _norm(residual)
    # |delta| and |center| are only needed once the body-scale test passes
    off = (rnorm > SPAN_TOL * scale and rnorm > SPAN_TOL * (dnorm := _norm(delta))
           and rnorm > SPAN_RES * (dnorm + _norm(center)))
    if off:
        extra = basis.T @ residual
        residual = residual - basis @ extra
        coeffs = coeffs + extra
        rnorm = _norm(residual)
    return SpanSplit(delta, coeffs, residual, rnorm, off)


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array; one einsum pass, about
    half the cost of np.linalg.norm(x, axis=1) on the certificates' arrays."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def safe_row_norms(x: np.ndarray) -> np.ndarray:
    """row_norms of a finite 2-D array, with each row whose sum of squares
    overflows, or falls below _TINY while the row is not 0, rescaled as by
    _norm. sqrt is monotone and correctly rounded, and sqrt(_TINY) = 2^-511
    exactly, so a norm reads below it just when its sum is below _TINY."""
    norms = row_norms(x)
    if len(norms) and not (norms.min() >= _ROOT_TINY and norms.max() < math.inf):
        for i in np.flatnonzero((norms == math.inf) | ((norms < _ROOT_TINY) & x.any(axis=1))):
            norms[i] = _norm(x[i])
    return norms


def scan_rows(center: np.ndarray, basis: np.ndarray, scale_map: np.ndarray,
              scale: float, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Batched span split of the rows of xs against a rank-k body: (rho,
    inside). rho is |scale_map (x - center)|, the row's norm in the body's
    unit-ball coordinates (scale_map is k x d); `inside` marks the rows
    whose residual off `basis` is at most SPAN_TOL/2 * max(|delta|, scale),
    half the off-span threshold for basis_split at the same scale. Those
    rows are in the span for basis_split too, since one gemm and a gemv
    move the residual by a few ulps of |delta|; their rho agrees with the
    scalar one to scan_tolerance * max(1, rho).
    """
    if xs.ndim != 2 or xs.shape[1:] != center.shape:
        raise EllipsoidError(f"rows of shape {xs.shape} against a center of shape {center.shape}")
    delta = xs - center
    # in unit-ball coordinates, a rho whose square overflows reads inf (no
    # skip), and one that underflows reads 0 only below 1e-154 (a skip)
    rho = row_norms(delta @ scale_map.T)
    if basis.shape[1] == basis.shape[0]:
        # an orthonormal square basis leaves every residual below a few
        # ulps of |delta|
        return rho, np.ones(len(rho), dtype=bool)
    rnorm = safe_row_norms(delta - (delta @ basis) @ basis.T)
    inside = rnorm <= 0.5 * SPAN_TOL * np.maximum(safe_row_norms(delta), scale)
    return rho, inside


def scan_tolerance(d: int, k: int, cond: float) -> float:
    """Relative bound on the gap between scan_rows' rho and the scalar one,
    for a rank-k body in R^d whose s_max/s_min is at most `cond`.

    The scalar rho is |M (B^T delta)| for the orthonormal basis B and the
    map M to unit-ball coordinates, the scan's uses the rounded M B^T. Each
    order moves it by up to (d + k) eps |M| |B^T| |delta|, at most (d + k)
    eps sqrt(k) |M|_F s_max rho on in-span rows, and s_max |M|_F <= sqrt(k)
    cond: 2 (d + k) k eps cond rho in all, padded by a factor of four.
    """
    return 8.0 * (d + k) * k * _EPS * cond


def membership(e: Ellipsoid, x: np.ndarray) -> float:
    """Signed margin of x against e; <= 0 means inside, +inf off its span.
    A rank-0 body holds its center alone, so a skipped near-duplicate shows."""
    split = span_split(e, x)
    if e.rank == 0:
        return 0.0 if split.rnorm == 0.0 else math.inf
    if split.off:
        return math.inf
    return float(np.linalg.norm(split.coeffs / e.semiaxes) - 1.0)


def max_membership(e: Ellipsoid, xs: np.ndarray) -> float:
    """max of membership(e, x) over the rows of xs, equal to the scalar max.

    One scan_rows pass scores every row. membership then re-scores the rows
    it cannot rule out: those not certainly in the span, and those within
    1e-12 plus twice scan_tolerance of the top in-span score (at rank 0,
    every row).
    """
    xs = np.asarray(xs, dtype=float)
    s = e.semiaxes
    rho, inside = scan_rows(e.center, e.axes, (e.axes / s).T, span_scale(_norm(s), e.rank), xs)
    rescore = ~inside
    if inside.any():
        top = float(rho[inside].max())
        tol = scan_tolerance(e.dim, e.rank, s[0] / s[-1] if e.rank else 0.0)
        window = (1e-12 + 2.0 * tol) * max(1.0, top)
        rescore |= rho >= top - window
    return max(membership(e, x) for x in xs[rescore])


def log_volume(e: Ellipsoid) -> float:
    """log of vol_k(e) / vol_k(unit k-ball); 0 for a rank-0 body."""
    return float(np.sum(np.log(e.semiaxes)))


def _max_norm_over_ellipsoid(c: np.ndarray, m: np.ndarray) -> float:
    """max of ||c + m @ s|| over ||s|| <= 1, by safeguarded Newton on the
    secular equation with an explicit hard case (More & Sorensen 1983).

    The maximizer sits on the unit sphere (convex maximization), where
    (mu*I - m.T m) s = m.T c with mu >= lam_top. In the eigenbasis of m.T m,
    s(nu) = g / (nu + gap) with nu = mu - lam_top and gap = lam_top - lam,
    and h(nu) = 1/||s(nu)|| is concave and increasing, so Newton on
    h(nu) = 1 started left of the root climbs to it monotonically. The
    eigenvalues carry rounding of about _EIG_RES * lam_top, so those within
    that of the top form one top group (gap 0). When the root lies within
    that resolution (the non-top part of s(0) fits in the unit ball and the
    top-group forcing cannot push nu past it), the hard case spends the
    leftover norm on the top group along its forcing. The reach is the norm
    at the feasible s so found.
    """
    if m.size == 0:
        return float(np.linalg.norm(c))
    lam, q = np.linalg.eigh(m.T @ m)
    g = (m.T @ c) @ q
    gap = lam[-1] - lam
    res = _EIG_RES * lam[-1]
    # lam ascends, so the top group is [j:]
    j = int(np.count_nonzero(gap > res))
    gap[j:] = 0.0
    s = np.zeros_like(g)
    s[:j] = g[:j] / gap[:j]
    rest = 1.0 - s @ s
    g_top = math.sqrt(g[j:] @ g[j:])
    if rest >= 0.0 and g_top <= res * math.sqrt(rest):
        # hard case: the root is lam_top itself, to the eigenvalues' rounding
        if g_top > 0.0:
            s[j:] = g[j:] / g_top * math.sqrt(rest)
        else:
            s[-1] = math.sqrt(rest)
    else:
        # a zero top-group forcing drops out, so nu may start at 0
        n = len(g) if g_top > 0.0 else j
        gl, dl = g[:n], gap[:n]
        # start left of the root, where phi(nu) = ||s(nu)||^2 >= 1: at
        # max(|g| - gap) one term alone reaches 1, and phi(0) = 1 - rest
        nu = max(0.0, float(np.max(np.abs(gl) - dl)))
        for _ in range(_NEWTON_MAX_ITER):
            w = gl / (nu + dl)
            phi = w @ w
            if phi <= 1.0:
                break
            # Newton on h = phi**-0.5; h' = phi**-1.5 * sum(w**2 / (nu + dl))
            step = phi * (math.sqrt(phi) - 1.0) / ((w * w) @ (1.0 / (nu + dl)))
            if not nu + step > nu:
                break
            nu += step
        s[:n] = gl / (nu + dl)
        s /= math.sqrt(s @ s)
    v = c + m @ (q @ s)
    return math.sqrt(v @ v)


@functools.lru_cache(maxsize=8)
def _unit_directions(n: int, k: int, seed: int = _FALSIFIER_SEED) -> np.ndarray:
    """n seeded unit directions in R^k, memoized: the certificates ask for
    the same few arrays on every call. The result is read-only."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, k))
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    u /= norms
    u.flags.writeable = False
    return u


def containment_margin(outer: Ellipsoid, inner: Ellipsoid) -> float:
    """max reach of `inner` in `outer`'s unit-ball coordinates, minus 1.

    Nonpositive means contained. Combines the exact search (Newton on the
    secular equation, with the hard case of a repeated top semiaxis that
    the center barely pushes along; see _max_norm_over_ellipsoid) with
    sampled support directions acting as a falsifier.
    """
    if outer.dim != inner.dim:
        raise EllipsoidError("dimension mismatch")
    # the inner center and extent must lie in the outer span, at its scale
    split = span_split(outer, inner.center)
    ax_residual = inner.axes - outer.axes @ (outer.axes.T @ inner.axes)
    off_reach = (np.linalg.norm(ax_residual, axis=0) * inner.semiaxes).max(initial=0.0)
    if split.off or off_reach > CONTAINMENT_TOL * outer.semiaxes.max(initial=0.0):
        return math.inf
    inv_s = 1.0 / outer.semiaxes
    c_prime = inv_s * split.coeffs
    m = (inv_s[:, None]) * (outer.axes.T @ inner.axes) * inner.semiaxes[None, :]
    reach = _max_norm_over_ellipsoid(c_prime, m)
    if m.size:
        dirs = _unit_directions(_N_FALSIFIERS, outer.rank)
        sampled = dirs @ c_prime + row_norms(dirs @ m)
        reach = max(reach, float(sampled.max()))
    return reach - 1.0
