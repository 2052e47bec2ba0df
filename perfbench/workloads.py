"""Workload inputs, the five timed stages, and the checks on their outputs.

Every workload runs the same five stages on each of its sub-streams: the
online, seeded and coreset drivers, the CLI in verify mode on the
sub-stream's CSV file, and a certificate of the final online sandwich
against the points (LP hull membership and union-hull distance on
inner-boundary samples, and, where the plan includes it, the offline
enclosing-ellipsoid baseline).
The workloads differ in the stream, so that a different layer dominates
each one.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ellipstream import cli, coreset, oracle, streaming
from ellipstream.ellipsoid import log_volume, membership

MARGIN_TOL = 1e-7
# coreset guarantee: every dropped point lies in the outer body blown up
# by this factor about its center
CORESET_BLOWUP = 2.0 * math.e + 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n: int              # points per sub-stream
    substreams: int     # sub-streams generated per run
    kind: str           # gaussian | drift
    drift: float        # growth rate of the drifting norm, per point
    r0: float           # seed-ball radius of the seeded driver (center 0);
                        # its regular phase starts past r0 * d * log(d)
    verify_every: int   # step-oracle period of the CLI verify run
    n_lp: int           # inner-boundary samples checked by LP
    n_dist: int         # of those, also checked by union_hull_distance
    mvee_eps: Optional[float]


WORKLOADS: Dict[str, Workload] = {
    # stationary low-d stream: almost every point is a skip, so per-point
    # dispatch and bookkeeping dominate and SVD work is negligible
    "skip-lowd": Workload("skip-lowd", d=3, n=3000, substreams=20,
                          kind="gaussian", drift=0.0, r0=0.5, verify_every=1,
                          n_lp=32, n_dist=2, mvee_eps=None),
    # isotropic drift at d=32: nearly every point is a regular or
    # span-raising step, so the dense SVD update and body validation
    # dominate; the oracles at this d are too slow for more than a few LPs.
    # The span raise breaks on about one such stream in four at d=128, one
    # in a hundred at d=48 and one in three hundred at d=32 (see the
    # probe), so the timed streams stay at d=32
    "regular-highd": Workload("regular-highd", d=32, n=300, substreams=10,
                              kind="drift", drift=0.002,
                              r0=1.0 / (32 * math.log(32)), verify_every=25,
                              n_lp=8, n_dist=0, mvee_eps=None),
    # drifting d=6 stream read from CSV by the CLI with a step certificate
    # on every non-skip step, then certified: the oracle layer dominates
    "audit-file": Workload("audit-file", d=6, n=600, substreams=8,
                           kind="drift", drift=0.005, r0=0.1, verify_every=1,
                           n_lp=32, n_dist=4, mvee_eps=1e-3),
}

# orthonormality probe: streams on which the span raise is known to break
# for some seeds (gaussian random walks at d=64, isotropic gaussians at
# d=128); only the span-raising prefix matters
PROBE_N = 160
PROBE_STREAMS = 3


@dataclass
class Inputs:
    streams: List[np.ndarray]
    csv_paths: List[Path]
    boundary_dirs: List[np.ndarray]   # unit directions, one array per stream


def _stream(w: Workload, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((w.n, w.d))
    if w.kind == "gaussian":
        return g
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * np.exp(w.drift * np.arange(1, w.n + 1))[:, None]


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate every sub-stream from the seed and write each to CSV."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    streams, paths, dirs = [], [], []
    for j in range(w.substreams):
        pts = _stream(w, rng)
        u = rng.standard_normal((w.n_lp, w.d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        path = workdir / f"stream{j}.csv"
        np.savetxt(path, pts, fmt="%.17g", delimiter=",")
        streams.append(pts)
        paths.append(path)
        dirs.append(u)
    return Inputs(streams, paths, dirs)


def probe_streams(seed: int) -> List[Tuple[str, np.ndarray]]:
    rng = np.random.default_rng([seed, PROBE_N])
    walks = [("walk-d64", np.cumsum(rng.standard_normal((PROBE_N, 64)), axis=0))
             for _ in range(PROBE_STREAMS)]
    gauss = [("gauss-d128", rng.standard_normal((PROBE_N, 128)))
             for _ in range(PROBE_STREAMS)]
    return walks + gauss


# --- checks --------------------------------------------------------------


def _covers(body, pts: np.ndarray) -> bool:
    return max(float(membership(body, p)) for p in pts) <= MARGIN_TOL


def check_online(state, pts: np.ndarray) -> Optional[str]:
    if not _covers(state.ellipsoid, pts):
        return "online outer body misses a stream point"
    return None


def check_seeded(state, report, pts: np.ndarray, r0: float) -> Optional[str]:
    if not _covers(state.ellipsoid, pts):
        return "seeded outer body misses a stream point"
    d = pts.shape[1]
    r_meas = max(r0, float(np.linalg.norm(pts, axis=1).max()))
    if any(r.step_kind == "regular" for r in report.records):
        bound = 8.0 * d * (math.log(d) + math.log(r_meas / r0))
    else:
        bound = 2.0 * r_meas / r0
    if state.alpha_inv > bound + 1e-9:
        return f"seeded 1/alpha {state.alpha_inv:.6g} above bound {bound:.6g}"
    return None


def same_state(a, b) -> bool:
    ea, eb = a.ellipsoid, b.ellipsoid
    return (np.array_equal(ea.center, eb.center)
            and np.array_equal(ea.axes, eb.axes)
            and np.array_equal(ea.semiaxes, eb.semiaxes)
            and a.alpha == b.alpha)


def differing_states(a, b) -> List[str]:
    """Driver stages whose final states differ, bit for bit, between two
    rounds on the same sub-stream."""
    differ = []
    for stage in ("online", "seeded", "coreset"):
        ra, rb = a[stage], b[stage]
        if not (ra.ok and rb.ok):
            continue
        if stage == "coreset":
            ta, tb = ra.value[0], rb.value[0]
            same = ta.selected == tb.selected and same_state(ta.driver,
                                                             tb.driver)
        else:
            same = same_state(ra.value[0], rb.value[0])
        if not same:
            differ.append(stage)
    return differ


def check_coreset(trace, pts: np.ndarray) -> Optional[str]:
    state = trace.driver
    kept = pts[[t - 1 for t in trace.selected]]
    if not _covers(state.ellipsoid, kept):
        return "coreset body misses a kept point"
    if not _covers(state.ellipsoid.scaled(CORESET_BLOWUP), pts):
        return "coreset blown-up body misses a dropped point"
    replay, _ = coreset.run_coreset(kept)
    if not (replay.selected == tuple(range(1, len(kept) + 1))
            and same_state(replay.driver, state)):
        return "coreset replay of the kept points is not bit-exact"
    return None


def check_verify(code: int, outdir: Path) -> Optional[str]:
    if code != 0:
        return f"verify run exited {code}"
    report = json.loads((outdir / "report.json").read_text())
    failures = report["certificates"]["failures"]
    if failures:
        return f"verify run has {failures} certificate failures"
    return None


# --- stages --------------------------------------------------------------


def inner_boundary(state, dirs: np.ndarray) -> np.ndarray:
    inner = state.ellipsoid.scaled(state.alpha)
    k = inner.rank
    u = dirs[:, :k] / np.linalg.norm(dirs[:, :k], axis=1, keepdims=True)
    return inner.center[None, :] + (u * inner.semiaxes[None, :]) @ inner.axes.T


def certify(w: Workload, state, pts: np.ndarray,
            dirs: np.ndarray) -> Tuple[bool, List[float], Optional[float]]:
    """The certificate plan of the workload; returns the raw verdicts."""
    samples = inner_boundary(state, dirs)
    in_hull = all(oracle.hull_membership(pts, x) for x in samples)
    hull = oracle.HullSpec(point_list=tuple(pts))
    dists = [oracle.union_hull_distance(hull, x) for x in samples[:w.n_dist]]
    mvee_logvol = None
    if w.mvee_eps is not None:
        mvee_logvol = log_volume(oracle.mvee_khachiyan(pts, eps=w.mvee_eps))
    return in_hull, dists, mvee_logvol


def check_certify(w: Workload, state, verdicts) -> Optional[str]:
    in_hull, dists, mvee_logvol = verdicts
    if not in_hull:
        return "an inner-boundary sample is outside the hull (LP)"
    if dists and max(dists) > MARGIN_TOL:
        return f"inner-boundary sample at hull distance {max(dists):.3e}"
    if mvee_logvol is not None:
        # the outer body encloses the points, so it is no smaller than the
        # minimum-volume enclosing ellipsoid the baseline approximates
        slack = 0.5 * state.ellipsoid.dim * math.log1p(w.mvee_eps)
        if log_volume(state.ellipsoid) < mvee_logvol - slack:
            return "outer body smaller than the offline enclosing ellipsoid"
    return None


_REF_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
_REF_DIRS = np.random.default_rng(1).standard_normal((4096, 6))
# bound at import, before a tracer can wrap numpy.linalg.svd
_REF_SVD = np.linalg.svd


def reference_seconds() -> float:
    """Time one fixed calibration task: interpreter work, small SVDs and
    vectorized passes over a few thousand directions, about the mix of the
    stages. It uses no ellipstream code, so a change to the library cannot
    move it; it only follows how fast the host runs right now."""
    t0 = time.perf_counter()
    acc, a = 0.0, np.arange(4.0)
    for i in range(1500):
        b = a * 1.0001 + i
        acc += float(np.dot(b, b)) + (i * 7) % 13
    for i in range(60):
        acc += float(_REF_SVD(_REF_MATRIX + i, compute_uv=False)[0])
    for i in range(12):
        acc += float(np.linalg.norm(_REF_DIRS @ _REF_MATRIX[:6, :6] + i,
                                    axis=1).min())
    return time.perf_counter() - t0


@dataclass
class StageResult:
    seconds: float
    points: int
    value: object = None
    raised: Optional[str] = None   # the call raised: a failed operation
    wrong: Optional[str] = None    # the output failed its check
    ref_seconds: float = 0.0       # calibration time around the call

    @property
    def ok(self) -> bool:
        return self.raised is None and self.wrong is None

    @property
    def refs(self) -> float:
        """The call's duration in reference units."""
        return self.seconds / self.ref_seconds


def _stage(n: int, check, fn, *args) -> StageResult:
    """Time one call between two calibration runs, then check its output
    outside the timed region."""
    before = reference_seconds()
    t0 = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # a raise is a failed operation, not a crash
        return StageResult(0.0, n, raised=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    ref = 0.5 * (before + reference_seconds())
    return StageResult(seconds, n, value, wrong=check(value), ref_seconds=ref)


def run_round(w: Workload, inputs: Inputs, j: int,
              outdir: Path) -> Dict[str, StageResult]:
    """All five stages on sub-stream j, each timed and then checked."""
    pts = inputs.streams[j]
    n = pts.shape[0]
    res = {
        "online": _stage(n, lambda v: check_online(v[0], pts),
                         streaming.run_fully_online, pts),
        "seeded": _stage(n, lambda v: check_seeded(*v, pts, w.r0),
                         streaming.run_seeded, pts, np.zeros(w.d), w.r0),
        "coreset": _stage(n, lambda v: check_coreset(v[0], pts),
                          coreset.run_coreset, pts),
    }
    run_dir = outdir / f"verify{j}"
    config = cli.RunConfig(mode="verify", input_path=str(inputs.csv_paths[j]),
                           out=str(run_dir), verify_every=w.verify_every)
    res["verify"] = _stage(n, lambda code: check_verify(code, run_dir),
                           cli.run, config)
    if res["online"].ok:
        state = res["online"].value[0]
        res["certify"] = _stage(n, lambda v: check_certify(w, state, v),
                                certify, w, state, pts,
                                inputs.boundary_dirs[j])
    else:
        res["certify"] = StageResult(0.0, n,
                                     raised="no online sandwich to certify")
    return res


def warm_up(w: Workload, inputs: Inputs, outdir: Path) -> None:
    """One untimed pass over a short prefix: lazy imports, first-call costs."""
    m = min(w.n, 2 * w.d + 50)
    short = Inputs([inputs.streams[0][:m]], [outdir / "warmup.csv"],
                   [inputs.boundary_dirs[0][:1]])
    np.savetxt(short.csv_paths[0], short.streams[0], fmt="%.17g",
               delimiter=",")
    small = replace(w, n=m, n_dist=min(w.n_dist, 1),
                    mvee_eps=(0.1 if w.mvee_eps else None))
    run_round(small, short, 0, outdir)


def run_probe(seed: int) -> Tuple[int, List[str]]:
    """Feed the probe streams to the online and coreset drivers; untimed."""
    attempted, errors = 0, []
    for label, pts in probe_streams(seed):
        for name, fn in (("online", streaming.run_fully_online),
                         ("coreset", coreset.run_coreset)):
            attempted += 1
            try:
                fn(pts)
            except Exception as exc:
                errors.append(f"{label} {name}: {type(exc).__name__}: {exc}")
    return attempted, errors
