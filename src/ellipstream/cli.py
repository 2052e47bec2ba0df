"""Command-line front end.

Modes: seeded | online | coreset | adversary | verify | inequalities.
Every run writes report.json and trace.csv to the output directory; all
numeric output uses 17 significant digits so reports round-trip exactly
and rerunning a fixed (config, seed) pair reproduces the bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import adversary, coreset, oracle, streaming
from .ellipsoid import max_membership
from .update_rule import Step
# looked up here by perfbench/tracing.py
from .ellipsoid import log_volume, membership  # noqa: F401

GENERATORS = ("ball", "gaussian", "lattice", "simplex-shell")
MODES = ("seeded", "online", "coreset", "adversary", "verify", "inequalities")


class InputError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str
    input_path: Optional[str] = None
    gen: Optional[str] = None
    d: int = 2
    n: int = 100
    lattice_n: int = 10
    r_big: float = 8.0
    c0: Union[str, np.ndarray, None] = None  # --c0's text is parsed here
    r0: Optional[float] = None
    seed: int = 0
    out: str = "."
    verify_every: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.c0, str):
            try:
                self.c0 = np.asarray([float(f) for f in self.c0.split(",")], dtype=float)
            except ValueError:
                raise InputError("--c0 must be comma-separated numbers") from None
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.mode in ("adversary", "inequalities"):
            for flag, value in (("--input", self.input_path), ("--gen", self.gen),
                                ("--verify-every", self.verify_every)):
                if value is not None:
                    raise InputError(f"{self.mode} mode reads no stream; it takes no {flag}")
        elif (self.input_path is None) == (self.gen is None):
            raise InputError("exactly one of --input and --gen is required")
        if self.d < 1 or self.n < 1 or self.lattice_n < 1:
            raise InputError("d, n, and N must be positive")
        if self.verify_every is not None and self.verify_every < 0:
            raise InputError("--verify-every must be at least 0")
        if not math.isfinite(self.r_big):
            raise InputError("--R must be finite")
        if self.c0 is not None or self.r0 is not None:
            flag = "--c0" if self.c0 is not None else "--r0"
            if self.mode not in ("seeded", "verify"):
                raise InputError(
                    f"{self.mode} mode takes no {flag}; use --mode seeded")
            if self.c0 is None or self.r0 is None:
                other = "--r0" if self.c0 is not None else "--c0"
                raise InputError(f"{flag} needs {other}")
        elif self.mode == "seeded":
            raise InputError("seeded mode needs --c0 and --r0")

    @property
    def effective_verify_every(self) -> int:
        if self.verify_every is not None:
            return self.verify_every
        return 1 if self.d <= 6 else 0


def _parse_lines(text: str) -> np.ndarray:
    """The line loop behind parse_points; it raises every line-numbered error."""
    rows: List[List[float]] = []
    linenos: List[int] = []
    dim: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            row = [float(f) for f in fields]
        except ValueError as exc:
            raise InputError(f"non-numeric field at line {lineno}") from exc
        if dim is None:
            dim = len(row)
        elif len(row) != dim:
            raise InputError(
                f"ragged row at line {lineno}: expected {dim} fields, got {len(row)}")
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise InputError("no points in input file")
    pts = np.asarray(rows, dtype=float)
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise InputError(f"non-finite field at line {linenos[finite.argmin()]}")
    return pts


def parse_points(path: str) -> np.ndarray:
    """Read one point per CSV line; '#' comments and blank lines skipped.
    np.loadtxt parses in C the lines _parse_lines reads (over the file it
    would not end a line at a form feed, as splitlines() does). What it
    refuses, finds empty or reads as non-finite goes through _parse_lines."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(str(exc)) from exc
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data"
            pts = np.loadtxt(text.splitlines(), delimiter=",", comments="#", ndmin=2)
    except ValueError:
        return _parse_lines(text)
    return pts if pts.size and np.isfinite(pts).all() else _parse_lines(text)


def generate(spec: str, d: int, n: int, seed: int, lattice_n: int = 10,
             r_big: float = 8.0) -> np.ndarray:
    """Deterministic point streams for a fixed seed."""
    rng = np.random.default_rng(seed)
    if spec == "ball":
        g = rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = rng.random(n) ** (1.0 / d)
        return g * radii[:, None]
    if spec == "gaussian":
        return rng.standard_normal((n, d))
    if spec == "lattice":
        return rng.integers(-lattice_n, lattice_n + 1, size=(n, d)).astype(float)
    if spec == "simplex-shell":
        trace = adversary.run_adversary(adversary.library_rule, d, r_big)
        return np.asarray(trace.points[:n])
    raise InputError(f"unknown generator {spec!r}")


def _load_stream(config: RunConfig) -> np.ndarray:
    if config.input_path is not None:
        pts = parse_points(config.input_path)
        config.d = pts.shape[1]
        return pts
    return generate(config.gen, config.d, config.n, config.seed,
                    config.lattice_n, config.r_big)


# --- deterministic JSON with fixed-width floats -----------------------------


def _fmt(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


class _Verbatim(str):
    """JSON text that to_json emits as it is."""


def to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, _Verbatim):
        return obj
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {to_json(obj[k], indent + 1)}' for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


# (t, count, kind, alpha_inv, log_vol, gamma): `count` steps from t on
# that agree apart from t
StepRun = Tuple[int, int, str, float, float, float]


def _step_texts(runs: List[StepRun]) -> Tuple[str, str]:
    """The "steps" array of report.json, as to_json renders it at the top
    level of the payload, and trace.csv. Each run's fields are formatted
    once; its rows differ only in t."""
    rows, lines = [], ["t,kind,alpha_inv,log_vol,gamma"]
    for t0, count, kind, alpha_inv, log_vol, gamma in runs:
        a, lv, g = _fmt(alpha_inv), _fmt(log_vol), _fmt(gamma)
        head = (f'    {{\n      "alpha_inv": {a},\n      "gamma": {g},\n'
                f'      "kind": {to_json(kind)},\n      "log_vol": {lv},\n'
                f'      "t": ')
        tail = f",{kind},{a},{lv},{g}"
        for t in range(t0, t0 + count):
            rows.append(f"{head}{t}\n    }}")
            lines.append(f"{t}{tail}")
    steps = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return steps, "\n".join(lines) + "\n"


def _write_outputs(config: RunConfig, payload: Dict, runs: List[StepRun]) -> None:
    steps, csv = _step_texts(runs)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    # the steps text is most of the report: write it, not to_json's copies of it
    head, tail = to_json(dict(payload, steps=_Verbatim("\0"))).split("\0")
    with (out / "report.json").open("w") as f:
        f.writelines((head, steps, tail, "\n"))
    (out / "trace.csv").write_text(csv)


def _make_verifier(config: RunConfig):
    """A step observer that runs the monotone-step oracle on every k-th
    step that carries a split, and its flush. The observer buffers the
    steps and certifies them as a block once CHUNK_ROWS steps, or as many
    entries of the k x k inverse factors the certificate stacks as a
    CHUNK_ROWS x CHUNK_ROWS block holds, are pending; flush certifies the
    rest.
    Resolution-limited steps are named on stderr in stream order."""
    every = config.effective_verify_every
    summary = {"checked": 0, "failures": 0, "resolution_limited": 0,
               "worst_margin": math.inf}
    pending: List[Tuple[int, Step]] = []
    held = 0  # entries of the pending steps' inverse factors

    def flush():
        nonlocal held
        certs = oracle.check_monotone_steps([s for _, s in pending])
        for (t, s), cert in zip(pending, certs):
            summary["checked"] += 1
            # a NaN margin stays, as Python's min keeps a NaN in first place only
            w = cert.worst_margin
            summary["worst_margin"] = w if w != w else min(summary["worst_margin"], w)
            verdict = cert.verdict
            if verdict == "fail":
                summary["failures"] += 1
            elif verdict == "resolution_limited":
                summary["resolution_limited"] += 1
                print(f"step t={t} ({s.kind}): certificate resolution-limited, worst "
                      f"margin {cert.worst_margin:.3e} is within float64's rounding "
                      f"of the bodies", file=sys.stderr)
        pending.clear()
        held = 0

    def observer(t, step):
        nonlocal held
        if every <= 0 or t % every or step.split is None:
            return
        pending.append((t, step))
        held += step.state.inverse.size
        if len(pending) == streaming.CHUNK_ROWS or held >= streaming.CHUNK_ROWS ** 2:
            flush()

    return observer, summary, flush


def run(config: RunConfig) -> int:
    """Execute one mode and write report.json / trace.csv. Returns the
    process exit code: 0 ok, 1 input error, 2 invariant violation."""
    payload: Dict = {"mode": config.mode, "d": config.d, "n": 0,
                     "final_alpha_inv": 1.0, "steps": [],
                     "certificates": {}, "constants": {}}

    if config.mode == "inequalities":
        reports = oracle.inequality_suite()
        reduced = adversary.reduced_case_grid()
        worst = min(r.worst_slack for r in reports)
        payload["certificates"] = {
            r.claim_id: {"worst_slack": r.worst_slack} for r in reports}
        payload["certificates"]["reduced_case"] = {
            "worst_slack": reduced.min_slack}
        payload["constants"] = {"lb_constant_observed": reduced.c_observed,
                                "grid_points": reduced.n_points}
        _write_outputs(config, payload, [])
        ok = worst >= -1e-12 and reduced.min_slack >= -1e-12
        return 0 if ok else 2

    if config.mode == "adversary":
        trace = adversary.run_adversary(adversary.library_rule,
                                        config.d, config.r_big)
        runs = [(t, 1, k, a, p, 0.0) for t, (k, a, p) in enumerate(
            zip(trace.step_kinds, trace.a_values, trace.p_values), start=1)]
        payload.update(n=len(runs), final_alpha_inv=trace.a_values[-1])
        payload["constants"] = {
            "phase2_steps": trace.phase2_steps,
            "final_log_vol": trace.p_values[-1],
            "volume_target": config.d * math.log(config.r_big / 2.0),
        }
        payload["certificates"] = {"stop_reason": trace.stop_reason}
        _write_outputs(config, payload, runs)
        return 0

    points = _load_stream(config)
    payload["d"] = config.d
    payload["n"] = int(points.shape[0])
    observer, summary, flush = _make_verifier(config)

    # the steps still pending are certified, and named, also when the driver raises
    try:
        if config.c0 is not None:
            if config.c0.shape[0] != points.shape[1]:
                raise InputError("--c0 dimension does not match the points")
            state, report = streaming.run_seeded(points, config.c0, config.r0,
                                                 on_step=observer)
        elif config.mode == "coreset":
            trace, report = coreset.run_coreset(points, on_step=observer)
            state = trace.driver
            out = Path(config.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "selected.txt").write_text(
                "".join(f"{i}\n" for i in trace.selected))
            payload["constants"]["coreset_size"] = len(trace.selected)
        else:
            state, report = streaming.run_fully_online(points, on_step=observer)
    finally:
        flush()

    payload["final_alpha_inv"] = report.final_alpha_inv
    worst = summary["worst_margin"] if summary["checked"] else 0.0
    payload["certificates"] = dict(summary, worst_margin=worst)
    if config.gen == "lattice" and config.d * config.lattice_n > 1:  # d log(d N) is 0 at d N = 1
        denom = config.d * math.log(config.d * config.lattice_n)
        payload["constants"]["c_empirical"] = report.final_alpha_inv / denom
    final_margin = max_membership(state.ellipsoid, points)
    payload["constants"]["worst_final_margin"] = final_margin
    runs = [(r.t, n, r.step_kind, 1.0 / r.alpha, r.log_volume, r.gamma)
            for r, n in report.runs]
    _write_outputs(config, payload, runs)

    if config.mode == "verify":
        # a step violation, or a final outer body that misses a point
        return 2 if summary["failures"] or final_margin > oracle.MONOTONE_TOL else 0
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The options of RunConfig; an option not given stays out of the
    namespace, so RunConfig's field defaults are the only defaults."""
    p = argparse.ArgumentParser(
        prog="ellipstream", argument_default=argparse.SUPPRESS,
        description="Streaming ellipsoidal rounding of a point stream.")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--input", dest="input_path", metavar="INPUT",
                   help="CSV file of points, one per line")
    p.add_argument("--gen", choices=GENERATORS,
                   help="synthetic stream generator")
    p.add_argument("--d", type=int, help="dimension")
    p.add_argument("--n", type=int, help="stream length")
    p.add_argument("--N", dest="lattice_n", type=int,
                   help="lattice half-width (integer coordinates in [-N, N])")
    p.add_argument("--R", dest="r_big", type=float,
                   help="outer radius for the adversary / shell generator "
                        "(finite, >= 1)")
    p.add_argument("--c0", help="seed-ball center, comma separated")
    p.add_argument("--r0", type=float, help="seed-ball radius")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--verify-every", type=int,
                   help="run the step oracle every k >= 0 steps (0 = off; "
                        "default 1 for d <= 6, 0 otherwise)")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(RunConfig(**vars(args)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
