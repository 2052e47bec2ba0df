"""ellipstream benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload skip-lowd --seed 1 --seconds 30 --trace 0

With --trace 0 the run reports the end-to-end metrics: points per
reference unit of each driver and of the CLI verify run, the reference
units to certify the final sandwich (a reference unit is the host's
current time for a fixed calibration task, see
workloads.reference_seconds), final quality, set-up time and peak memory.
With --trace 1 it
alternates untraced and traced rounds on one sub-stream and reports
per-layer calls and times from spans recorded around the calls into each
module (see tracing.py), plus the tracing overhead.

The last line of standard output is the result object; the lines before
it give the provenance and each timing's quartiles over the rounds, in
reference units and in raw points per second or seconds.
Artifacts go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

STAGES = ("online", "seeded", "coreset", "verify", "certify")


def _import_library():
    """Import ellipstream from this checkout's src/, never from elsewhere."""
    if not (SRC / "ellipstream" / "__init__.py").is_file():
        sys.exit(f"error: no ellipstream sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ellipstream
    if Path(ellipstream.__file__).resolve().parent != SRC / "ellipstream":
        sys.exit(f"error: ellipstream imported from {ellipstream.__file__}")
    import scipy.optimize  # noqa: F401  (the oracles import it lazily)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="import and write the inputs to DIR, then exit "
                        "(used to time set-up in a fresh process)")
    return p.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import and make inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        scratch = OUT / f"setup-{os.getpid()}-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only", str(scratch)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(scratch, ignore_errors=True)
    return statistics.median(times)


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize_rounds(rounds):
    """Per stage and round: the metric in reference units, and as raw
    points per second (or seconds) for the printed spread."""
    series = {}
    for stage in STAGES:
        vals = [r[stage] for r in rounds if r[stage].ok]
        if stage == "certify":
            series["certify_ref"] = [v.refs for v in vals]
            series["certify.s"] = [v.seconds for v in vals]
        else:
            series[f"{stage}.pts_per_ref"] = [v.points / v.refs for v in vals]
            series[f"{stage}.pts_per_s"] = [v.points / v.seconds
                                             for v in vals]
    return series


def count_ops(rounds, errors):
    """(attempted, failed, wrong): every stage call is one operation; it
    fails when it raises or its output fails a check (wrong)."""
    attempted = failed = wrong = 0
    for i, r in enumerate(rounds):
        for stage in STAGES:
            attempted += 1
            res = r[stage]
            if not res.ok:
                failed += 1
                wrong += res.wrong is not None
                errors.append(f"round {i} {stage}: {res.raised or res.wrong}")
    return attempted, failed, wrong


def quality(first_pass):
    """Mean final quality over the sub-streams, one round each."""
    values = {"online.alpha_inv": [], "seeded.alpha_inv": [],
              "coreset.size": []}
    for r in first_pass:
        if r["online"].ok:
            values["online.alpha_inv"].append(r["online"].value[0].alpha_inv)
        if r["seeded"].ok:
            values["seeded.alpha_inv"].append(r["seeded"].value[0].alpha_inv)
        if r["coreset"].ok:
            values["coreset.size"].append(len(r["coreset"].value[0].selected))
    return {name: statistics.fmean(v) for name, v in values.items() if v}


def run_untraced(w, inputs, workdir, seconds):
    """Rounds over the sub-streams in turn, for `seconds` and at least one
    pass over all of them."""
    import workloads
    rounds = []
    t0 = time.perf_counter()
    while (len(rounds) < w.substreams
           or time.perf_counter() - t0 < seconds):
        j = len(rounds) % w.substreams
        rounds.append(workloads.run_round(w, inputs, j, workdir))
    return rounds


def end_to_end(args, w, inputs, workdir, setup_s):
    rounds = run_untraced(w, inputs, workdir, args.seconds)
    errors = []
    ops = count_ops(rounds, errors)
    metrics, spread = {}, {}
    for name, values in summarize_rounds(rounds).items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[name] = med
        spread[name] = {"q1": q1, "median": med, "q3": q3, "n": len(values),
                        "rounds": values}
    metrics.update(quality(rounds[:w.substreams]))
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return metrics, spread, ops, errors, len(rounds)


def traced(args, w, inputs, workdir):
    """Alternate untraced and traced rounds on sub-stream 0."""
    import tracing
    import workloads
    tracer = tracing.Tracer()
    plain, traced_rounds, aggregates = [], [], []
    spans_path = OUT / f"{args.workload}-spans.csv"
    errors = []
    t0 = time.perf_counter()
    while len(traced_rounds) < 1 or time.perf_counter() - t0 < args.seconds:
        plain.append(workloads.run_round(w, inputs, 0, workdir))
        tracer.reset()
        with tracer.installed():
            r = workloads.run_round(w, inputs, 0, workdir)
        agg = tracer.aggregate()
        agg["coreset.kept_per_tentative"] = _kept_per_tentative(r, tracer)
        agg.update(_step_counts(r))
        if not traced_rounds:
            tracer.write_spans(spans_path)
        traced_rounds.append(r)
        aggregates.append(agg)
    tracer.reset()

    for a, b in zip(plain, traced_rounds):
        for stage in workloads.differing_states(a, b):
            b[stage].wrong = "final state differs from the untraced run"
    rounds = plain + traced_rounds
    ops = count_ops(rounds, errors)

    metrics = {}
    for name in aggregates[0]:
        values = [agg[name] for agg in aggregates]
        metrics[name] = statistics.median(values)
    # each traced round directly follows its untraced twin, so the paired
    # difference cancels most of the host's slow drift
    metrics["trace.overhead_s"] = statistics.median(
        _stage_seconds(b) - _stage_seconds(a)
        for a, b in zip(plain, traced_rounds))

    probe_attempted, probe_errors = 0, []
    if w.name == "regular-highd":
        probe_attempted, probe_errors = workloads.run_probe(args.seed)
    metrics["probe.attempted"] = probe_attempted
    metrics["probe.failed"] = len(probe_errors)
    for e in probe_errors:
        print(f"probe raise (known defect): {e}")
    (OUT / f"{args.workload}-probe.json").write_text(
        json.dumps({"attempted": probe_attempted, "errors": probe_errors},
                   indent=1) + "\n")

    return metrics, ops, errors, len(rounds)


def _stage_seconds(r):
    return sum(r[stage].seconds for stage in STAGES)


def _kept_per_tentative(r, tracer):
    if not r["coreset"].ok or not tracer.coreset_tentative:
        return 0.0
    kept = sum(1 for reason in r["coreset"].value[0].reasons
               if reason == "volume_jump")
    return kept / tracer.coreset_tentative


def _step_counts(r):
    counts = {k: 0 for k in ("init", "skip", "regular", "irregular", "local")}
    for stage in ("online", "seeded"):
        if r[stage].ok:
            for rec in r[stage].value[1].records:
                counts[rec.step_kind] += 1
    return {f"streaming.steps.{k}": v for k, v in counts.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        workloads.make_inputs(w, args.seed, Path(args.setup_only))
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_s = measure_setup(args) if not args.trace else None
        inputs = workloads.make_inputs(w, args.seed, workdir)
        workloads.warm_up(w, inputs, workdir)
        if args.trace:
            metrics, ops, errors, n_rounds = traced(args, w, inputs, workdir)
            spread = {}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics, spread, ops, errors, n_rounds = end_to_end(
                args, w, inputs, workdir, setup_s)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, wrong = ops
    missing = [name for name in units if name not in metrics]
    errors += [f"metric {name} not measured" for name in missing]
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"workload {w.name}: {n_rounds} rounds of {w.n} points at d={w.d}")
    for name, s in spread.items():
        print(f"  {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} over {s['n']} rounds")
    for e in errors:
        print(f"  error: {e}")
    result = {
        "correct": not (wrong or missing),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"provenance": prov, "spread": spread,
                              "errors": errors, "result": result},
                             indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
