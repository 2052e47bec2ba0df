"""The benchmark harness reads the library from outside: the tracer wraps
library functions where their callers look them up, and the workloads read
the drivers' outputs. A refactor that drops one of those module attributes
or changes an output's shape must fail here, not when `perfbench/run.py`
runs."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_attribute_exists():
    missing = [(getattr(owner, "__name__", repr(owner)), attr)
               for owner, attr, _ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert not missing


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_stage_runs_on_a_shrunken_workload(name, tmp_path):
    # shrunk as warm_up shrinks it; a stage that raises or fails its check
    # means the harness reads an output shape the library no longer has
    w = workloads.WORKLOADS[name]
    small = replace(w, n=2 * w.d + 50, substreams=1, n_lp=1,
                    n_dist=min(w.n_dist, 1),
                    mvee_eps=(0.1 if w.mvee_eps else None))
    inputs = workloads.make_inputs(small, 0, tmp_path)
    res = workloads.run_round(small, inputs, 0, tmp_path)
    assert {stage: (r.raised, r.wrong) for stage, r in res.items() if not r.ok} == {}
