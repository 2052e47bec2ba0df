"""The benchmark tracer wraps library functions where their callers look
them up. A refactor that drops one of those module attributes must fail
here, not when `perfbench/run.py --trace 1` installs the tracer."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_every_traced_attribute_exists():
    missing = [(getattr(owner, "__name__", repr(owner)), attr)
               for owner, attr, _ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert not missing
