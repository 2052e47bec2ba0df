"""Spans around the calls into each ellipstream layer, recorded from outside.

The tracer replaces module attributes with timing wrappers while it is
installed. Each wrapper sits where its caller looks the function up
(`streaming.full_update_detailed`, `numpy.linalg.svd`, ...), so the
library runs unchanged and every call it makes through that name becomes
a span. Spans are kept in memory as parallel lists (name, parent, start,
end) and aggregated, or written out, after the round ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ellipstream import cli, coreset, oracle, streaming, update_rule
from ellipstream.ellipsoid import Ellipsoid

# (owner, attribute, span name). A function imported into several modules
# is wrapped in each, under one span name, because each caller resolves it
# through its own module globals.
TARGETS: Tuple[Tuple[object, str, str], ...] = (
    (streaming, "run_fully_online", "streaming.run_fully_online"),
    (streaming, "run_seeded", "streaming.run_seeded"),
    (coreset, "run_coreset", "coreset.run_coreset"),
    (cli, "run", "cli.run"),
    (streaming, "full_update_detailed", "update_rule.full_update_detailed"),
    (coreset, "full_update_detailed", "update_rule.full_update_detailed"),
    (streaming, "is_off_span", "update_rule.is_off_span"),
    (coreset, "is_off_span", "update_rule.is_off_span"),
    (streaming, "irregular_update", "update_rule.irregular_update"),
    (coreset, "irregular_update", "update_rule.irregular_update"),
    (update_rule, "solve_gamma", "update_rule.solve_gamma"),
    (np.linalg, "svd", "linalg.svd"),
    (Ellipsoid, "__post_init__", "ellipsoid.Ellipsoid"),
    (streaming, "log_volume", "ellipsoid.log_volume"),
    (coreset, "log_volume", "ellipsoid.log_volume"),
    (oracle, "log_volume", "ellipsoid.log_volume"),
    (cli, "log_volume", "ellipsoid.log_volume"),
    (cli, "membership", "ellipsoid.membership"),
    (oracle, "membership", "ellipsoid.membership"),
    (oracle, "containment_margin", "ellipsoid.containment_margin"),
    (oracle, "check_monotone_step", "oracle.check_monotone_step"),
    (oracle, "hull_membership", "oracle.hull_membership"),
    (oracle, "union_hull_distance", "oracle.union_hull_distance"),
    (oracle, "mvee_khachiyan", "oracle.mvee_khachiyan"),
)

LAYERS = ("update_rule", "linalg", "ellipsoid", "streaming", "coreset",
          "oracle", "cli")

# functions whose calls and inclusive time are reported per round
TIMED = (
    "update_rule.full_update_detailed", "update_rule.is_off_span",
    "update_rule.solve_gamma", "update_rule.irregular_update", "linalg.svd",
    "ellipsoid.Ellipsoid", "ellipsoid.log_volume", "ellipsoid.membership",
    "ellipsoid.containment_margin", "oracle.check_monotone_step",
    "oracle.hull_membership", "oracle.union_hull_distance",
    "oracle.mvee_khachiyan",
)


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self) -> None:
        self.names: List[str] = sorted({name for _, _, name in TARGETS})
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.reset()

    def reset(self) -> None:
        self.span_name: List[int] = []
        self.span_parent: List[int] = []
        self.span_start: List[int] = []
        self.span_end: List[int] = []
        self._stack: List[int] = []
        # tentative regular updates inside the coreset driver: calls of
        # coreset.full_update_detailed that computed new scalars
        self.coreset_tentative = 0

    def _wrap(self, fn: Callable, name: str,
              on_result: Optional[Callable] = None) -> Callable:
        name_id = self._name_id[name]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(self.span_start)
            stack = self._stack
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0)
            stack.append(i)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_tentative(self, result) -> None:
        if result[1] is not None:
            self.coreset_tentative += 1

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in TARGETS:
                fn = owner.__dict__[attr]
                hook = (self._count_tentative
                        if owner is coreset and attr == "full_update_detailed"
                        else None)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def aggregate(self) -> Dict[str, float]:
        """Calls, inclusive and self seconds per span name and layer."""
        n = len(self.span_start)
        dur = [(self.span_end[i] - self.span_start[i]) for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Dict[str, int] = defaultdict(int)
        incl: Dict[str, int] = defaultdict(int)
        layer_self: Dict[str, int] = defaultdict(int)
        fud = self._name_id["update_rule.full_update_detailed"]
        svd = self._name_id["linalg.svd"]
        svd_in_update = 0
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            incl[name] += dur[i]
            layer_self[name.split(".", 1)[0]] += dur[i] - child[i]
            if self.span_name[i] == svd:
                p = self.span_parent[i]
                while p >= 0 and self.span_name[p] != fud:
                    p = self.span_parent[p]
                if p >= 0:
                    svd_in_update += dur[i]
        out: Dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name] * 1e-9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] * 1e-9
        fud_ns = incl["update_rule.full_update_detailed"]
        out["linalg.svd.share_of_full_update"] = (
            svd_in_update / fud_ns if fud_ns else 0.0)
        out["trace.spans"] = n
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span: id, parent id, name, start and end in ns."""
        with open(path, "w") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_start)):
                f.write(f"{i},{self.span_parent[i]},"
                        f"{self.names[self.span_name[i]]},"
                        f"{self.span_start[i]},{self.span_end[i]}\n")
