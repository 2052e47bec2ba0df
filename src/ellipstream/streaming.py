"""End-to-end drivers: seeded two-phase rounding and fully-online rounding,
and `fold`, the loop all drivers share.

Every driver folds a per-point step over a finite iterable of points,
producing the final sandwich state plus a per-step report. `fold` owns the
step protocol: from no state, the first point makes a rank-0 state; the
observer sees each state change, and skips show only in the report. A skip
leaves the state unchanged, so `fold` ingests points in bulk: `chunks`
cuts the stream into blocks of CHUNK_ROWS rows, and once the last two rows
were skips, `update_rule.leading_skips` scans the rows ahead with one
mat-mul and records the run of certain skips at once. A row is a certain
skip when its residual is at most half the off-span threshold and its rho
lies inside the limit by SKIP_MARGIN plus scan_tolerance, the most a gemm
and the scalar step can disagree; any row nearer a threshold goes through
the scalar step, so the outputs equal the scalar fold's bit for bit. A scan
runs to the end of the block; a run that reaches it carries into the next
block, and the row that ends a run goes to the scalar step, as does the row
after a lone skip, where a scan would mostly read the block to pass no row.
Skip runs are stored run-length encoded.
"""

from __future__ import annotations

import math
from array import array
from itertools import islice
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .ellipsoid import Ellipsoid, NumericalLimitError
from .update_rule import RoundingState, Step, leading_skips, step
# looked up here by perfbench/tracing.py
from .ellipsoid import log_volume  # noqa: F401
from .update_rule import full_update_detailed, irregular_update, is_off_span  # noqa: F401

# on_step(t, step): called once per state change; a skip leaves the state
# as it was and shows only in the report
StepObserver = Callable[[int, Step], None]

CHUNK_ROWS = 256


class StepRecord(NamedTuple):
    t: int
    alpha: float
    log_volume: float
    step_kind: str  # init | skip | regular | irregular | local
    gamma: float


# the step kinds, in the order of their one-byte codes in a RunReport
_KINDS = ("init", "skip", "regular", "irregular", "local")
_KIND_CODE = {kind: i for i, kind in enumerate(_KINDS)}


class RunReport:
    """Per-step records as runs of `count` steps at t, t+1, ... that agree
    apart from t. The runs are stored column-wise, about 42 bytes each, as a
    harness may keep many reports."""

    def __init__(self) -> None:
        self._t, self._count = array("q"), array("q")
        self._alpha, self._log_volume, self._gamma = array("d"), array("d"), array("d")
        self._kind = bytearray()
        # the t that would continue the last run, and that run's fields
        self._next_t, self._last = -math.inf, None

    def add(self, t: int, alpha: float, log_volume: float, kind: str, gamma: float,
            count: int = 1) -> None:
        """Add `count` steps starting at t, merged into the last run when
        they continue it."""
        fields = (alpha, log_volume, kind, gamma)
        if t < self._next_t:
            raise ValueError("records must be strictly ordered by t")
        if t == self._next_t and fields == self._last:
            self._count[-1] += count
        else:
            self._t.append(t)
            self._count.append(count)
            self._alpha.append(alpha)
            self._log_volume.append(log_volume)
            self._kind.append(_KIND_CODE[kind])
            self._gamma.append(gamma)
            self._last = fields
        self._next_t = t + count

    @property
    def runs(self) -> List[Tuple[StepRecord, int]]:
        return [(StepRecord(t, a, lv, _KINDS[k], g), n) for t, n, a, lv, k, g in zip(
            self._t, self._count, self._alpha, self._log_volume, self._kind, self._gamma)]

    @property
    def final_alpha_inv(self) -> float:
        return 1.0 / self._alpha[-1] if self._alpha else 1.0

    @property
    def records(self) -> List[StepRecord]:
        return [rec._replace(t=rec.t + i) if i else rec
                for rec, n in self.runs for i in range(n)]

    def regular_gamma_sum(self) -> float:
        code = _KIND_CODE["regular"]
        return sum(g for k, n, g in zip(self._kind, self._count, self._gamma)
                   if k == code for _ in range(n))

    def irregular_count(self) -> int:
        code = _KIND_CODE["irregular"]
        return sum(n for k, n in zip(self._kind, self._count) if k == code)


def chunks(stream: Iterable[np.ndarray]) -> Iterator[Tuple[int, np.ndarray]]:
    """(t0, block): the stream as float blocks of up to CHUNK_ROWS rows, the
    first at stream index t0 (counting from 1); slices of an ndarray, islice
    of anything else. A non-finite row at index t raises ValueError naming
    t, once the finite rows before it have been yielded.
    """
    t0 = 1
    for block in _blocks(stream):
        block = block.reshape(len(block), -1)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            j = int(finite.argmin())
            if j:
                yield t0, block[:j]
            raise ValueError(f"non-finite point at index {t0 + j}")
        yield t0, block
        t0 += len(block)


def _blocks(stream: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    if isinstance(stream, np.ndarray):
        pts = np.asarray(stream, dtype=float)
        for i in range(0, len(pts), CHUNK_ROWS):
            yield pts[i:i + CHUNK_ROWS]
        return
    it = iter(stream)
    while rows := list(islice(it, CHUNK_ROWS)):
        yield np.asarray(rows, dtype=float)


def fold(stream: Iterable[np.ndarray],
         advance: Callable[[RoundingState, np.ndarray], Step],
         state: Optional[RoundingState] = None,
         on_step: Optional[StepObserver] = None,
         skip_limit: Callable[[RoundingState], float] = lambda state: 1.0,
         ) -> Tuple[Optional[RoundingState], RunReport]:
    """Fold `advance` over the stream from `state`, or from the rank-0 state
    of the first point (kind init), recording every step; `on_step` sees
    each Step that changes the state. After two skips, the rows ahead that
    leading_skips certifies at `skip_limit(state)` (recomputed when the
    state changes) are recorded as skips without calling `advance`. A
    NumericalLimitError is re-raised with the index of the step that hit it.
    """
    report = RunReport()
    limit = 0.0 if state is None else skip_limit(state)
    # skips: how many of the rows just before row i were skips, up to 2
    skips, t = 0, 0
    try:
        for t0, block in chunks(stream):
            i, n = 0, len(block)
            while i < n:
                if skips == 2:
                    j = leading_skips(state, block[i:], limit)
                    if j:
                        report.add(t0 + i, state.alpha, state.log_volume, "skip", 0.0, j)
                        i += j
                        if i == n:
                            break
                t, z = t0 + i, block[i]
                if state is None:
                    first = RoundingState.from_ellipsoid(Ellipsoid.point(z), 1.0)
                    s = Step(first, first, z, "init", 0.0, None)
                else:
                    s = advance(state, z)
                _, new, _, kind, gamma, _ = s
                if new is not state:
                    state, limit = new, skip_limit(new)
                    if on_step is not None:
                        on_step(t, s)
                report.add(t, state.alpha, state.log_volume, kind, gamma)
                skips = min(skips + 1, 2) if kind == "skip" else 0
                i += 1
    except NumericalLimitError as exc:
        raise exc.at_step(t) from exc
    return state, report


def run_seeded(
    stream: Iterable[np.ndarray],
    c0: np.ndarray,
    r0: float,
    on_step: Optional[StepObserver] = None,
) -> Tuple[RoundingState, RunReport]:
    """Two-phase rounding given a seed ball c0 + r0*B inside the hull.

    Phase I keeps both bodies as balls around c0; once a point lands
    beyond r0 * d * log(d) the outer ball is grown to that radius once
    and for all and every remaining point (including the trigger) goes
    through the step kernel.
    """
    c0 = np.atleast_1d(np.asarray(c0, dtype=float))
    d = c0.shape[0]
    if d < 2:
        raise ValueError("seeded mode needs dimension >= 2")
    if not (r0 > 0):
        raise ValueError("seed radius must be positive")
    gate = r0 * d * math.log(d)

    local = True  # phase I: both bodies are balls around c0

    def advance(state, z):
        nonlocal local
        if local:
            dist = float(np.linalg.norm(z - c0))
            if dist <= gate:
                # a phase-I state is a ball: its factor is radius * I
                if dist > state.factor[0, 0]:
                    return Step(state, RoundingState.from_ellipsoid(
                        Ellipsoid.ball(c0, dist), r0 / dist), z, "local", 0.0, None)
                return Step(state, state, z, "skip", 0.0, None)
            # transition: grow the ball to its maximum allowed size; the
            # update rule needs alpha <= 1/2, so small dimensions are clamped
            alpha0 = min(0.5, 1.0 / (d * math.log(d)))
            grown = RoundingState.from_ellipsoid(Ellipsoid.ball(c0, gate), alpha0)
            local = False
            stepped = step(grown, z)
            # the grown ball may cover a point within ulps of the gate; the
            # growth is then the step, as a skip never changes the state
            return Step(state, grown, z, "local", 0.0, None) if stepped.kind == "skip" else stepped
        return step(state, z)

    return fold(stream, advance,
                RoundingState.from_ellipsoid(Ellipsoid.ball(c0, r0), 1.0), on_step)


def run_fully_online(
    stream: Iterable[np.ndarray],
    on_step: Optional[StepObserver] = None,
) -> Tuple[RoundingState, RunReport]:
    """Online rounding with no seed: the first point initializes a rank-0
    state and every span-raising point triggers an irregular step.
    """
    state, report = fold(stream, step, on_step=on_step)
    if state is None:
        raise ValueError("empty stream")
    return state, report
