"""The ledger's host clock: wall time at a reference machine speed.

The sandbox this benchmark runs in changes speed by 35-60% on a time scale
of seconds to minutes (other tenants of the host; the guest sees no steal
time and has no hardware counters), so raw wall clock cannot hold a bound
of a tenth from one run to the next.  Everything the ledger times is
single-threaded pure-Python work, and so is :func:`calibrate`: a fixed
kernel that uses nothing of ``repro``.  The clock runs it between
operations — at least every :data:`CAL_EVERY_S` of measured time — and
scales each operation's wall time by ``REF_CAL_S / (kernel time around
it)``.  Host numbers are therefore *seconds at the reference speed*; the
raw wall time is kept beside them (``Op.raw_s``) and the host speed is
printed with every result.

The kernel has two halves because the workloads slow down differently
under contention: an interpreter-bound half (dict, list, method call,
``isinstance``, ``bytes``) that tracks the simulator, and an
allocation-bound half (a memoised clone of a 781-node tree) that tracks
the compile and verify paths.  On a five-minute trace of this box, over
25 s blocks, the raw time of a simulated sweep, a cold compile, a cached
re-specialisation and a guarded install each moved by 55-63% of its
median; in kernel units they moved by 6.0%, 4.3%, 6.7% and 6.2% (the
first half alone: 3.8%, 8.0%, 8.4%, 6.8%; a pure arithmetic spin and a
64k-entry pointer chase were both worse, 15%).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

#: the kernel's time on this box in its fast state; only fixes the unit
REF_CAL_S = 1.0e-3
#: measured time after which the next operation is preceded by a calibration
CAL_EVERY_S = 0.05


class _Node:
    __slots__ = ("kids", "a", "b", "tag")

    def __init__(self, kids: list["_Node"], b: int) -> None:
        self.kids = kids
        self.a = 1
        self.b = b
        self.tag: dict[str, int] | None = None

    def step(self, i: int) -> int:
        self.a = (self.b + i) & 0xFFFF
        return self.a


def _tree(depth: int, fan: int) -> _Node:
    return _Node([_tree(depth - 1, fan) for _ in range(fan)] if depth else [],
                 depth)


_TREE = _tree(4, 5)


def _clone(node: _Node, memo: dict[int, _Node]) -> _Node:
    got = memo.get(id(node))
    if got is None:
        got = memo[id(node)] = _Node([_clone(k, memo) for k in node.kids],
                                     node.b)
        got.tag = {"depth": node.b, "kids": len(node.kids)}
    return got


def _kernel(n: int = 1300) -> float:
    t0 = perf_counter()
    table: dict[tuple[int, str], int] = {}
    stack: list[int] = []
    node = _Node([], 2)
    acc = 0
    get = table.get
    for i in range(n):
        key = (i & 63, "k")
        table[key] = get(key, 0) + i
        stack.append(i ^ acc)
        acc = (acc + node.step(i)) & 0xFFFFFFFF
        if isinstance(acc, int) and len(stack) > 32:
            stack.pop()
        pair = bytes((i & 255, acc & 255))
        acc ^= pair[0] + len(pair)
    _clone(_TREE, {})
    return perf_counter() - t0


def calibrate() -> float:
    """Seconds the kernel takes now; best of three, so a preemption inside
    one sample does not read as a slow machine."""
    return min(_kernel(), _kernel(), _kernel())


@dataclass
class Op:
    """One timed operation of one round."""

    cell: str
    #: wall seconds as measured
    raw_s: float
    error: str | None = None
    result: Any = None
    key: Any = None
    #: what the workload wants to remember about the outcome
    info: Any = None
    #: wall seconds at the reference speed (set by the closing calibration)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class Clock:
    """Times operations; in the traced pass also opens each one's root span."""

    def __init__(self, recorder: Any = None) -> None:
        self.rec = recorder
        #: speed factor of every operation so far, in order (index-aligned
        #: with ``Recorder.ops`` in a traced pass)
        self.factors: list[float] = []
        #: every calibration sample, for the printed host speed
        self.samples: list[float] = []
        #: wall seconds spent calibrating, to take out of a timed set-up
        self.spent_s = 0.0
        self._open: list[Op] = []
        self._cal = self._sample()
        self._cal_at = perf_counter()

    def _sample(self) -> float:
        t0 = perf_counter()
        self.samples.append(calibrate())
        self.spent_s += perf_counter() - t0
        return self.samples[-1]

    def sync(self) -> float:
        """Calibrate now and close the interval: every operation since the
        previous calibration is scaled by the mean of the two.  Returns the
        factor applied."""
        new = self._sample()
        factor = 2 * REF_CAL_S / (self._cal + new)
        for op in self._open:
            op.seconds = op.raw_s * factor
        self.factors += [factor] * len(self._open)
        self._open.clear()
        self._cal = new
        self._cal_at = perf_counter()
        return factor

    def run(self, cell: str, fn: Callable[[], Any], key: Any = None) -> Op:
        if perf_counter() - self._cal_at >= CAL_EVERY_S:
            self.sync()
        rec = self.rec
        span = rec.open_op(cell) if rec is not None else -1
        result = error = None
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        raw_s = perf_counter() - t0
        if rec is not None:
            rec.close_op(span)
        op = Op(cell, raw_s, error, result, key)
        self._open.append(op)
        return op
