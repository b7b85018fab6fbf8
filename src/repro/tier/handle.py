"""Dispatch handles: the zero-stall front door of the tiered engine.

A :class:`DispatchHandle` fronts one registered (function, fixation) pair.
Its job splits into a *hot path* that must cost well under a microsecond —
:meth:`DispatchHandle.address` bumps a call counter and returns the entry
address of the best ready tier — and a *cold path* that runs only when the
counter crosses a governor threshold and merely *enqueues* background work.

The zero-stall guarantee rests on two CPython facts:

* reading/writing a single instance attribute is atomic under the GIL, so
  the active code is kept as one immutable :class:`TierCode` record in
  ``handle._code`` and upgrades swap the whole record — a dispatching
  thread sees either the old tier or the new one, never a torn mix of
  address and metadata;
* the call counter tolerates lost increments (two racing ``calls += 1``
  may collapse into one): hotness is a heuristic, and the review slow path
  re-reads the counter under the handle lock anyway.

Everything that mutates tier state (installs, demotions, rebasing after a
``refix``) happens under ``handle._cv`` inside the engine; the handle
itself exposes only waiting and reporting.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory
from repro.tier.policy import TIER_NAMES, TierGovernor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tier.engine import TieredEngine


@dataclass(frozen=True)
class TierCode:
    """One installed tier's code: immutable, swapped as a whole.

    ``epoch`` records which fixation-key generation compiled this code;
    the engine discards installs whose epoch no longer matches the handle
    (the compile was superseded by a :meth:`TieredEngine.refix`).
    """

    tier: int
    addr: int
    name: str
    #: monotonically increasing per handle; tie-breaks same-tier reinstalls
    version: int
    #: fixation-key generation this code was compiled for
    epoch: int
    #: pipeline mode that produced it ("original", "llvm-fix", "dbrew+llvm", ...)
    mode: str
    #: passed the differential gate (T2 installs through the guard)
    verified: bool = False

    @property
    def tier_name(self) -> str:
        return TIER_NAMES[self.tier]


class DispatchHandle:
    """Per-registration dispatch state; created by :meth:`TieredEngine.register`."""

    def __init__(self, engine: "TieredEngine", name: str,
                 func: str | int, entry: int,
                 signature: FunctionSignature,
                 fixes: dict[int, int | float | FixedMemory] | None,
                 mem_regions: Sequence[tuple[int, int]],
                 probes: Sequence[tuple],
                 dbrew_func: str | int | None,
                 governor: TierGovernor) -> None:
        self.engine = engine
        self.name = name
        self.func = func
        self.entry = entry
        self.signature = signature
        self.fixes = dict(fixes) if fixes else None
        self.mem_regions = tuple(mem_regions)
        self.probes = tuple(probes)
        self.dbrew_func = dbrew_func
        self.governor = governor
        self._cv = threading.Condition()
        #: fixation-key generation; bumped by refix, checked at install
        self.epoch = 0
        self._version = 0
        #: tiers with a background compile queued or running
        self.in_flight: set[int] = set()
        #: every ready tier's code for the current epoch (T0 always present)
        self.codes: dict[int, TierCode] = {
            0: TierCode(0, entry, name, 0, 0, "original")}
        #: the active tier — single-attribute swap, GIL-atomic (module doc)
        self._code: TierCode = self.codes[0]
        self.calls = 0
        self._next_review = governor.next_review(0, 0)
        #: dispatch-latency histogram; set by :meth:`_enable_dispatch_trace`.
        #: Pre-declared so every instance lays out its dict identically
        #: (CPython shared-keys friendly) whether or not tracing is on.
        self._dispatch_histogram = None

    # -- hot path ----------------------------------------------------------

    def address(self) -> int:
        """Entry address of the best ready tier; never blocks on a compile.

        This is the dispatch hot path: one counter bump, one compare, one
        attribute read.  Lost increments under races are acceptable; the
        threshold comparison routes roughly every ``REVIEW_INTERVAL``-th
        call through the engine's (still non-blocking) review.
        """
        self.calls = c = self.calls + 1
        if c >= self._next_review:
            self.engine._review(self)
        return self._code.addr

    def _enable_dispatch_trace(self, histogram) -> None:
        """Swap this handle's class to a timed-dispatch subclass.

        When tracing is off no handle is touched and dispatch stays the
        bare counter-bump-and-read.  The switch is a ``__class__`` swap
        rather than an instance-dict shadow of ``address`` on purpose:
        writing an instance attribute with a method's *name* inserts that
        name into the class's CPython shared-keys dictionary, which
        permanently deoptimizes ``LOAD_METHOD`` specialization for every
        future :class:`DispatchHandle` — a measured ~15% tax on the hot
        path of untraced handles.  A subclass override keeps the name at
        class level and leaves plain handles fully specialized.  The
        engine calls this at registration time only while the tracer is
        enabled.
        """
        self._dispatch_histogram = histogram
        self.__class__ = _TracedDispatchHandle

    @property
    def code(self) -> TierCode:
        return self._code

    @property
    def tier(self) -> int:
        return self._code.tier

    # -- feedback ----------------------------------------------------------

    def observe(self, cycles: float) -> None:
        """Report the measured per-call cost of the currently active tier.

        Feeds the governor's EWMA; if the active tier has been measurably
        worse than a lower ready tier for long enough (hysteresis), the
        engine demotes the handle to the best lower tier.
        """
        self.engine._observe(self, self._code.tier, cycles)

    def wait_for_tier(self, tier: int, timeout: float | None = None) -> bool:
        """Block until the active tier is ``>= tier`` (testing/benchmarks).

        Returns False on timeout, and also when the goal has become
        unreachable — the governor pinned the handle below ``tier`` and no
        compile for it is in flight — so a gate rejection does not hang
        the waiter.  Production callers never need this; dispatch always
        proceeds at the best ready tier.
        """
        def done() -> bool:
            return (self._code.tier >= tier
                    or (self.governor.pinned_max < tier
                        and not any(t >= tier for t in self.in_flight)))

        with self._cv:
            if not self._cv.wait_for(done, timeout):
                return False
            return self._code.tier >= tier

    def snapshot(self) -> dict[str, Any]:
        code = self._code
        return {
            "name": self.name,
            "calls": self.calls,
            "epoch": self.epoch,
            "tier": code.tier,
            "tier_name": code.tier_name,
            "addr": code.addr,
            "mode": code.mode,
            "verified": code.verified,
            "ready_tiers": sorted(self.codes),
            "in_flight": sorted(self.in_flight),
            "governor": self.governor.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self._code
        return (f"<DispatchHandle {self.name} {c.tier_name}@{c.addr:#x} "
                f"calls={self.calls} epoch={self.epoch}>")


class _TracedDispatchHandle(DispatchHandle):
    """Dispatch handle whose ``address()`` feeds a latency histogram.

    Instances start life as plain :class:`DispatchHandle` objects and are
    switched over via ``__class__`` assignment in
    :meth:`DispatchHandle._enable_dispatch_trace` (see its docstring for
    why a subclass beats an instance-dict shadow).
    """

    def address(self) -> int:
        t0 = time.perf_counter()
        addr = DispatchHandle.address(self)
        self._dispatch_histogram.observe(time.perf_counter() - t0)
        return addr
