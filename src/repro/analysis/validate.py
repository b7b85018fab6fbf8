"""Translation validation for the -O3 pipeline: once, then replay per pass.

PR 2's differential gate runs end-to-end: it can say *that* a specialized
function diverged, never *which pass* miscompiled it.  This module closes
that gap without paying for the answer on every clean compile.  In validate
mode ``run_o3`` hands a :class:`PassValidator` **applications** — a thunk
that edits one function in place — and each one is

1. snapshotted (:func:`~repro.analysis.clone.clone_function`),
2. run,
3. checked **structurally** — the raising verifier, which holds every
   structural rule — and **behaviorally**, by interpreting the snapshot and
   the output on seeded probe vectors over identical deterministic
   memories and comparing return values *and* non-stack memory effects,
4. on rejection rolled back in place.

With no pass under suspicion the application is the **whole sweep**
(:attr:`PassValidator.PIPELINE`): one clone of the lifted body, the passes
run unvalidated, one ``verify``, one comparison of lifted against final.
An accepted pipeline is done.  A rejected one — structural, behavioral, or
an exception escaping the sweep — blames nobody and quarantines nothing:
the lifted body is back in place and ``run_o3`` **replays** the sweep with
one application per pass.  Passes are deterministic, so the replay meets
the same fault again, now between two bodies one pass apart: that pass is
rolled back, recorded in ``O3Report.rejected_passes`` and quarantined in a
:class:`NegativeCache` (key ``o3pass:<name>``) while the rest of the
pipeline keeps running, so a single broken pass degrades optimization
quality instead of killing the ladder rung.  While any pass is in
quarantine every ``run_o3`` under this validator goes per pass from the
start.  Nothing carries over from one application to the next: a replay
pays one clone and both interpretations per applied pass, and an
application that reports "no change" is checked by two fingerprint walks
(snapshot and live body) instead of being interpreted.

What "once" does not see, by design: a pass error that later passes erase
on every probe.  The installed body is then still probe-equal to the lifted
one, which is the property an install needs; the per-pass sweep would have
rejected and quarantined the pass.  In the other direction the end-to-end
comparison is the stricter one on floats: one tolerance from lifted to
final, not one per step.

A probe on which the *snapshot* itself faults (e.g. a sampled integer
dereferenced as a pointer) is inconclusive and skipped, mirroring the
dynamic gate's policy: passes may remove traps from dead code, but must
preserve every well-defined execution.  A verdict can rest on no conclusive
probe at all; ``PassVerdict.probes_run`` (``O3Report.conclusive_probes``
for an accepted pipeline) says on how many it does.  Comparison of float
returns uses a small relative tolerance because the default pipeline runs
fast-math reassociation.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.cache.negative import NegativeCache
from repro.errors import BudgetExceededError, IRError, ReproError
from repro.ir.interp import Interpreter
from repro.ir.module import Function
from repro.ir.verifier import verify
from repro.mem.memory import Memory

from repro.analysis.clone import (
    clone_function, function_fingerprint, restore_function,
)

#: deterministic probe samples (mirrors the dynamic gate's tables)
_F64_SAMPLES = (0.0, 1.0, -1.5, 2.25, 0.5, -3.0, 8.0, -0.125)
_I64_SAMPLES = (0, 1, 2, 3, 5, 8, 13, 21)

#: scratch memory handed to pointer-ish parameters, one slot per arg
SCRATCH_BASE = 0x6400_0000
SCRATCH_SLOT = 0x1000
SCRATCH_SLOTS = 16

#: the interpreter's stack region — excluded from memory comparison
#: (dead stack slots legitimately differ after mem2reg/DCE)
_STACK_LO = 0x7000_0000 - (1 << 20)
_STACK_HI = 0x7000_0000

#: probe vectors interpreted per validated application
PROBES = 4
#: sample-rotation seed
SEED = 0
#: per-probe interpreter step ceiling
MAX_STEPS = 200_000
#: NegativeCache TTL for quarantined passes (seconds)
QUARANTINE_TTL = 30.0
#: relative tolerance for float return values (fast-math reassociation)
TOLERANCE = 1e-9
#: stop probing after this many inconclusive probes if *none* was
#: conclusive yet — further samples from the same tables rarely start
#: succeeding, and lifted code whose pointers the scratch slots cannot
#: satisfy would otherwise pay full probe cost for zero signal
MAX_INCONCLUSIVE_SCOUT = 2

#: the reason prefix of a structural rejection
_STRUCTURAL = "verifier: "


@dataclass
class PassVerdict:
    """What validation concluded about one application: a single pass,
    or the whole sweep (``pass_name == PassValidator.PIPELINE``)."""

    pass_name: str
    ok: bool = True
    #: the function changed (the pass's own claim, or structural diff)
    changed: bool = False
    #: skipped because the pass is currently quarantined
    quarantined: bool = False
    #: pre-pass body was restored after rejection
    rolled_back: bool = False
    reason: str | None = None
    #: *conclusive* probes the verdict rests on (0 = structural checks only)
    probes_run: int = 0
    seconds: float = 0.0


@dataclass
class ValidatorStats:
    """Aggregate counters across one validator's lifetime.

    ``validated``/``accepted`` count checked applications of either kind;
    ``rejected``, ``rollbacks`` and the two ``*_rejections`` count *pass*
    applications only — one bad pass is ``rejected == 1`` however it was
    found — and a rejected pipeline is a ``replays``.
    """

    #: whole sweeps handed in as one application
    pipelines: int = 0
    #: pipelines rejected and handed back for a per-pass replay
    replays: int = 0
    validated: int = 0
    accepted: int = 0
    rejected: int = 0
    structural_rejections: int = 0
    behavioral_rejections: int = 0
    quarantine_skips: int = 0
    rollbacks: int = 0
    probes_run: int = 0


class PassValidator:
    """Validates applications; quarantines passes that miscompile."""

    #: the name under which ``run_o3`` hands in its whole sweep as one
    #: application.  Its rejection is the cue to replay per pass, not a
    #: finding: it is counted apart and never enters the quarantine.
    PIPELINE = "o3"

    def __init__(self) -> None:
        self.negative = NegativeCache(ttl=QUARANTINE_TTL)
        self.stats = ValidatorStats()

    # -- the wrapper the pipeline calls per application -----------------------

    def run_pass(self, name: str, thunk: Callable[[], Any], func: Function,
                 *, changed_of: Callable[[Any], bool] = bool,
                 ) -> tuple[Any, PassVerdict]:
        """Run one application under validation.

        Returns ``(thunk result, verdict)``.  On rejection the result
        is still returned (callers read ``verdict.changed``, which is False
        after a rollback).  Exceptions from a pass propagate — a *raising*
        pass is the ladder's problem, not a silent miscompile.  The whole
        sweep (``name == PIPELINE``) is the exception: it ran unvalidated
        and may have raised over a body one of its own passes broke, so
        ``func`` is restored and the verdict is a rejection;
        ``BudgetExceededError`` still propagates, over the restored body.
        Nothing outlives the call but the quarantine and the counters.
        """
        whole = name == self.PIPELINE
        key = f"o3pass:{name}"
        ent = None if whole else self.negative.check(key)
        if ent is not None:
            self.stats.quarantine_skips += 1
            return None, PassVerdict(
                pass_name=name, ok=False, quarantined=True,
                reason=ent.reason)

        t0 = time.perf_counter()
        snapshot = clone_function(func)
        if whole:
            self.stats.pipelines += 1
        try:
            result = thunk()
        except Exception as exc:
            if not whole:
                raise
            restore_function(func, snapshot)
            if isinstance(exc, BudgetExceededError):
                raise
            self.stats.replays += 1
            return None, PassVerdict(
                pass_name=name, ok=False, rolled_back=True,
                reason=f"raised: {type(exc).__name__}: {exc}",
                seconds=time.perf_counter() - t0)
        # a pass that says "no change" is believed only if the live body
        # still keys like its snapshot: content, not Function.version
        if not changed_of(result) and \
                function_fingerprint(func) == function_fingerprint(snapshot):
            return result, PassVerdict(pass_name=name, ok=True,
                                       seconds=time.perf_counter() - t0)

        self.stats.validated += 1
        verdict = PassVerdict(pass_name=name, changed=True)
        verdict.reason, verdict.probes_run = self._validate(snapshot, func)
        verdict.seconds = time.perf_counter() - t0
        self.stats.probes_run += verdict.probes_run

        if verdict.reason is None:
            self.stats.accepted += 1
            return result, verdict
        restore_function(func, snapshot)
        verdict.ok = False
        verdict.rolled_back = True
        verdict.changed = False
        if whole:
            self.stats.replays += 1
            return result, verdict
        self.stats.rejected += 1
        self.stats.rollbacks += 1
        if verdict.reason.startswith(_STRUCTURAL):
            self.stats.structural_rejections += 1
        else:
            self.stats.behavioral_rejections += 1
        self.negative.record(key, name, verdict.reason,
                             {"stage": "validate", "pass": name})
        return result, verdict

    # -- validation ----------------------------------------------------------

    def _validate(self, before: Function, after: Function,
                  ) -> tuple[str | None, int]:
        """``(reason, conclusive probes)``; a None reason accepts.  A
        structural rejection rests on no probe."""
        try:
            verify(after)
        except IRError as exc:
            return f"{_STRUCTURAL}{exc}", 0
        return self._differential(before, after)

    def _differential(self, before: Function, after: Function,
                      ) -> tuple[str | None, int]:
        """Interpret both bodies on probe vectors; first divergence wins.
        Returns ``(reason, conclusive probes)``."""
        conclusive = 0
        attempted = 0
        # a signature without float parameters gets the same address
        # vector at k = 0 and k = 2: interpret each vector once
        for probe in dict.fromkeys(self._probes(after)):
            if conclusive == 0 and attempted >= MAX_INCONCLUSIVE_SCOUT:
                break  # nothing conclusive: stop scouting
            attempted += 1
            want, err_b, mem_b = self._probe_run(before, probe)
            if err_b is not None:
                continue  # the pre-pass body rejects this input
            got, err_a, mem_a = self._probe_run(after, probe)
            conclusive += 1
            if err_a is not None:
                return (f"probe {probe!r}: pass output failed "
                        f"({err_a}) where input succeeded"), conclusive
            addr = _mem_diff(mem_b, mem_a)
            if addr is not None:
                return (f"probe {probe!r}: memory divergence at "
                        f"{addr:#x}"), conclusive
            if not self._agree(want, got):
                return (f"probe {probe!r}: return divergence "
                        f"(expected {want!r}, got {got!r})"), conclusive
        return None, conclusive

    def _probe_run(self, func: Function, args: tuple,
                   ) -> tuple[object, str | None, list[tuple[int, bytes]]]:
        module = func.module
        # each probe's interpreter places the globals in its own memory
        mem = Memory()
        mem.map(SCRATCH_BASE, SCRATCH_SLOT * SCRATCH_SLOTS,
                _scratch_pattern(SCRATCH_SLOT * SCRATCH_SLOTS))
        interp = Interpreter(module if module is not None else _orphan(func),
                             mem)
        interp.max_steps = MAX_STEPS
        try:
            rv = interp.run(func, list(args))
            return rv, None, [(s, mem.read(s, n)) for s, n in mem.regions()
                              if not _STACK_LO <= s < _STACK_HI]
        except ReproError as exc:
            # inconclusive: the snapshot is never compared, don't copy it
            return None, f"{type(exc).__name__}: {exc}", None

    def _probes(self, func: Function) -> list[tuple]:
        """Deterministic argument vectors for the function's signature.

        Probes alternate between two classes, scratch-address probes
        first: even probes substitute per-slot scratch addresses for
        integer parameters — lifted code routinely receives addresses as
        i64, and probes that only pass small integers would leave every
        memory access inconclusive — and odd probes pass small integers.
        Leading with one probe of each class lets the inconclusive-scout
        cutoff sample both before giving up.
        """
        out: list[tuple] = []
        for k in range(PROBES):
            use_addr = k % 2 == 0
            vec: list[object] = []
            for slot, arg in enumerate(func.args):
                t = arg.type
                idx = (k + SEED + slot * 3) % len(_I64_SAMPLES)
                if t.is_float:
                    vec.append(_F64_SAMPLES[idx])
                elif t.is_vector:
                    vec.append(tuple(
                        _F64_SAMPLES[idx] if t.elem.is_float else _I64_SAMPLES[idx]
                        for _ in range(t.count)))  # type: ignore[attr-defined]
                elif t.is_pointer or use_addr:
                    vec.append(SCRATCH_BASE
                               + (slot % SCRATCH_SLOTS) * SCRATCH_SLOT)
                else:
                    vec.append(_I64_SAMPLES[idx])
            out.append(tuple(vec))
        return out

    def _agree(self, a: object, b: object) -> bool:
        if a is None and b is None:
            return True
        if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
            return all(self._agree(x, y) for x, y in zip(a, b))
        if isinstance(a, float) or isinstance(b, float):
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                return False
            x, y = float(a), float(b)
            if x != x and y != y:
                return True  # both NaN
            return abs(x - y) <= TOLERANCE * max(1.0, abs(x), abs(y))
        return a == b


@functools.lru_cache(maxsize=4)
def _scratch_pattern(size: int) -> bytes:
    # (i * 37 + 11) mod 256 has period 256: tile one cycle instead of
    # generating size bytes through a Python genexpr on every probe run
    cycle = bytes((i * 37 + 11) & 0xFF for i in range(256))
    return (cycle * (size // 256 + 1))[:size]


def _mem_diff(a: list[tuple[int, bytes]],
              b: list[tuple[int, bytes]]) -> int | None:
    """First differing address between two probes' region lists."""
    da, db = dict(a), dict(b)
    for s in sorted(set(da) | set(db)):
        x, y = da.get(s, b""), db.get(s, b"")
        if x == y:
            continue
        for off in range(min(len(x), len(y))):
            if x[off] != y[off]:
                return s + off
        return s + min(len(x), len(y))
    return None


def _orphan(func: Function):
    """A throwaway module wrapper for validating detached functions."""
    from repro.ir.module import Module
    m = Module(f"validate.{func.name}")
    return m
