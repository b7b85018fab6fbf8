"""Per-layer spans for the ledger's traced pass, recorded from outside.

The ledger attributes host wall time to this repo's modules without
touching them: :func:`tracing` wraps the public entry points listed in
:data:`ENTRY_POINTS`, keeps every span in memory, and restores the
originals on exit.  A function entry is rebound in *every* loaded
``repro.*`` module whose attribute ``is`` the original (so ``from x import
f`` call sites are covered); a method entry is patched on its class.  An
untraced run never imports this module's wrappers into ``repro``.

A span is ``[layer, parent, op, t0, t1]``: ``parent`` is the index of the
span that caused it (-1 for a root), ``op`` the index of the benchmark
operation it belongs to (-1 outside any operation — set-up, per-round
preparation, the oracle).  A layer's *self time* is its spans' duration
minus the part their child spans cover.

Never wrapped: ``repro.cpu.semantics.execute`` and ``Memory.read/write``
— they run once per simulated instruction, so a wrapper there would
measure the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

#: index of the fields of one span record
LAYER, PARENT, OP, T0, T1 = range(5)

#: the pseudo-layer of a benchmark operation's root span; its self time is
#: what no wrapped entry point covers
OP_LAYER = "op"


class Recorder:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: one ``(round, cell)`` per benchmark operation; round -1 marks
        #: operations outside the timed rounds (warm-up, oracle)
        self.ops: list[tuple[int, str]] = []
        #: work counters per round (-1 = outside the timed rounds)
        self.counters: dict[int, dict[str, float]] = {-1: {}}
        self.round = -1
        self._op = -1
        self._stack: list[int] = []

    def begin_round(self, index: int) -> None:
        self.round = index
        self.counters.setdefault(index, {})

    def end_round(self) -> None:
        self.round = -1

    def open(self, layer: str) -> int:
        spans = self.spans
        index = len(spans)
        stack = self._stack
        spans.append([layer, stack[-1] if stack else -1, self._op,
                      perf_counter(), 0.0])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][T1] = perf_counter()
        self._stack.pop()

    def open_op(self, cell: str) -> int:
        self._op = len(self.ops)
        self.ops.append((self.round, cell))
        return self.open(OP_LAYER)

    def close_op(self, index: int) -> None:
        self.close(index)
        self._op = -1

    def add(self, counts: dict[str, float]) -> None:
        into = self.counters[self.round]
        for name, value in counts.items():
            into[name] = into.get(name, 0) + value


def self_times(spans: list[list[Any]]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[T1] - s[T0] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[T1] - s[T0]
    return out


#: scope key of spans recorded before the first timed round
SETUP_SCOPE = "setup"


def layer_totals(rec: Recorder, setup_end: int = 0,
                 scale: list[float] | None = None,
                 ) -> dict[Any, dict[str, list[float]]]:
    """``{round: {layer: [self seconds, calls]}}`` over the spans inside
    operations; ``scale`` holds one factor per operation (the clock's speed
    factor) applied to that operation's spans.  The first ``setup_end``
    spans (set-up and warm-up) are summed under :data:`SETUP_SCOPE` so work
    moved out of the timed rounds still shows.  Spans between operations
    of a timed round (per-round preparation, the oracle) land under
    round -1."""
    selfs = self_times(rec.spans)
    out: dict[Any, dict[str, list[float]]] = {}
    for index, (span, self_s) in enumerate(zip(rec.spans, selfs)):
        op = span[OP]
        if index < setup_end:
            scope: Any = SETUP_SCOPE
        else:
            scope = rec.ops[op][0] if op >= 0 else -1
        if scale is not None and 0 <= op < len(scale):
            self_s *= scale[op]
        cell = out.setdefault(scope, {}).setdefault(span[LAYER], [0.0, 0])
        cell[0] += self_s
        cell[1] += 1
    return out


# -- entry points ---------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point: ``module:function`` or ``module:Class.method``.

    ``before(args, kwargs)`` captures state ahead of the call;
    ``count(result, args, kwargs, token)`` turns the returned object (or
    the delta against ``token``) into work counters under their full
    names.  Counters are skipped when the call raises.
    """

    layer: str
    target: str
    count: Callable[[Any, tuple, dict, Any], dict[str, float]] | None = None
    before: Callable[[tuple, dict], Any] | None = None


def _ir_size(func: Any) -> int:
    return sum(len(b.instructions) for b in func.blocks)


def _one(name: str) -> Callable[..., dict[str, float]]:
    counts = {name: 1}
    return lambda *_: counts


def _count_rewrite(_addr, args, _kw, _tok):
    st = args[0].stats
    return {"dbrew.decoded": st.decoded, "dbrew.emulated": st.emulated,
            "dbrew.emitted": st.emitted}


def _count_lift(func, *_):
    return {"lift.ir_insns_out": _ir_size(func)}


def _count_o3(report, args, _kw, _tok):
    return {"ir.passes.ir_insns_out": _ir_size(args[0]),
            "ir.passes.iterations": report.iterations,
            "ir.passes.pass_skips": len(report.skipped_passes)}


def _count_codegen(_addr, args, kwargs, _tok):
    jit, func = args[0], args[1]
    name = kwargs.get("name") or func.name
    return {"ir.codegen.code_bytes": jit.image.func_sizes.get(name, 0)}


def _cache_get(hit_counter: str | None):
    hit = {hit_counter: 1} if hit_counter else {}
    miss = {"cache.misses": 1}
    return lambda result, *_: miss if result is None else hit


def _count_guard(result, *_):
    return {"guard.fallbacks": sum(1 for a in result.attempts if not a.ok)}


def _count_gate(report, *_):
    return {"guard.gate.probes": len(report.probes),
            "guard.gate.conclusive": report.conclusive}


def _validator_before(args, _kw):
    st = args[0].stats
    return st.validated, st.rejected, st.probes_run


def _count_validator(_res, args, _kw, tok):
    st = args[0].stats
    return {"analysis.validate.validated": st.validated - tok[0],
            "analysis.validate.rejected": st.rejected - tok[1],
            "analysis.validate.probes_run": st.probes_run - tok[2]}


def _count_machine(result, *_):
    return {"analysis.machine.proved": int(result.verdict == "proved"),
            "analysis.machine.inconclusive":
                int(result.verdict == "inconclusive")}


def _cpu_before(_args, kwargs):
    st = kwargs.get("stats")
    if st is None:
        return 0, 0.0, 0, 0
    return st.instructions, st.cycles, st.loads, st.stores


def _count_cpu(result, _args, _kw, tok):
    st = result.stats
    return {"cpu.insns": st.instructions - tok[0],
            "cpu.cycles": st.cycles - tok[1],
            "cpu.loads": st.loads - tok[2], "cpu.stores": st.stores - tok[3]}


_PASSES = ("simplifycfg", "mem2reg", "inline", "constprop", "instcombine",
           "gvn", "dce", "unroll", "vectorize")
_CACHE = "repro.cache.cache:SpecializationCache."

ENTRY_POINTS: tuple[Entry, ...] = (
    Entry("cc", "repro.cc.compiler:compile_c"),
    Entry("stencil", "repro.stencil.jacobi:StencilWorkspace.__init__"),
    Entry("stencil", "repro.stencil.jacobi:StencilWorkspace.run_sweeps"),
    Entry("stencil", "repro.stencil.jacobi:StencilWorkspace.reference_sweeps"),
    Entry("x86.decode", "repro.x86.decoder:decode_one",
          _one("x86.decode.insns")),
    Entry("x86.encode", "repro.x86.encoder:encode"),
    Entry("dbrew", "repro.dbrew.rewriter:Rewriter.rewrite", _count_rewrite),
    Entry("lift", "repro.lift.lifter:lift_function", _count_lift),
    Entry("lift", "repro.lift.fixation:build_fixation_wrapper", _count_lift),
    Entry("ir.passes", "repro.ir.passes.pipeline:run_o3", _count_o3),
    # the individual passes too: under a validator run_o3 hands each pass
    # to PassValidator.run_pass as a thunk, and without these the pass's
    # own work would be booked on analysis.validate
    *(Entry("ir.passes", f"repro.ir.passes.{p}:run") for p in _PASSES),
    Entry("ir.codegen", "repro.ir.codegen.jit:JITEngine.compile_function",
          _count_codegen),
    Entry("jit", "repro.jit.engine:BinaryTransformer.llvm_identity"),
    Entry("jit", "repro.jit.engine:BinaryTransformer.llvm_fixed"),
    Entry("cache", _CACHE + "get_machine", _cache_get("cache.machine_hits")),
    Entry("cache", _CACHE + "get_module", _cache_get(None)),
    Entry("cache", _CACHE + "get_lifted", _cache_get("cache.lifted_hits")),
    Entry("cache", _CACHE + "get_rewrite", _cache_get("cache.rewrite_hits")),
    *(Entry("cache", _CACHE + f"put_{stage}", _one("cache.stores"))
      for stage in ("machine", "module", "lifted", "rewrite")),
    Entry("cache", _CACHE + "code_digest"),
    Entry("guard", "repro.guard.guarded:GuardedTransformer.transform",
          _count_guard),
    Entry("guard.gate", "repro.guard.verify:DifferentialGate.check",
          _count_gate),
    Entry("mem", "repro.mem.memory:Memory.snapshot"),
    Entry("mem", "repro.mem.memory:Memory.restore"),
    Entry("analysis.validate", "repro.analysis.validate:PassValidator.run_pass",
          _count_validator, _validator_before),
    Entry("analysis.checkers", "repro.analysis.checkers:run_checkers",
          lambda findings, *_: {"analysis.checkers.findings": len(findings)}),
    Entry("analysis.machine", "repro.analysis.machine.verifier:verify_witness",
          _count_machine),
    Entry("ir.interp", "repro.ir.interp:Interpreter.run",
          _one("ir.interp.runs")),
    Entry("ir.verifier", "repro.ir.verifier:verify"),
    Entry("instrument", "repro.instrument.api:Instrumenter.instrument"),
    Entry("cpu", "repro.cpu.simulator:Simulator.call", _count_cpu, _cpu_before),
    Entry("testing.diffcorpus", "repro.testing.diffcorpus:run_case",
          _one("testing.diffcorpus.cases")),
)

#: every layer, in table order
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(e.layer for e in ENTRY_POINTS))

#: full counter names (``<layer>.<counter>``) the traced pass reports
COUNTERS: tuple[str, ...] = (
    "x86.decode.insns",
    "dbrew.decoded", "dbrew.emulated", "dbrew.emitted",
    "lift.ir_insns_out",
    "ir.passes.ir_insns_out", "ir.passes.iterations", "ir.passes.pass_skips",
    "ir.codegen.code_bytes",
    "cache.machine_hits", "cache.lifted_hits", "cache.rewrite_hits",
    "cache.misses", "cache.stores",
    "guard.fallbacks",
    "guard.gate.probes", "guard.gate.conclusive",
    "analysis.validate.validated", "analysis.validate.rejected",
    "analysis.validate.probes_run",
    "analysis.checkers.findings",
    "analysis.machine.proved", "analysis.machine.inconclusive",
    "ir.interp.runs",
    "cpu.insns", "cpu.cycles", "cpu.loads", "cpu.stores",
    "testing.diffcorpus.cases",
)


def _wrap(rec: Recorder, entry: Entry, fn: Callable) -> Callable:
    layer, before, count = entry.layer, entry.before, entry.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args, kwargs) if before is not None else None
        span = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if count is not None:
            rec.add(count(result, args, kwargs, token))
        return result

    return wrapper


def _bind(rec: Recorder, entry: Entry, undo: list[tuple[Any, str, Any]]) -> int:
    """Install one wrapper; returns how many attributes were rebound."""
    mod_name, _, path = entry.target.partition(":")
    module = importlib.import_module(mod_name)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        owner = next(c for c in cls.__mro__ if attr in vars(c))
        original = vars(owner)[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, _wrap(rec, entry, original))
        return 1
    original = getattr(module, path)
    wrapper = _wrap(rec, entry, original)
    bound = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)
                bound += 1
    return bound


@contextmanager
def tracing(rec: Recorder) -> Iterator[dict[str, int]]:
    """Wrap every entry point for the duration of the block.

    Yields ``{target: bindings}``; every wrapper is removed on exit, also
    when the block raises.
    """
    undo: list[tuple[Any, str, Any]] = []
    try:
        yield {e.target: _bind(rec, e, undo) for e in ENTRY_POINTS}
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)
