"""Effect-only IR probes: plan, inject, strip.

Probes are *ordinary IR* — load/add/store chains through
``inttoptr(const)`` pointers, the exact addressing shape the lifter
itself emits — so every downstream engine handles them natively: both
interpreters, the JIT back-end (which folds constant bases into
addressing), and the machine-level verifier.  No new opcodes, no
intrinsics, no engine special cases.

Every injected instruction carries a ``probe = (kind, site)`` tag.  The
tag is the whole contract:

* :func:`strip_instrumentation` removes exactly the tagged instructions,
  restoring the function to its pre-injection text (the hypothesis
  property ``strip(instrument(f)) == f`` is checked structurally);
* the probe-ops pregate (:func:`repro.analysis.probes.check_probe_ops`)
  proves every tagged store targets the probe buffer and that no program
  instruction consumes a tagged value — "effect-only", machine-checkable.

Probe taxonomy (DESIGN §15):

``call``   one counter bump in the entry block — call profiling.
``edge``   one counter bump per basic block (after phis) — block/edge
           heat (:meth:`ProbeBuffer.hotness`).
``mem``    an event-ring append of the accessed address before every
           program load/store — memory-access tracing.
``watch``  last-value slot + hit counter before every ``ret`` — value
           watchpoints on the function result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InstrumentError
from repro.instrument.buffer import EV_LOAD, EV_STORE, ProbeBuffer
from repro.ir import instructions as I
from repro.ir.irtypes import DOUBLE, I64, VOID, IntType, ptr
from repro.ir.module import Function
from repro.ir.values import Constant

PROBE_CALL = "call"
PROBE_EDGE = "edge"
PROBE_MEM = "mem"
PROBE_WATCH = "watch"

_P64 = ptr(I64)


@dataclass(frozen=True)
class InstrumentOptions:
    """Which probe families to inject, and the event-ring size."""

    #: per-block counters (the edge profile)
    edge_counters: bool = True
    #: entry-block call counter
    call_counter: bool = True
    #: memory-access event tracing (one ring append per program load/store)
    trace_memory: bool = False
    #: return-value watchpoints (last value + hit count per ret site)
    watch_returns: bool = False
    #: event-ring capacity in entries; must be a power of two
    ring_capacity: int = 256


@dataclass
class ProbePlan:
    """What :func:`inject_probes` will add to one function."""

    func_name: str
    options: InstrumentOptions
    #: block names in layout order; index = edge-counter slot
    block_names: tuple[str, ...] = ()
    #: names of blocks whose terminator is a ``ret`` (audit: their counters
    #: must sum to the call counter)
    ret_blocks: tuple[str, ...] = ()
    #: (site id, block name, opcode) per traced memory access
    mem_sites: tuple[tuple[int, str, str], ...] = ()
    #: (site id, block name) per watched return
    watch_sites: tuple[tuple[int, str], ...] = ()

    @property
    def n_watch(self) -> int:
        return len(self.watch_sites)


def is_instrumented(func: Function) -> bool:
    """True when any instruction carries a probe tag."""
    return any(ins.probe is not None for ins in func.instructions())


def plan_probes(func: Function, options: InstrumentOptions) -> ProbePlan:
    """Enumerate probe sites; raises :class:`InstrumentError` on re-entry.

    Double instrumentation is rejected outright: a second probe layer
    would observe the first one's effects, so neither the strip inverse
    nor the effect-only audit could hold.
    """
    if is_instrumented(func):
        raise InstrumentError(
            f"@{func.name} is already instrumented", function=func.name)
    block_names = tuple(b.name for b in func.blocks) \
        if (options.edge_counters or options.call_counter) else ()
    ret_blocks = tuple(b.name for b in func.blocks
                       if isinstance(b.terminator, I.Ret))
    mem_sites: list[tuple[int, str, str]] = []
    watch_sites: list[tuple[int, str]] = []
    for blk in func.blocks:
        for ins in blk.instructions:
            if options.trace_memory and isinstance(ins, (I.Load, I.Store)):
                mem_sites.append((len(mem_sites), blk.name, ins.opcode))
            elif options.watch_returns and isinstance(ins, I.Ret) \
                    and ins.operands and _watchable(ins.operands[0].type):
                watch_sites.append((len(watch_sites), blk.name))
    return ProbePlan(func_name=func.name, options=options,
                     block_names=block_names, ret_blocks=ret_blocks,
                     mem_sites=tuple(mem_sites),
                     watch_sites=tuple(watch_sites))


def _watchable(type_) -> bool:
    return type_ is DOUBLE or isinstance(type_, IntType)


class _Emitter:
    """Inserts tagged probe instructions at a moving index in one block."""

    def __init__(self, func: Function, block, index: int) -> None:
        self.func = func
        self.block = block
        self.index = index

    def ins(self, instr: I.Instruction, tag: tuple) -> I.Instruction:
        if instr.type is not VOID and not instr.name:
            instr.name = self.func.next_name("p")
        instr.probe = tag
        self.block.insert(self.index, instr)
        self.index += 1
        return instr

    def bump_u64(self, addr: int, tag: tuple) -> None:
        """``*(u64*)addr += 1`` as three tagged instructions."""
        p = self.ins(I.Cast("inttoptr", Constant(I64, addr), _P64), tag)
        v = self.ins(I.Load(p, align=8), tag)
        v1 = self.ins(I.BinOp("add", v, Constant(I64, 1)), tag)
        self.ins(I.Store(v1, p, align=8), tag)

    def store_u64(self, addr: int, value, tag: tuple) -> None:
        p = self.ins(I.Cast("inttoptr", Constant(I64, addr), _P64), tag)
        self.ins(I.Store(value, p, align=8), tag)


def inject_probes(func: Function, plan: ProbePlan,
                  buffer: ProbeBuffer) -> None:
    """Inject the planned probes, writing into ``buffer``.

    Runs *after* optimization (the instrumenter pipeline is
    lift -> O3 -> inject -> JIT): probes must count the code that actually
    executes, and no later pass may move, merge or delete them.
    """
    if is_instrumented(func):
        raise InstrumentError(
            f"@{func.name} is already instrumented", function=func.name)
    if tuple(b.name for b in func.blocks) != plan.block_names \
            and plan.block_names:
        raise InstrumentError(
            f"probe plan for @{plan.func_name} does not match @{func.name}",
            function=func.name)
    opts = plan.options
    block_index = {name: i for i, name in enumerate(plan.block_names)}
    mem_iter = iter(plan.mem_sites)
    watch_iter = iter(plan.watch_sites)
    for bi, blk in enumerate(func.blocks):
        em = _Emitter(func, blk, blk.first_non_phi())
        if bi == 0 and opts.call_counter:
            em.bump_u64(buffer.calls_addr, (PROBE_CALL, 0))
        if opts.edge_counters:
            slot = buffer.block_counter_addr(block_index[blk.name])
            em.bump_u64(slot, (PROBE_EDGE, block_index[blk.name]))
        # walk the *program* instructions after the prologue probes;
        # insertions shift indices, so scan by position
        i = em.index
        while i < len(blk.instructions):
            ins = blk.instructions[i]
            if ins.probe is not None:
                i += 1
                continue
            if opts.trace_memory and isinstance(ins, (I.Load, I.Store)):
                site = next(mem_iter)
                em.index = i
                _emit_mem_event(em, buffer, site, ins)
                i = em.index + 1  # skip over the access itself
                continue
            if opts.watch_returns and isinstance(ins, I.Ret) \
                    and ins.operands and _watchable(ins.operands[0].type):
                site = next(watch_iter)
                em.index = i
                _emit_watch(em, buffer, site, ins.operands[0])
                i = em.index + 1
                continue
            i += 1
    func.bump_version()


def _emit_mem_event(em: _Emitter, buffer: ProbeBuffer,
                    site: tuple[int, str, str], access) -> None:
    """Append ``(kind|site, address)`` to the event ring before ``access``."""
    site_id, _blk, opcode = site
    tag = (PROBE_MEM, site_id)
    kind = EV_LOAD if opcode == "load" else EV_STORE
    curp = em.ins(I.Cast("inttoptr", Constant(I64, buffer.cursor_addr), _P64),
                  tag)
    cur = em.ins(I.Load(curp, align=8), tag)
    idx = em.ins(I.BinOp("and", cur, Constant(I64, buffer.ring_capacity - 1)),
                 tag)
    off = em.ins(I.BinOp("mul", idx, Constant(I64, 16)), tag)
    slot = em.ins(I.BinOp("add", Constant(I64, buffer.ring_addr), off), tag)
    tagp = em.ins(I.Cast("inttoptr", slot, _P64), tag)
    em.ins(I.Store(Constant(I64, (kind << 56) | site_id), tagp, align=8), tag)
    pay = em.ins(I.BinOp("add", slot, Constant(I64, 8)), tag)
    payp = em.ins(I.Cast("inttoptr", pay, _P64), tag)
    addr = em.ins(I.Cast("ptrtoint", access.operands[-1], I64), tag)
    em.ins(I.Store(addr, payp, align=8), tag)
    cur1 = em.ins(I.BinOp("add", cur, Constant(I64, 1)), tag)
    em.ins(I.Store(cur1, curp, align=8), tag)


def _emit_watch(em: _Emitter, buffer: ProbeBuffer,
                site: tuple[int, str], value) -> None:
    site_id, _blk = site
    tag = (PROBE_WATCH, site_id)
    if value.type is DOUBLE:
        bits = em.ins(I.Cast("bitcast", value, I64), tag)
    elif isinstance(value.type, IntType) and value.type.bits < 64:
        bits = em.ins(I.Cast("zext", value, I64), tag)
    else:
        bits = value
    em.store_u64(buffer.watch_slot_addr(site_id), bits, tag)
    em.bump_u64(buffer.watch_hit_addr(site_id), tag)


def strip_instrumentation(func: Function) -> int:
    """Remove every probe-tagged instruction; returns how many.

    The exact inverse of :func:`inject_probes`: probes are pure insertions
    whose values feed only other probes, so removal restores the original
    body text.  If any *program* instruction consumes a probe value the
    function was corrupted (a pass moved a probe into program dataflow) —
    that is an :class:`InstrumentError`, not a silent miscompile.
    """
    removed = 0
    for blk in func.blocks:
        for ins in [i for i in blk.instructions if i.probe is not None]:
            ins.erase()
            removed += 1
    for ins in func.instructions():
        for op in ins.operands:
            if isinstance(op, I.Instruction) and op.probe is not None:
                raise InstrumentError(
                    f"@{func.name}: program instruction {ins.name or ins.opcode!r} "
                    "depends on a probe value — effect-only contract broken",
                    function=func.name)
    if removed:
        func.bump_version()
    return removed
