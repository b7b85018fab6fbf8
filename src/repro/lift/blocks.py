"""Basic-block discovery over decoded machine code (Sec. III-B).

Decodes from the entry point following direct control flow, collecting
leaders (branch targets and fall-throughs).  A jump into the middle of an
already-decoded block splits it, so every instruction belongs to exactly
one block — the de-duplication property the paper calls out as enabling
better optimization.

Indirect jumps are rejected (unsupported, per the paper); calls are *not*
block terminators here — they lift to IR call instructions mid-block, which
"leaves the decision on inlining to the LLVM optimizer".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import DecodeError, LiftError
from repro.mem.memory import Memory
from repro.obs import metrics as _metrics
from repro.x86.decoder import decode_one
from repro.x86.effects import effects_of
from repro.x86.instr import Instruction

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.guard.budget import Budget

#: decode memo shared by every discovery in this process, keyed by
#: (pc, window bytes).  Instructions are immutable (repro.x86.instr), so
#: sharing decoded objects across lifts is safe; the pc is part of the key
#: because branch/call operands are decoded to absolute targets.  Repeated
#: lifts of identical byte sequences — the tiered engine re-lifting per
#: tier, farm workers churning through registration storms — skip the
#: decoder entirely.  Content-keyed, so it can never serve stale decodes
#: after a patch: patched bytes simply key a different entry.
_DECODE_MEMO: dict[tuple[int, bytes], Instruction] = {}
_DECODE_MEMO_MAX = 65_536
_DECODE_HITS = _metrics.counter("lift.decode_memo.hits")
_DECODE_MISSES = _metrics.counter("lift.decode_memo.misses")

#: decoded-trace cache (PR 9): whole discovered CFGs keyed by
#: ``(image content token, entry, max_instructions)``.  The per-instruction
#: memo above still pays the worklist walk, leader analysis and block
#: assembly on every lift; a trace hit skips *all* of it.  The token comes
#: from :meth:`repro.cpu.image.Image.content_token` — it folds the image's
#: patch generation, code-allocation cursors and a digest of the bytes
#: installed, so any sanctioned code mutation (``patch_code``,
#: ``add_function``, ``reserve_code``) moves the token and stale CFGs
#: simply key dead entries.  Raw ``Memory`` objects
#: with no image attached have no token and bypass this cache entirely.
#: Cached CFGs are shared read-only across lifts (the lifter only reads
#: them), exactly like the memoized ``Instruction`` objects they contain.
_CFG_CACHE: dict[tuple, "GuestCFG"] = {}
_CFG_CACHE_MAX = 4096
_CFG_LOCK = threading.Lock()
_CFG_HITS = _metrics.counter("lift.decode_trace.hits")
_CFG_MISSES = _metrics.counter("lift.decode_trace.misses")
_CFG_STORE_HITS = _metrics.counter("lift.decode_trace.store_hits")

#: optional persistent store (DiskStore-shaped: get/put) for decoded
#: traces of *stable* tokens — spec-built farm images, whose token is
#: derived from the spec digest and therefore means the same bytes in any
#: process, ever.  Local images use process-unique tokens and are never
#: published.
_TRACE_STORE = None


def attach_trace_store(store) -> None:
    """Attach (or detach, with None) a persistent decoded-trace store.

    Farm workers point this at their shared :class:`~repro.cache.DiskStore`
    so a byte-identical function decoded by any worker of any pool run is
    never decoded again on that host.
    """
    global _TRACE_STORE
    _TRACE_STORE = store


def _stable_token(token: tuple) -> bool:
    """True when the token is content-derived (safe to persist)."""
    head = token[0]
    return isinstance(head, tuple) and head and head[0] == "farmspec"


def _trace_store_key(token: tuple, entry: int, max_instructions: int) -> str:
    return f"dtrace:{token!r}:{entry:#x}:{max_instructions}"


def decode_trace_stats() -> dict[str, int]:
    """Decoded-trace cache counters (benchmarks / farm stats)."""
    with _CFG_LOCK:
        size = len(_CFG_CACHE)
    return {
        "size": size,
        "hits": _CFG_HITS.value,
        "misses": _CFG_MISSES.value,
        "store_hits": _CFG_STORE_HITS.value,
    }


def clear_decode_caches() -> None:
    """Drop the in-process decode memo and decoded-trace cache (tests)."""
    _DECODE_MEMO.clear()
    with _CFG_LOCK:
        _CFG_CACHE.clear()


@dataclass
class GuestBlock:
    """A guest basic block: consecutive instructions, one terminator."""

    start: int
    instructions: list[Instruction] = field(default_factory=list)

    @property
    def end(self) -> int:
        last = self.instructions[-1]
        return last.addr + last.length

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]


class GuestCFG:
    """Discovered control-flow graph of one guest function."""

    def __init__(self, entry: int) -> None:
        self.entry = entry
        self.blocks: dict[int, GuestBlock] = {}

    def block_at(self, addr: int) -> GuestBlock:
        return self.blocks[addr]

    def ordered(self) -> list[GuestBlock]:
        return [self.blocks[a] for a in sorted(self.blocks)]

    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks.values())


def discover(memory: Memory, entry: int, *, max_instructions: int = 100_000,
             budget: "Budget | None" = None) -> GuestCFG:
    """Decode the function at ``entry`` into basic blocks.

    A ``budget`` charges ``lift_instructions`` fuel per decoded instruction
    and ``lift_blocks`` per discovered leader, bounding the time an
    adversarial input (e.g. a huge self-generated jump net) can spend here.
    A decoded-trace cache hit charges nothing — same rule as the lift-stage
    facet cache, which likewise skips the work the budget meters.
    """
    token_fn = getattr(memory, "content_token_fn", None)
    token = token_fn() if token_fn is not None else None
    key = None
    if token is not None:
        key = (token, entry, max_instructions)
        with _CFG_LOCK:
            cached = _CFG_CACHE.get(key)
        if cached is not None:
            _CFG_HITS.value += 1
            return cached
        if _TRACE_STORE is not None and _stable_token(token):
            got = _TRACE_STORE.get(_trace_store_key(token, entry,
                                                    max_instructions))
            if isinstance(got, GuestCFG):
                _CFG_STORE_HITS.value += 1
                with _CFG_LOCK:
                    if len(_CFG_CACHE) >= _CFG_CACHE_MAX:
                        _CFG_CACHE.clear()
                    _CFG_CACHE[key] = got
                return got
        _CFG_MISSES.value += 1

    cfg = GuestCFG(entry)
    instr_cache: dict[int, Instruction] = {}
    # first pass: find all instructions and leaders
    leaders: set[int] = {entry}
    worklist: list[int] = [entry]
    visited: set[int] = set()
    count = 0
    while worklist:
        pc = worklist.pop()
        if pc in visited:
            continue
        while pc not in visited:
            visited.add(pc)
            ins = instr_cache.get(pc)
            if ins is None:
                window = memory.window(pc, 16)
                if not window:
                    raise LiftError(f"code address {pc:#x} unmapped",
                                    stage="lift", addr=pc)
                ins = _DECODE_MEMO.get((pc, window))
                if ins is None:
                    _DECODE_MISSES.value += 1
                    try:
                        ins = decode_one(window, 0, pc)
                    except DecodeError as exc:
                        raise exc.with_context(stage="lift", addr=pc)
                    if len(_DECODE_MEMO) >= _DECODE_MEMO_MAX:
                        _DECODE_MEMO.clear()
                    _DECODE_MEMO[(pc, window)] = ins
                else:
                    _DECODE_HITS.value += 1
                instr_cache[pc] = ins
            count += 1
            if count > max_instructions:
                raise LiftError(f"function at {entry:#x} exceeds decode budget",
                                stage="lift", addr=pc)
            if budget is not None:
                budget.charge("lift_instructions", stage="lift", addr=pc)
            fx = effects_of(ins)
            cls = fx.control
            if cls in ("jmp", "jcc"):
                if fx.target is None:
                    raise LiftError(
                        f"indirect jump at {pc:#x} is not supported (Sec. III-B)",
                        stage="lift", addr=pc, instruction=ins.mnemonic,
                    )
                leaders.add(fx.target)
                worklist.append(fx.target)
                if cls == "jcc":
                    leaders.add(ins.end)
                    worklist.append(ins.end)
                break
            if cls == "ret":
                break
            if cls == "call" and fx.target is None:
                raise LiftError(f"indirect call at {pc:#x} is not supported",
                                stage="lift", addr=pc,
                                instruction=ins.mnemonic)
            pc = ins.end

    # split fall-through: any decoded addr that is a leader terminates the
    # instruction run before it
    addrs = sorted(visited)
    # second pass: build blocks
    for leader in sorted(leaders):
        if leader not in visited:
            raise LiftError(f"branch target {leader:#x} outside decoded function",
                            stage="lift", addr=leader)
        if budget is not None:
            budget.charge("lift_blocks", stage="lift", addr=leader)
        blk = GuestBlock(leader)
        pc = leader
        while True:
            ins = instr_cache[pc]
            blk.instructions.append(ins)
            if effects_of(ins).control in ("jmp", "jcc", "ret"):
                break
            if ins.end in leaders:
                break  # fall into the next block
            if ins.end not in visited:
                raise LiftError(f"decode ran off function at {ins.end:#x}")
            pc = ins.end
        cfg.blocks[leader] = blk

    if key is not None:
        with _CFG_LOCK:
            if len(_CFG_CACHE) >= _CFG_CACHE_MAX:
                _CFG_CACHE.clear()
            _CFG_CACHE[key] = cfg
        if _TRACE_STORE is not None and _stable_token(token):
            _TRACE_STORE.put(_trace_store_key(token, entry, max_instructions),
                             cfg)
    return cfg
