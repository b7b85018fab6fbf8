"""Basic-block discovery over decoded machine code (Sec. III-B).

Decodes from the entry point following direct control flow, collecting
leaders (branch targets and fall-throughs).  A jump into the middle of an
already-decoded block splits it, so every instruction belongs to exactly
one block — the de-duplication property the paper calls out as enabling
better optimization.

Indirect jumps are rejected (unsupported, per the paper); calls are *not*
block terminators here — they lift to IR call instructions mid-block, which
"leaves the decision on inlining to the LLVM optimizer".

Every lift walks the function afresh, so budget fuel is charged the same
way each time; only the per-instruction decode is memoized, keyed by the
bytes it decodes.
"""

from __future__ import annotations

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
#: lifts of identical byte sequences — the guard re-lifting per rung or to
#: blame a pass — skip the decoder entirely.  Content-keyed, so it can
#: never serve stale decodes after a patch: patched bytes simply key a
#: different entry.
_DECODE_MEMO: dict[tuple[int, bytes], Instruction] = {}
_DECODE_MEMO_MAX = 65_536
_DECODE_HITS = _metrics.counter("lift.decode_memo.hits")
_DECODE_MISSES = _metrics.counter("lift.decode_memo.misses")

#: decode budget: a walk that reaches this many instructions is not a
#: function this lifter handles
MAX_INSTRUCTIONS = 100_000


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

    def ordered(self) -> list[GuestBlock]:
        return [self.blocks[a] for a in sorted(self.blocks)]


def discover(memory: Memory, entry: int, *,
             budget: "Budget | None" = None) -> GuestCFG:
    """Decode the function at ``entry`` into basic blocks.

    A ``budget`` charges ``lift_instructions`` fuel per decoded instruction
    and ``lift_blocks`` per discovered leader, bounding the time an
    adversarial input (e.g. a huge self-generated jump net) can spend here.
    """
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
            if count > MAX_INSTRUCTIONS:
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

    # second pass: build blocks; a leader terminates the instruction run
    # that falls into it
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
    return cfg
