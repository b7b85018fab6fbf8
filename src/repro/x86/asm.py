"""Label-aware assembler on top of the raw instruction encoder.

Code generators (MCC's back-end, DBrew's encoder, MiniLLVM's JIT) emit a
stream of :class:`Item` s — instructions whose branch operands may reference
:class:`Label` s — and :func:`assemble` resolves labels to absolute addresses
with iterative branch relaxation (rel8 vs rel32 changes lengths, which moves
labels, which may change widths again; iteration reaches a fixed point
because lengths only shrink monotonically from the rel32 starting guess).

Every instruction is encoded once, and those bytes are what is placed and
emitted unless the instruction is :func:`position_dependent`; only those
take part in relaxation, re-encoded once per round, and the round that
changes no length has encoded each at its final address.  This is the one
relaxation loop in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from repro.errors import EncodeError
from repro.x86 import isa
from repro.x86.effects import effects_of
from repro.x86.encoder import encode
from repro.x86.instr import Imm, Instruction, Mem, Operand, Reg


@dataclass(frozen=True)
class Label:
    """A position marker in an assembly stream."""

    name: str


@dataclass(frozen=True)
class LabelRef:
    """A branch/riprel operand naming a label that is resolved at assembly."""

    name: str


Item = Instruction | Label


def _resolve_operand(op: Operand | LabelRef, labels: dict[str, int]) -> Operand:
    if isinstance(op, LabelRef):
        if op.name not in labels:
            raise EncodeError(f"undefined label {op.name!r}")
        return Imm(labels[op.name], 8)
    if isinstance(op, Mem) and op.riprel and isinstance(op.disp, LabelRef):  # type: ignore[unreachable]
        raise EncodeError("riprel label displacement must be pre-resolved")
    return op


def _resolve(ins: Instruction, labels: dict[str, int]) -> Instruction:
    if not any(isinstance(o, LabelRef) for o in ins.operands):
        return ins
    ops = tuple(_resolve_operand(o, labels) for o in ins.operands)
    return Instruction(ins.mnemonic, ops)


def assemble(items: list[Item], base: int = 0) -> tuple[bytes, list[Instruction]]:
    """Assemble an item stream at ``base``; returns (code, placed instrs)."""
    code, placed, _labels = assemble_full(items, base)
    return code, placed


def position_dependent(ins: Instruction) -> bool:
    """True if the bytes of ``ins`` depend on where it lands.

    That is when the encoder computes a displacement against ``addr``: a
    direct control transfer (label or absolute target alike), any
    :class:`LabelRef` operand, or a RIP-relative memory operand.
    """
    if isa.control_class(ins.mnemonic) in ("jmp", "jcc", "call"):
        return True
    for o in ins.operands:
        if isinstance(o, LabelRef) or (isinstance(o, Mem) and o.riprel):
            return True
    return False


def assemble_full(
    items: list[Item], base: int = 0
) -> tuple[bytes, list[Instruction], dict[str, int]]:
    """Assemble an item stream at ``base``.

    Returns the machine code bytes, the placed instruction list (with
    ``addr``/``length``/``raw`` filled in), and the resolved label
    addresses.  Duplicate label names raise.
    """
    # Initial guess: every label is far away, so no branch to one is rel8.
    far = base + (1 << 30)
    labels: dict[str, int] = {}
    marks: list[tuple[str, int]] = []  # (label, index of the next instruction)
    instrs: list[Instruction] = []
    for it in items:
        if isinstance(it, Label):
            if it.name in labels:
                raise EncodeError(f"duplicate label {it.name!r}")
            labels[it.name] = far
            marks.append((it.name, len(instrs)))
        else:
            instrs.append(it)
    # The one encode of a position-independent instruction; the others get
    # their starting length here and their bytes in the rounds below.
    raws: list[bytes] = []
    moving: list[tuple[int, Instruction]] = []  # (index, as given)
    for i, ins in enumerate(instrs):
        if position_dependent(ins):
            moving.append((i, ins))
            ins = _resolve(ins, labels)
        raws.append(encode(ins, 0))

    for _ in range(32):
        # place everything with the current lengths, then re-encode what moves
        addrs = list(accumulate(map(len, raws), initial=base))
        for name, idx in marks:
            labels[name] = addrs[idx]
        stable = True
        for i, ins in moving:
            instrs[i] = ins = _resolve(ins, labels)
            raw = encode(ins, addrs[i])
            if len(raw) != len(raws[i]):
                stable = False
            raws[i] = raw
        if stable:  # every byte above was encoded at its final address
            break
    else:
        raise EncodeError("assembler failed to reach a fixed point")

    placed = [
        Instruction(ins.mnemonic, ins.operands, addr=a, length=len(raw), raw=raw)
        for ins, a, raw in zip(instrs, addrs, raws)
    ]
    return b"".join(raws), placed, labels


def branch_targets(instrs: list[Instruction]) -> set[int]:
    """Absolute targets of all direct branches in a placed instruction list."""
    return {fx.target for fx in map(effects_of, instrs)
            if fx.target is not None}
