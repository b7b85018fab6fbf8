"""Label-aware assembler on top of the raw instruction encoder.

Code generators (MCC's back-end, DBrew's encoder, MiniLLVM's JIT) emit a
stream of :class:`Item` s — instructions whose branch operands may reference
:class:`Label` s — and :func:`assemble` resolves labels to absolute addresses
with iterative branch relaxation (rel8 vs rel32 changes lengths, which moves
labels, which may change widths again; iteration reaches a fixed point
because lengths only shrink monotonically from the rel32 starting guess).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EncodeError
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


def assemble_full(
    items: list[Item], base: int = 0
) -> tuple[bytes, list[Instruction], dict[str, int]]:
    """Assemble an item stream at ``base``.

    Returns the machine code bytes, the placed instruction list (with
    ``addr``/``length``/``raw`` filled in), and the resolved label
    addresses.  Duplicate label names raise.
    """
    instrs = [it for it in items if isinstance(it, Instruction)]
    # Initial guess: every branch is rel32-sized.  Compute lengths at a fake
    # far-away address so rel8 never triggers, then relax.
    labels: dict[str, int] = {}
    lengths = []
    for it in items:
        if isinstance(it, Label):
            if it.name in labels:
                raise EncodeError(f"duplicate label {it.name!r}")
            labels[it.name] = 0
    guess_labels = {n: base + (1 << 30) for n in labels}
    for ins in instrs:
        lengths.append(len(encode(_resolve(ins, guess_labels), 0)))

    for _ in range(32):
        # place labels and instructions with current length estimates
        pc = base
        idx = 0
        addrs: list[int] = []
        for it in items:
            if isinstance(it, Label):
                labels[it.name] = pc
            else:
                addrs.append(pc)
                pc += lengths[idx]
                idx += 1
        new_lengths = [
            len(encode(_resolve(ins, labels), a)) for ins, a in zip(instrs, addrs)
        ]
        if new_lengths == lengths:
            break
        lengths = new_lengths
    else:
        raise EncodeError("assembler failed to reach a fixed point")

    out = bytearray()
    placed: list[Instruction] = []
    pc = base
    for it in items:
        if isinstance(it, Label):
            labels[it.name] = pc
            continue
        resolved = _resolve(it, labels)
        raw = encode(resolved, pc)
        placed.append(
            Instruction(
                resolved.mnemonic, resolved.operands,
                addr=pc, length=len(raw), raw=raw,
            )
        )
        out += raw
        pc += len(raw)
    return bytes(out), placed, labels


def branch_targets(instrs: list[Instruction]) -> set[int]:
    """Absolute targets of all direct branches in a placed instruction list."""
    return {fx.target for fx in map(effects_of, instrs)
            if fx.target is not None}
