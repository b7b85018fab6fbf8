"""What one x86 instruction touches: the single record everyone reads.

``effects_of(ins)`` says which registers an :class:`Instruction` reads and
writes, whether it reads or writes memory, what it does to each of the six
status flags, and where it sends control.  DBrew decides "emulate (all
inputs known) vs emit" from it, the simulator counts loads and stores and
ends its blocks with it, the machine verifier forgets the flags by it, and
block discovery (``lift.blocks``, ``analysis.machine.mcfg``) follows its
targets.  What an instruction *computes* is not here — that is
:mod:`repro.cpu.semantics`, which ``tests/x86/test_effects_conformance.py``
holds this record against.

Registers follow Fig. 4a of the paper: a 32-bit GPR write zeroes the upper
half, so its destination is written only; an 8-bit, 16-bit or high-byte
write *merges*, so its destination register is also read.  SSE registers
are tracked whole, so a low-lane write (``movsd xmm, xmm``, ``movlpd``)
reads its destination the same way.

Every flag is in exactly one of four columns:

* **defined** (``flags_def``) — set from the operands;
* **ISA-undefined** (``flags_undef``) — the SDM leaves the value open: it
  may change, and nothing may be assumed about it afterwards;
* **untouched** — in neither string;
* **count-conditional** — ``count_mask`` is non-zero on a shift or rotate
  by ``cl``: both strings hold only when ``cl & count_mask`` is non-zero,
  and every flag is untouched when it is zero.  An immediate count is
  resolved here, so those forms never carry a mask.

The record is computed once per instruction and kept on it; the part that
depends on the mnemonic alone is memoised by mnemonic, and equal records are
one object.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from repro.x86 import isa
from repro.x86.instr import Imm, Instruction, Mem, Reg
from repro.x86.registers import RAX, RBP, RDX, RSP

RegKey = tuple[str, int]  # (kind, index)
#: while a record is built a register set is a bit mask: gp i is bit i, xmm i
#: bit 16 + i
_XMM0 = 16
_BANK = {"gp": 0, "xmm": _XMM0}
_RAX, _RDX, _RSP, _RBP = 1 << RAX, 1 << RDX, 1 << RSP, 1 << RBP
#: records are values, and most instructions touch what an earlier one did:
#: the first equal record is handed out again (and each register set exists
#: once, :func:`_regset`), so a decoded instruction leaves nothing new on the
#: heap for the collector to walk.  A transfer's record holds its target
#: address; there is no bound on those, so they are not kept
_RECORDS: dict["Effects", "Effects"] = {}


@functools.cache
def _regset(mask: int) -> frozenset[RegKey]:
    return frozenset(("gp", i) if i < _XMM0 else ("xmm", i - _XMM0)
                     for i in range(32) if mask >> i & 1)


class Effects(NamedTuple):
    """Everything one instruction touches (module docstring)."""

    reads: frozenset[RegKey]
    writes: frozenset[RegKey]
    mem_read: bool
    mem_write: bool
    flags_read: str
    flags_def: str
    flags_undef: str
    count_mask: int
    #: 'jmp', 'jcc', 'call', 'ret' or 'none'
    control: str
    #: canonical condition code of a jcc/cmovcc/setcc
    cc: str | None
    #: absolute target of a direct jmp/jcc/call; None when indirect
    target: int | None


#: first operand is written without being read (Fig. 4a permitting); an
#: unlisted mnemonic reads and writes it
_DST_WRITTEN = frozenset({
    "mov", "movzx", "movsx", "movsxd", "lea", "pop", "movsd", "movss",
    "movapd", "movaps", "movupd", "movups", "movq", "movd", "movlpd",
    "movhpd", "cvttsd2si", "cvtsd2si", "cvttss2si", "cvtss2si", "pshufd",
    "sqrtpd",
})
#: first operand is read only
_DST_READ = frozenset({
    "cmp", "test", "ucomisd", "ucomiss", "comisd", "comiss", "push",
    "mul", "div", "idiv", "jmp", "call",
})

#: mnemonic -> (defined, ISA-undefined); unlisted = all six untouched
_FLAGS: dict[str, tuple[str, str]] = {
    **dict.fromkeys(("add", "adc", "sub", "sbb", "cmp", "neg"),
                    ("oszapc", "")),
    # comis* compare into z/p/c and *clear* o/s/a
    **dict.fromkeys(("ucomisd", "ucomiss", "comisd", "comiss"),
                    ("oszapc", "")),
    **dict.fromkeys(("and", "or", "xor", "test"), ("oszpc", "a")),
    **dict.fromkeys(("inc", "dec"), ("oszap", "")),  # carry untouched
    **dict.fromkeys(("imul", "mul"), ("oc", "szap")),
    **dict.fromkeys(("div", "idiv"), ("", "oszapc")),
}
#: shift/rotate flags by masked count: (count == 1, count > 1 or unknown);
#: o is defined only for a count of 1, and a count of 0 touches nothing
_SHIFT_FLAGS: dict[str, tuple[tuple[str, str], tuple[str, str]]] = {
    **dict.fromkeys(("shl", "shr", "sar"),
                    (("oszpc", "a"), ("szpc", "oa"))),
    **dict.fromkeys(("rol", "ror"), (("oc", ""), ("c", "o"))),
}


#: mnemonics with implicit registers or count-dependent flags
_SPECIAL = frozenset({"cqo", "cdq", "mul", "imul", "div", "idiv", "push",
                      "call", "pop", "ret", "leave", *_SHIFT_FLAGS})


@functools.cache
def _by_mnemonic(m: str) -> tuple:
    """``(first-operand role, flags read, defined, undefined, control class,
    condition code, is it in _SPECIAL)`` — what the mnemonic alone decides."""
    cc = isa.cc_of(m)
    control = isa.control_class(m)
    if m in _DST_READ or control == "jcc":
        role = "r"
    elif m in _DST_WRITTEN or (cc is not None and m.startswith("set")):
        role = "w"
    else:
        role = "rw"
    if cc is not None:
        flags_read = isa.CC_FLAGS_READ[cc]
    else:
        flags_read = "c" if m in ("adc", "sbb") else ""
    return (role, flags_read, *_FLAGS.get(m, ("", "")), control, cc,
            m in _SPECIAL)


def _analyze(ins: Instruction) -> Effects:
    m, ops = ins.mnemonic, ins.operands
    role, flags_read, flags_def, flags_undef, control, cc, special = \
        _by_mnemonic(m)
    reads = writes = count_mask = 0
    mem_read = mem_write = False
    target = None

    if special:  # implicit registers, the stack, count-dependent flags
        width = ops[0].size if ops and type(ops[0]) is not Imm else 8
        if m == "imul":  # one operand: the widening form
            role = ("r", "rw", "w")[len(ops) - 1]
        if m in ("cqo", "cdq"):
            reads, writes = _RAX, _RDX  # rdx or edx: replaced either way
        elif role == "r" and m in ("mul", "imul", "div", "idiv"):
            reads = writes = _RAX  # r/m8: ax = al * src; al, ah = ax / src
            if width > 1:
                writes |= _RDX
                if width == 2 or m in ("div", "idiv"):
                    reads |= _RDX  # a dx write merges; a divide reads it
        elif m in ("push", "call"):
            reads = writes = _RSP
            mem_write = True
        elif m in ("pop", "ret"):
            reads = writes = _RSP
            mem_read = True
        elif m == "leave":
            reads, writes = _RBP, _RSP | _RBP
            mem_read = True
        elif m in _SHIFT_FLAGS:
            count = ops[1]
            bound = 63 if width == 8 else 31
            if type(count) is not Imm:
                flags_def, flags_undef = _SHIFT_FLAGS[m][1]
                count_mask = bound
            elif count.value & bound:
                flags_def, flags_undef = \
                    _SHIFT_FLAGS[m][count.value & bound > 1]

    dst = role != "r"  # is the operand at hand a destination?
    for op in ops:
        kind = type(op)
        if kind is Reg:
            bit = 1 << _BANK[op.kind] + op.index
            if not dst:
                reads |= bit
            else:
                writes |= bit
                # Fig. 4a for a GPR; the low-lane SSE moves keep lanes
                if role == "rw" or (op.size < 4 if op.kind == "gp" else (
                        m in ("movlpd", "movhpd") or m in ("movsd", "movss")
                        and type(ops[1]) is Reg)):
                    reads |= bit
        elif kind is Mem:
            if op.base is not None:
                reads |= 1 << op.base.index
            if op.index is not None:
                reads |= 1 << op.index.index
            if m != "lea":  # lea computes the address only
                if dst:
                    mem_write = True
                    mem_read |= role == "rw"
                else:
                    mem_read = True
        elif kind is Imm and control != "none":
            target = op.value
        dst = False

    fx = Effects(_regset(reads), _regset(writes), mem_read, mem_write,
                 flags_read, flags_def, flags_undef, count_mask,
                 control, cc, target)
    return fx if target is not None else _RECORDS.setdefault(fx, fx)


def effects_of(ins: Instruction) -> Effects:
    """The record for ``ins``, computed on first request and kept on the
    (immutable) instruction."""
    fx = ins._effects
    if fx is None:
        fx = _analyze(ins)
        object.__setattr__(ins, "_effects", fx)  # frozen, and not its value
    return fx  # type: ignore[return-value]
