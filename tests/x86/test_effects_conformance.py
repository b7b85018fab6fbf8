"""Conformance by observation: ``repro.x86.effects`` against the simulator.

Every (mnemonic x operand shape) the encoder encodes and
``cpu.semantics.bind`` binds is run on seeded random states, and the record
is held to what the simulator is *seen* to do:

1. **writes** — no register, flag or memory byte outside the declared
   writes changes;
2. **reads** — re-randomising every register, flag and memory byte the
   record says is *not* read leaves every declared output identical.

The simulator never consults the record for any of this (it reads only the
load/store counts and the control class), so it is a second opinion.  An
ISA-undefined flag cannot be observed — the simulator has to do *something*
with it — so it is exempt from (2), and a hand-copied SDM table checks it
is not declared untouched.  Control transfers and the stack instructions
get hand-written rows (their memory windows are implicit).  Five mutants of
the record, one per bug class this harness exists for, must each fail.

:func:`forms` is the enumerator ROADMAP 1(a)'s value table starts from.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Callable, Iterator

import pytest

from repro.cpu.semantics import _BINDERS, bind, execute
from repro.cpu.state import CPUState
from repro.errors import ReproError
from repro.mem.memory import Memory
from repro.x86 import isa
from repro.x86.decoder import decode_one
from repro.x86.effects import Effects, effects_of
from repro.x86.encoder import encode
from repro.x86.instr import Imm, Instruction, Mem, Reg, gp, make, xmm
from repro.x86.registers import R9, RAX, RBP, RBX, RCX, RDI, RDX, RSI, RSP

_SHIFTS = ("shl", "shr", "sar", "rol", "ror")
Record = Callable[[Instruction], Effects]
Window = tuple[int, int]  # (address, size)

CODE, DATA, STACK, REGION = 0x400000, 0x10000, 0x20000, 0x100
FLAGS = "oszapc"

# -- the form enumerator -----------------------------------------------------

#: first operands: rbx at every width, bh, an SSE register
_DSTS = [gp(RBX, 1), gp(RBX, 1, high8=True), gp(RBX, 2), gp(RBX, 4),
         gp(RBX, 8), xmm(1)]
#: later operands: rsi at every width, dh, cl (the shift count), xmm
_SRCS = [gp(RSI, 1), gp(RDX, 1, high8=True), gp(RSI, 2), gp(RSI, 4),
         gp(RSI, 8), gp(RCX, 1), xmm(2)]
#: m8..m128 at [rdi+16] (16-byte aligned), and one indexed form
_MEMS = [Mem(size, base=gp(RDI), disp=16) for size in (1, 2, 4, 8, 16)] \
    + [Mem(8, base=gp(RDI), index=gp(R9), scale=8, disp=16)]
#: 0, 1, small, large (imm32), and an imm64 for ``mov r64, imm``
_IMMS = [Imm(0), Imm(1), Imm(5), Imm(0x12345678), Imm(0x1122334455667788)]

_HAND_WRITTEN = {"push", "pop", "leave", "call", "ret", "jmp"} \
    | {"j" + cc for cc in isa.CC_NAMES}


def _shapes() -> Iterator[tuple]:
    yield ()
    for a in (*_DSTS, *_MEMS):
        yield (a,)
        for b in (*_SRCS, *_MEMS, *_IMMS):
            yield (a, b)
    for a in _DSTS:
        for b in (*_SRCS, *_MEMS):
            for c in _IMMS:
                yield (a, b, c)


def _mnemonics() -> list[str]:
    """Every bound mnemonic under its canonical name (``jz`` is ``je``)."""
    names = set()
    for m in _BINDERS:
        cc = isa.cc_of(m)
        if cc is not None:
            m = next(p for p in ("cmov", "set", "j") if m.startswith(p)) + cc
        names.add(m)
    return sorted(names)


def _placed(ins: Instruction) -> Instruction | None:
    """``ins`` as the decoder hands it to everyone, or None if the encoder
    refuses the shape or the simulator does not bind it."""
    try:
        raw = encode(ins, CODE)
    except Exception:  # an arity or operand kind its handler never expected
        return None
    try:
        placed = decode_one(raw, 0, CODE)
        bind(placed)
    except ReproError:
        return None
    return placed


@functools.cache
def forms() -> tuple[Instruction, ...]:
    """Every encodable-and-bindable (mnemonic x operand shape), decoded."""
    seen: dict[tuple, Instruction] = {}
    shapes = list(_shapes())
    for m in _mnemonics():
        if m in _HAND_WRITTEN:
            continue
        for shape in shapes:
            placed = _placed(Instruction(m, shape))
            if placed is not None:
                seen.setdefault((placed.mnemonic, placed.operands), placed)
    return tuple(seen.values())


# -- states ----------------------------------------------------------------------


@dataclasses.dataclass
class Machine:
    st: CPUState
    data: bytes
    stack: bytes

    def memory(self) -> Memory:
        mem = Memory()
        mem.map(DATA, REGION, self.data)
        mem.map(STACK, REGION, self.stack)
        return mem


def _copy_state(st: CPUState) -> CPUState:
    new = CPUState()
    new.gpr, new.xmm = list(st.gpr), list(st.xmm)
    for f in FLAGS:
        new.set_flag(f, st.flag(f))
    return new


def _random_machine(rng: random.Random, ins: Instruction,
                    count: int | None) -> Machine:
    st = CPUState()
    st.gpr = [rng.getrandbits(64) for _ in range(16)]
    st.xmm = [rng.getrandbits(128) for _ in range(16)]
    for f in FLAGS:
        st.set_flag(f, rng.random() < 0.5)
    st.gpr[RDI], st.gpr[R9] = DATA + 0x40, 2
    st.gpr[RSP], st.gpr[RBP] = STACK + 0x80, STACK + 0xA0
    if count is not None:
        st.gpr[RCX] = (st.gpr[RCX] & ~0xFF) | count
    data = bytearray(rng.randbytes(REGION))
    if ins.mnemonic in ("div", "idiv"):
        # a small non-negative dividend over a non-zero divisor cannot fault
        bits = 8 * ins.operands[0].size
        low = (1 << bits) - 1 if bits > 8 else 0xFFFF
        st.gpr[RAX] = (st.gpr[RAX] & ~low) | rng.getrandbits(bits - 2)
        st.gpr[RDX] &= ~low
        st.gpr[RBX] |= 0x101  # bl and bh
        for window in _explicit_windows(ins, st):
            data[window[0] - DATA] |= 1
    return Machine(st, bytes(data), rng.randbytes(REGION))


def _explicit_windows(ins: Instruction, st: CPUState) -> list[Window]:
    out = []
    for op in ins.operands:
        if isinstance(op, Mem):
            ea = op.disp + (st.gpr[op.base.index] if op.base else 0) \
                + (st.gpr[op.index.index] * op.scale if op.index else 0)
            out.append((ea, op.size))
    return out


def _perturbed(rng: random.Random, m: Machine, fx: Effects,
               kept: list[Window]) -> Machine:
    """``m`` with everything the record says is not read re-randomised."""
    st = _copy_state(m.st)
    for i in range(16):
        if ("gp", i) not in fx.reads:
            st.gpr[i] = rng.getrandbits(64)
        if ("xmm", i) not in fx.reads:
            st.xmm[i] = rng.getrandbits(128)
    for f in FLAGS:
        if f not in fx.flags_read:
            st.set_flag(f, rng.random() < 0.5)
    regions = {DATA: bytearray(rng.randbytes(REGION)),
               STACK: bytearray(rng.randbytes(REGION))}
    for addr, size in kept:
        base = addr & ~(REGION - 1)
        old = m.data if base == DATA else m.stack
        regions[base][addr - base:addr - base + size] = \
            old[addr - base:addr - base + size]
    return Machine(st, bytes(regions[DATA]), bytes(regions[STACK]))


# -- the two properties ----------------------------------------------------------


@dataclasses.dataclass
class Row:
    """One instruction and where its memory accesses land."""

    ins: Instruction
    reads: Callable[[CPUState], list[Window]] | None = None
    writes: Callable[[CPUState], list[Window]] | None = None


def _windows(row: Row, fx: Effects, st: CPUState) -> tuple[list, list]:
    explicit = _explicit_windows(row.ins, st)
    reads = row.reads(st) if row.reads else (explicit if fx.mem_read else [])
    writes = row.writes(st) if row.writes \
        else (explicit if fx.mem_write else [])
    return reads, writes


def _run(ins: Instruction, m: Machine) -> tuple[CPUState, bytes, bytes]:
    st, mem = _copy_state(m.st), m.memory()
    execute(ins, st, mem)
    return st, mem.read(DATA, REGION), mem.read(STACK, REGION)


def _outside(before: bytes, after: bytes, base: int,
             windows: list[Window]) -> bool:
    """Did a byte outside ``windows`` change?"""
    allowed = {a - base + i for a, size in windows for i in range(size)}
    return any(x != y and i not in allowed
               for i, (x, y) in enumerate(zip(before, after)))


def _inside(a: bytes, b: bytes, base: int, windows: list[Window]) -> bool:
    """Do ``a`` and ``b`` agree on every byte of ``windows`` in ``base``?"""
    return all(a[addr - base:addr - base + size]
               == b[addr - base:addr - base + size]
               for addr, size in windows
               if addr & ~(REGION - 1) == base)


def _flags_apply(fx: Effects, st: CPUState) -> bool:
    return not fx.count_mask or bool(st.gpr[RCX] & fx.count_mask)


def _check_writes(fx: Effects, m: Machine, after, writes) -> str | None:
    st, data, stack = after
    for i in range(16):
        if st.gpr[i] != m.st.gpr[i] and ("gp", i) not in fx.writes:
            return f"gp{i} changed, not a declared write"
        if st.xmm[i] != m.st.xmm[i] and ("xmm", i) not in fx.writes:
            return f"xmm{i} changed, not a declared write"
    may_change = fx.flags_def + fx.flags_undef \
        if _flags_apply(fx, m.st) else ""
    for f in FLAGS:
        if st.flag(f) != m.st.flag(f) and f not in may_change:
            return f"flag {f} changed, declared untouched"
    if _outside(m.data, data, DATA, writes) \
            or _outside(m.stack, stack, STACK, writes):
        return "memory changed outside the declared write"
    return None


def check(row: Row, record: Record, seed: int = 1) -> str | None:
    """The first disagreement between ``record`` and the simulator on
    ``row``, or None."""
    ins = row.ins
    fx = record(ins)
    rng = random.Random(f"{seed}:{ins!r}")
    # a count in cl: masked 0, 1, >1, and 0 and 1 again with high bits set
    by_cl = ins.mnemonic in _SHIFTS and isinstance(ins.operands[1], Reg)
    for count in (0, 1, 5, 0x40, 0x21) if by_cl else (None,) * 3:
        m = _random_machine(rng, ins, count)
        reads, writes = _windows(row, fx, m.st)
        a = _run(ins, m)
        problem = _check_writes(fx, m, a, writes)
        if problem:
            return f"{ins!r}: {problem}"
        p = _perturbed(rng, m, fx, reads)
        try:
            b = _run(ins, p)
        except ReproError as exc:
            return f"{ins!r}: faults once what is 'not read' moves: {exc}"
        problem = _check_writes(fx, p, b, writes)
        if problem:
            return f"{ins!r}: {problem} (perturbed)"
        for kind, i in fx.writes:
            regs_a, regs_b = (a[0].gpr, b[0].gpr) if kind == "gp" \
                else (a[0].xmm, b[0].xmm)
            if regs_a[i] != regs_b[i]:
                return f"{ins!r}: {kind}{i} depends on something not read"
        if _flags_apply(fx, m.st):
            for f in fx.flags_def:
                if a[0].flag(f) != b[0].flag(f):
                    return f"{ins!r}: flag {f} depends on something not read"
        if a[0].rip != b[0].rip:
            return f"{ins!r}: next rip depends on something not read"
        if not (_inside(a[1], b[1], DATA, writes)
                and _inside(a[2], b[2], STACK, writes)):
            return f"{ins!r}: stored bytes depend on something not read"
    return None


# -- what the simulator cannot show: SDM-undefined flags ---------------------

#: mnemonic -> flags the SDM leaves undefined (shift/rotate: by count)
_SDM_UNDEFINED = {
    "div": "oszapc", "idiv": "oszapc", "mul": "szap", "imul": "szap",
    "and": "a", "or": "a", "xor": "a", "test": "a",
}


def _sdm_undefined(ins: Instruction) -> str:
    m = ins.mnemonic
    if m in _SHIFTS:
        count = ins.operands[1]
        n = count.value & (63 if ins.operands[0].size == 8 else 31) \
            if isinstance(count, Imm) else 2  # cl: may be > 1
        aux = "a" if m.startswith("s") else ""
        return "" if n == 0 else aux if n == 1 else aux + "o"
    return _SDM_UNDEFINED.get(m, "")


def check_undefined(ins: Instruction, record: Record) -> str | None:
    fx = record(ins)
    untouched = set(_sdm_undefined(ins)) - set(fx.flags_def + fx.flags_undef)
    if untouched:
        return f"{ins!r}: SDM-undefined {sorted(untouched)} declared untouched"
    return None


# -- hand-written rows: control transfers and the stack --------------------------

_TARGET = CODE + 0x40
_M64 = Mem(8, base=gp(RDI), disp=16)


def _at(st: CPUState, reg: int, off: int = 0) -> list[Window]:
    return [(st.gpr[reg] + off, 8)]


def _hand_rows() -> list[tuple[Row, str, str | None, int | None]]:
    """``(row, control class, condition code, direct target)``"""
    def row(ins, control="none", cc=None, target=None, **windows):
        # push/pop m64 bind but have no encoding here: placed by hand
        placed = _placed(ins) or dataclasses.replace(ins, addr=CODE, length=3)
        return Row(placed, **windows), control, cc, target

    push = dict(writes=lambda st: _at(st, RSP, -8))
    pop = dict(reads=lambda st: _at(st, RSP))
    m64 = lambda st: _at(st, RDI, _M64.disp)  # noqa: E731
    rows = [
        row(make("push", gp(RBX)), **push),
        row(make("push", Imm(5)), **push),
        row(make("push", _M64), **push, reads=m64),
        row(make("pop", gp(RBX)), **pop),
        row(make("pop", _M64), **pop, writes=m64),
        row(make("leave"), reads=lambda st: _at(st, RBP)),
        row(make("call", Imm(_TARGET)), "call", None, _TARGET, **push),
        row(make("ret"), "ret", **pop),
        row(make("jmp", Imm(_TARGET)), "jmp", None, _TARGET),
    ]
    rows += [row(make("j" + cc, Imm(_TARGET)), "jcc", cc, _TARGET)
             for cc in isa.CC_NAMES]
    return rows


# -- tests -------------------------------------------------------------------------


def test_record_agrees_with_the_simulator_on_every_form():
    all_forms = forms()
    mnemonics = {ins.mnemonic for ins in all_forms}
    # the enumerator must not quietly shrink
    assert len(all_forms) > 2000 and len(mnemonics) > 120, \
        (len(all_forms), len(mnemonics))
    problems = [p for ins in all_forms
                for p in (check(Row(ins), effects_of),
                          check_undefined(ins, effects_of)) if p]
    assert not problems, (
        f"{len(problems)} disagreements over {len(all_forms)} forms / "
        f"{len(mnemonics)} mnemonics:\n" + "\n".join(problems[:40]))


@pytest.mark.parametrize("row,control,cc,target", _hand_rows(),
                         ids=lambda v: repr(v.ins) if isinstance(v, Row)
                         else None)
def test_control_and_stack_rows(row, control, cc, target):
    fx = effects_of(row.ins)
    assert (fx.control, fx.cc, fx.target) == (control, cc, target)
    assert check(row, effects_of) is None


def _mutant(applies: Callable[[Instruction], bool], **changes) -> Record:
    def record(ins: Instruction) -> Effects:
        fx = effects_of(ins)
        if not applies(ins):
            return fx
        return fx._replace(
            **{k: v(fx) if callable(v) else v for k, v in changes.items()})
    return record


def _narrow_mov(ins: Instruction) -> bool:
    dst = ins.operands[0] if ins.operands else None
    return ins.mnemonic == "mov" and isinstance(dst, Reg) and dst.size < 4


#: the five bug classes of ISSUE 21, each as the record that had the bug
MUTANTS = {
    "narrow mov destination not read": _mutant(
        _narrow_mov, reads=lambda fx: fx.reads - fx.writes),
    "shift flags unconditional": _mutant(
        lambda ins: ins.mnemonic == "shl", count_mask=0),
    "ucomisd defines only zpc": _mutant(
        lambda ins: ins.mnemonic == "ucomisd", flags_def="zpc"),
    "mul r/m8 writes rdx": _mutant(
        lambda ins: ins.mnemonic == "mul" and ins.operands[0].size == 1,
        writes=lambda fx: fx.writes | {("gp", RDX)}),
    "idiv preserves flags": _mutant(
        lambda ins: ins.mnemonic == "idiv", flags_undef=""),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_record_is_caught(name):
    record = MUTANTS[name]
    caught = [p for ins in forms()
              if record(ins) != effects_of(ins)
              for p in (check(Row(ins), record),
                        check_undefined(ins, record)) if p]
    assert caught, f"mutant survived: {name}"
