"""Architectural semantics: bind one decoded instruction to a closure.

``bind(ins)`` resolves everything that is static about an instruction —
mnemonic, operand kinds, register indices, widths, masks, the shape of the
effective address, branch targets — once, and returns ``op(st, mem)``: a
closure that applies the instruction to a :class:`~repro.cpu.state.CPUState`
and a :class:`~repro.mem.memory.Memory`.  It returns the next ``rip`` when
the instruction transfers control (a conditional branch always does: target
or fall-through) and ``None`` otherwise.  The block engine of
:mod:`repro.cpu.simulator` binds each instruction of a basic block once and
runs the closures; :func:`execute` is the one-instruction entry (bind and
call) that DBrew's emulator uses.  There is one definition of x86 semantics:
the table of binders below, one binder per mnemonic family.  The ALU
binders (``add``/``sub``/``and``/``or``/``xor``/``cmp``/``test``,
``inc``/``dec``, two- and three-operand ``imul``) can also bind a variant
that sets no flags, for the block engine to use where nothing reads them;
it is the same value function with a flag setter that sets nothing (the
register forms cut the value to width in place).
:func:`execute` always sets every flag.

Two events that the cost model prices per dynamic instance are counted on
the state: ``st.taken`` (conditional branches taken) and ``st.unaligned16``
(accesses through a 16-byte memory operand at an address that is not a
multiple of 16).

Integer values are kept as unsigned Python ints masked to operand width.
What a division, a square root, a conversion or a rounding to binary32
returns is :mod:`repro.arith` — the same functions the IR interpreter and
the constant folders use — and follows the SDM: ``idiv`` truncates exactly,
``div*``/``sqrt*`` are IEEE, ``min*``/``max*`` return the source operand
unless the destination compares strictly below/above it.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable

from repro.arith import (
    bits_to_f32, bits_to_f64, f32_to_bits, f64_to_bits, fdiv, float_to_sint,
    fsqrt, to_signed, trunc_div,
)
from repro.errors import SimulatorError
from repro.mem.memory import Memory
from repro.x86 import isa
from repro.x86.effects import effects_of
from repro.x86.instr import Imm, Instruction, Mem, Operand, Reg
from repro.cpu.state import CPUState, MASK32, MASK64, MASK128

_F64 = struct.Struct("<d")

#: a bound instruction
Op = Callable[[CPUState, Memory], "int | None"]
_Read = Callable[[CPUState, Memory], int]
_Write = Callable[[CPUState, Memory, int], None]


def _mask(size: int) -> int:
    return (1 << (size * 8)) - 1


def _unimplemented(ins: Instruction) -> SimulatorError:
    return SimulatorError(f"unimplemented instruction {ins!r}")


# -- operand accessors -----------------------------------------------------------


def _ea(m: Mem) -> Callable[[list[int]], int]:
    """``ea(gpr)``: the effective address of a memory operand (mod 2^64)."""
    disp = m.disp
    if m.riprel or m.is_absolute:
        addr = disp & MASK64
        return lambda g: addr
    if m.index is None:
        b = m.base.index  # type: ignore[union-attr]
        return lambda g: (g[b] + disp) & MASK64
    i, scale = m.index.index, m.scale
    if m.base is None:
        return lambda g: (g[i] * scale + disp) & MASK64
    b = m.base.index
    return lambda g: (g[b] + g[i] * scale + disp) & MASK64


def _memop(ins: Instruction) -> Mem | None:
    return next((o for o in ins.operands if isinstance(o, Mem)), None)


def _opsize(ins: Instruction) -> int:
    for op in ins.operands:
        if isinstance(op, Reg) and op.kind == "gp":
            return op.size
    mem = _memop(ins)
    return mem.size if mem is not None else 8


# The accessors below form the address inline — absolute or RIP-relative,
# base + disp, base + index*scale + disp — so a memory access is one closure
# and one ``Memory`` call; _load and _store, which bind a whole instruction,
# inline the last two.  index*scale + disp and the 16-byte operands (which
# count ``st.unaligned16``) go through _ea.


def _mem_reader(m: Mem, width: int) -> _Read:
    disp = m.disp
    if m.size == 16 or m.base is None and m.index is not None:
        ea, wide = _ea(m), m.size == 16

        def read_ea(st: CPUState, mem: Memory) -> int:
            addr = ea(st.gpr)
            if wide and addr & 15:
                st.unaligned16 += 1
            return mem.read_uint(addr, width)
        return read_ea
    if m.base is None:
        addr = disp & MASK64
        return lambda st, mem: mem.read_uint(addr, width)
    b = m.base.index
    if m.index is None:
        return lambda st, mem: mem.read_uint((st.gpr[b] + disp) & MASK64,
                                             width)
    i, scale = m.index.index, m.scale

    def read_bis(st: CPUState, mem: Memory) -> int:
        g = st.gpr
        return mem.read_uint((g[b] + g[i] * scale + disp) & MASK64, width)
    return read_bis


def _mem_writer(m: Mem, width: int) -> _Write:
    disp = m.disp
    if m.size == 16 or m.base is None and m.index is not None:
        ea, wide = _ea(m), m.size == 16

        def write_ea(st: CPUState, mem: Memory, v: int) -> None:
            addr = ea(st.gpr)
            if wide and addr & 15:
                st.unaligned16 += 1
            mem.write_uint(addr, v, width)
        return write_ea
    if m.base is None:
        addr = disp & MASK64
        return lambda st, mem, v: mem.write_uint(addr, v, width)
    b = m.base.index
    if m.index is None:
        return lambda st, mem, v: mem.write_uint(
            (st.gpr[b] + disp) & MASK64, v, width)
    i, scale = m.index.index, m.scale

    def write_bis(st: CPUState, mem: Memory, v: int) -> None:
        g = st.gpr
        mem.write_uint((g[b] + g[i] * scale + disp) & MASK64, v, width)
    return write_bis


def _load(dst: Reg, m: Mem, width: int, sign: int = 0) -> Op:
    """Bind ``dst = [m]``: ``width`` bytes into an xmm register or a whole
    GPR view, zero-extended, or sign-extended when ``sign`` is their sign
    bit."""
    d, xmm, mask = dst.index, dst.kind == "xmm", _mask(dst.size)
    if m.size == 16 or m.base is None:
        rd = _mem_reader(m, width)

        def load(st: CPUState, mem: Memory) -> None:
            (st.xmm if xmm else st.gpr)[d] = ((rd(st, mem) ^ sign)
                                              - sign) & mask
        return load
    b, disp = m.base.index, m.disp
    if m.index is None:
        def load_bd(st: CPUState, mem: Memory) -> None:
            v = mem.read_uint((st.gpr[b] + disp) & MASK64, width)
            (st.xmm if xmm else st.gpr)[d] = ((v ^ sign) - sign) & mask
        return load_bd
    i, scale = m.index.index, m.scale

    def load_bis(st: CPUState, mem: Memory) -> None:
        g = st.gpr
        v = mem.read_uint((g[b] + g[i] * scale + disp) & MASK64, width)
        (st.xmm if xmm else g)[d] = ((v ^ sign) - sign) & mask
    return load_bis


def _store(m: Mem, src: Reg, width: int) -> Op:
    """Bind ``[m] = src``: the low ``width`` bytes of an xmm register or of
    a GPR (not ``ah``..``bh``)."""
    s, xmm = src.index, src.kind == "xmm"
    if m.size == 16 or m.base is None:
        wr = _mem_writer(m, width)
        return lambda st, mem: wr(st, mem, (st.xmm if xmm else st.gpr)[s])
    b, disp = m.base.index, m.disp
    if m.index is None:
        def store_bd(st: CPUState, mem: Memory) -> None:
            g = st.gpr
            mem.write_uint((g[b] + disp) & MASK64,
                           (st.xmm if xmm else g)[s], width)
        return store_bd
    i, scale = m.index.index, m.scale

    def store_bis(st: CPUState, mem: Memory) -> None:
        g = st.gpr
        mem.write_uint((g[b] + g[i] * scale + disp) & MASK64,
                       (st.xmm if xmm else g)[s], width)
    return store_bis


def _reader(op: Operand, size: int) -> _Read:
    """Integer-side read: a register facet, an immediate masked to ``size``
    bytes, or the memory operand at its own width."""
    if isinstance(op, Imm):
        value = op.value & _mask(size)
        return lambda st, mem: value
    if isinstance(op, Mem):
        return _mem_reader(op, op.size)
    i = op.index
    if op.kind == "xmm":
        mask = _mask(op.size)
        return lambda st, mem: st.xmm[i] & mask
    if op.high8:
        return lambda st, mem: (st.gpr[i] >> 8) & 0xFF
    if op.size == 8:
        return lambda st, mem: st.gpr[i]
    mask = _mask(op.size)
    return lambda st, mem: st.gpr[i] & mask


def _writer(op: Operand) -> _Write:
    """Integer-side write with the GPR facet rules (32-bit writes zero the
    upper half, narrower ones merge — Fig. 4a)."""
    if isinstance(op, Mem):
        return _mem_writer(op, op.size)
    assert isinstance(op, Reg)
    i = op.index
    if op.kind == "xmm":
        def write_xmm(st: CPUState, mem: Memory, v: int) -> None:
            st.xmm[i] = v & MASK128
        return write_xmm
    if op.high8:
        def write_high8(st: CPUState, mem: Memory, v: int) -> None:
            st.gpr[i] = (st.gpr[i] & ~0xFF00) | ((v & 0xFF) << 8)
        return write_high8
    if op.size >= 4:
        mask = _mask(op.size)

        def write_full(st: CPUState, mem: Memory, v: int) -> None:
            st.gpr[i] = v & mask
        return write_full
    mask = _mask(op.size)

    def write_merge(st: CPUState, mem: Memory, v: int) -> None:
        st.gpr[i] = (st.gpr[i] & ~mask) | (v & mask)
    return write_merge


def _xmm_reader(op: Operand, width: int) -> _Read:
    """SSE-side source: the low ``width`` bytes of an xmm register, a GPR
    facet, or ``width`` bytes at the memory operand."""
    if isinstance(op, Mem):
        return _mem_reader(op, width)
    assert isinstance(op, Reg)
    return _reader(op if op.kind == "gp" else op.with_size(width), width)


# -- flag computation ----------------------------------------------------------


#: PF of a result's low byte (set on even parity)
_PARITY = tuple(bin(i).count("1") % 2 == 0 for i in range(256))


def _szp(st: CPUState, res: int, bits: int) -> None:
    st.zf = res == 0
    st.sf = bool(res >> (bits - 1))
    st.pf = _PARITY[res & 0xFF]


def _flags_add(st: CPUState, a: int, b: int, res_full: int, bits: int) -> int:
    mask = (1 << bits) - 1
    res = res_full & mask
    st.cf = res_full > mask or res_full < 0
    sa, sb, sr = a >> (bits - 1), b >> (bits - 1), res >> (bits - 1)
    st.of = (sa == sb) and (sr != sa)
    st.af = ((a & 0xF) + (b & 0xF)) > 0xF
    st.zf = res == 0
    st.sf = bool(sr)
    st.pf = _PARITY[res & 0xFF]
    return res


def _flags_sub(st: CPUState, a: int, b: int, res_full: int, bits: int) -> int:
    mask = (1 << bits) - 1
    res = res_full & mask
    st.cf = a < b
    sa, sb, sr = a >> (bits - 1), b >> (bits - 1), res >> (bits - 1)
    st.of = (sa != sb) and (sr != sa)
    st.af = (a & 0xF) < (b & 0xF)
    st.zf = res == 0
    st.sf = bool(sr)
    st.pf = _PARITY[res & 0xFF]
    return res


def _flags_logic(st: CPUState, a: int, b: int, res: int, bits: int) -> int:
    st.cf = st.of = st.af = False
    _szp(st, res, bits)
    return res


def _no_flags(st: CPUState, a: int, b: int, res_full: int, bits: int) -> int:
    """The flag setter of a variant that sets none: the result alone."""
    return res_full & ((1 << bits) - 1)


#: canonical condition code -> predicate over the flags (anything with the
#: ``cf``/``zf``/``sf``/``of``/``pf`` attributes: DBrew evaluates these over
#: the flags it knows)
CONDITIONS: dict[str, Callable[[CPUState], bool]] = {
    "o": lambda st: st.of,
    "no": lambda st: not st.of,
    "b": lambda st: st.cf,
    "ae": lambda st: not st.cf,
    "e": lambda st: st.zf,
    "ne": lambda st: not st.zf,
    "be": lambda st: st.cf or st.zf,
    "a": lambda st: not (st.cf or st.zf),
    "s": lambda st: st.sf,
    "ns": lambda st: not st.sf,
    "p": lambda st: st.pf,
    "np": lambda st: not st.pf,
    "l": lambda st: st.sf != st.of,
    "ge": lambda st: st.sf == st.of,
    "le": lambda st: st.zf or (st.sf != st.of),
    "g": lambda st: not st.zf and (st.sf == st.of),
}


def _condition(ins: Instruction) -> Callable[[CPUState], bool]:
    cc = isa.cc_of(ins.mnemonic)
    assert cc is not None
    return CONDITIONS[cc]


# -- the binder table -------------------------------------------------------------

_BINDERS: dict[str, Callable[..., Op]] = {}
#: the mnemonics :func:`bind` binds (it raises on any other), a live view
BINDABLE = _BINDERS.keys()
#: mnemonics whose binder takes ``set_flags`` as a second argument
_QUIET: set[str] = set()
#: ISA-undefined flags a binder overwrites anyway, by mnemonic: the logic ops
#: clear AF.  With a record's ``flags_def`` these are the flags a
#: flag-setting binding always overwrites; every other undefined flag is
#: left as it was (mul, imul and div leave AF, a shift by more than one
#: leaves OF and AF)
UNDEFINED_SET: dict[str, str] = dict.fromkeys(("and", "or", "xor", "test"),
                                              "a")


def _binds(*mnemonics: str, quiet: bool = False):
    def register(binder: Callable[..., Op]):
        for m in mnemonics:
            _BINDERS[m] = binder
        if quiet:
            _QUIET.update(mnemonics)
        return binder
    return register


def _cc_family(prefix: str) -> tuple[str, ...]:
    return tuple(prefix + cc for cc in (*isa.CC_NAMES, *isa.CC_ALIASES))


def bind(ins: Instruction, set_flags: bool = True) -> Op:
    """Resolve ``ins`` into ``op(st, mem) -> next rip | None``.

    ``set_flags=False`` asks for a variant that leaves the six status flags
    as they are, where the binder has one (the block engine asks when no
    later instruction can read what this one would write).  It computes the
    same value from the same function, memory reads included, so a fault
    still faults.
    """
    binder = _BINDERS.get(ins.mnemonic)
    if binder is None:
        raise _unimplemented(ins)
    if set_flags or ins.mnemonic not in _QUIET:
        return binder(ins)
    return binder(ins, False)


def execute(ins: Instruction, st: CPUState, mem: Memory) -> None:
    """Execute one instruction and advance ``st.rip`` past it (or to the
    target of a control transfer)."""
    target = bind(ins)(st, mem)
    st.rip = ins.end if target is None else target


# ---- control flow ----


def _target(ins: Instruction) -> int:
    target = effects_of(ins).target
    if target is None:
        raise _unimplemented(ins)  # indirect transfers are out of scope
    return target


@_binds("jmp")
def _bind_jmp(ins: Instruction) -> Op:
    target = _target(ins)
    return lambda st, mem: target


@_binds(*_cc_family("j"))
def _bind_jcc(ins: Instruction) -> Op:
    cond, target, fall = _condition(ins), _target(ins), ins.end

    def jcc(st: CPUState, mem: Memory) -> int:
        if cond(st):
            st.taken += 1
            return target
        return fall
    return jcc


@_binds("call")
def _bind_call(ins: Instruction) -> Op:
    target, ret_addr = _target(ins), ins.end

    def call(st: CPUState, mem: Memory) -> int:
        g = st.gpr
        g[4] = sp = (g[4] - 8) & MASK64
        mem.write_uint(sp, ret_addr, 8)
        return target
    return call


@_binds("ret")
def _bind_ret(ins: Instruction) -> Op:
    def ret(st: CPUState, mem: Memory) -> int:
        g = st.gpr
        target = mem.read_uint(g[4], 8)
        g[4] = (g[4] + 8) & MASK64
        return target
    return ret


# ---- integer data movement ----


def _full_gp(op: Operand) -> int | None:
    """Register index when ``op`` is a whole 64- or 32-bit GPR view — the
    hot operand shape: reads are one mask, writes replace the register."""
    if isinstance(op, Reg) and op.kind == "gp" and op.size >= 4:
        return op.index
    return None


def _assign(dst: Operand, value: _Read) -> Op:
    """``dst = value(st, mem)`` under the destination's facet rules."""
    d = _full_gp(dst)
    if d is None:
        wr = _writer(dst)
        return lambda st, mem: wr(st, mem, value(st, mem))
    mask = _mask(dst.size)  # type: ignore[union-attr]

    def assign(st: CPUState, mem: Memory) -> None:
        st.gpr[d] = value(st, mem) & mask
    return assign


@_binds("mov")
def _bind_mov(ins: Instruction) -> Op:
    dst, src = ins.operands
    if any(isinstance(o, Reg) and o.kind == "xmm" for o in ins.operands):
        raise _unimplemented(ins)
    d, s = _full_gp(dst), _full_gp(src)
    if d is not None and isinstance(src, Mem):
        return _load(dst, src, src.size)  # type: ignore[arg-type]
    if isinstance(dst, Mem) and isinstance(src, Reg) and not src.high8:
        return _store(dst, src, dst.size)
    if d is not None and isinstance(src, Imm):
        value = src.value & _mask(dst.size)  # type: ignore[union-attr]

        def mov_ri(st: CPUState, mem: Memory) -> None:
            st.gpr[d] = value
        return mov_ri
    if d is None or s is None:
        return _assign(dst, _reader(src, _opsize(ins)))
    mask = _mask(min(dst.size, src.size))  # type: ignore[union-attr]

    def mov_rr(st: CPUState, mem: Memory) -> None:
        g = st.gpr
        g[d] = g[s] & mask
    return mov_rr


@_binds("movzx", "movsx", "movsxd")
def _bind_movx(ins: Instruction) -> Op:
    dst, src = ins.operands
    ssize = src.size if isinstance(src, (Reg, Mem)) else 4
    sign = 0 if ins.mnemonic == "movzx" else 1 << (ssize * 8 - 1)
    d, dmask = _full_gp(dst), _mask(dst.size)  # type: ignore[union-attr]
    if d is not None and isinstance(src, Mem):
        return _load(dst, src, ssize, sign)  # type: ignore[arg-type]
    if d is not None and isinstance(src, Reg) and not src.high8:
        s, smask = src.index, _mask(ssize)

        def movx_rr(st: CPUState, mem: Memory) -> None:
            g = st.gpr
            g[d] = (((g[s] & smask) ^ sign) - sign) & dmask
        return movx_rr
    rd = _reader(src, ssize)
    return _assign(dst, lambda st, mem: ((rd(st, mem) ^ sign) - sign) & dmask)


@_binds("lea")
def _bind_lea(ins: Instruction) -> Op:
    dst, src = ins.operands
    assert isinstance(src, Mem) and isinstance(dst, Reg)
    d, mask, disp = _full_gp(dst), _mask(dst.size), src.disp
    if d is None or src.base is None and src.index is None:
        ea = _ea(src)
        return _assign(dst, lambda st, mem: ea(st.gpr) & mask)
    if src.index is None:
        b = src.base.index  # type: ignore[union-attr]

        def lea_bd(st: CPUState, mem: Memory) -> None:
            g = st.gpr
            g[d] = (g[b] + disp) & mask
        return lea_bd
    i, scale = src.index.index, src.scale
    if src.base is None:
        def lea_is(st: CPUState, mem: Memory) -> None:
            g = st.gpr
            g[d] = (g[i] * scale + disp) & mask
        return lea_is
    b = src.base.index

    def lea_bis(st: CPUState, mem: Memory) -> None:
        g = st.gpr
        g[d] = (g[b] + g[i] * scale + disp) & mask
    return lea_bis


@_binds("push")
def _bind_push(ins: Instruction) -> Op:
    (src,) = ins.operands
    if isinstance(src, Imm):
        value = to_signed(src.value & MASK64,
                          src.size * 8 if src.size else 32) & MASK64
        rd: _Read = lambda st, mem: value
    else:
        rd = _reader(src, 8)

    def push(st: CPUState, mem: Memory) -> None:
        v = rd(st, mem)
        g = st.gpr
        g[4] = sp = (g[4] - 8) & MASK64
        mem.write_uint(sp, v, 8)
    return push


@_binds("pop")
def _bind_pop(ins: Instruction) -> Op:
    (dst,) = ins.operands
    if isinstance(dst, Mem):
        # the destination address is formed before rsp moves
        ea, width = _ea(dst), dst.size

        def pop_mem(st: CPUState, mem: Memory) -> None:
            g = st.gpr
            addr = ea(g)
            v = mem.read_uint(g[4], 8)
            g[4] = (g[4] + 8) & MASK64
            mem.write_uint(addr, v, width)
        return pop_mem
    wr = _writer(dst)

    def pop(st: CPUState, mem: Memory) -> None:
        g = st.gpr
        v = mem.read_uint(g[4], 8)
        g[4] = (g[4] + 8) & MASK64
        wr(st, mem, v)
    return pop


@_binds("leave")
def _bind_leave(ins: Instruction) -> Op:
    def leave(st: CPUState, mem: Memory) -> None:
        g = st.gpr
        g[4] = g[5]
        g[5] = mem.read_uint(g[4], 8)
        g[4] = (g[4] + 8) & MASK64
    return leave


@_binds("nop")
def _bind_nop(ins: Instruction) -> Op:
    return lambda st, mem: None


# ---- integer ALU ----


# Two-operand ALU ops are ``(value, flags)``: ``value(a, b)`` is what the op
# computes, before it is cut to width, and ``flags(st, a, b, value, bits)``
# sets the six flags from the operands and that value and returns the
# result.  cmp and test are sub and and without the write-back.  adc and sbb
# take the carry in inside their flag setter, so they have no variant that
# sets no flags.


def _flags_adc(st: CPUState, a: int, b: int, res_full: int, bits: int) -> int:
    return _flags_add(st, a, b, res_full + st.cf, bits)


def _flags_sbb(st: CPUState, a: int, b: int, res_full: int, bits: int) -> int:
    b = (b + st.cf) & ((1 << bits) - 1)
    return _flags_sub(st, a, b, a - b, bits)


_ALU: dict[str, tuple[Callable[[int, int], int], Callable[..., int]]] = {
    "add": (operator.add, _flags_add), "adc": (operator.add, _flags_adc),
    "sub": (operator.sub, _flags_sub), "sbb": (operator.sub, _flags_sbb),
    "cmp": (operator.sub, _flags_sub),
    "and": (operator.and_, _flags_logic),
    "test": (operator.and_, _flags_logic),
    "or": (operator.or_, _flags_logic), "xor": (operator.xor, _flags_logic),
}


@_binds("adc", "sbb")
@_binds("add", "sub", "cmp", "and", "test", "or", "xor", quiet=True)
def _bind_alu(ins: Instruction, set_flags: bool = True) -> Op:
    dst, src = ins.operands
    m = ins.mnemonic
    value, flags = _ALU[m]
    if not set_flags:
        flags = _no_flags
    write = m not in ("cmp", "test")
    size = _opsize(ins)
    bits = size * 8
    d = _full_gp(dst)
    if d is not None and write and not isinstance(src, Mem):
        # register destination, register or immediate source
        mask = _mask(dst.size)  # type: ignore[union-attr]
        s = _full_gp(src)
        if s is not None:
            smask = _mask(src.size)  # type: ignore[union-attr]
            if not set_flags:
                def quiet_rr(st: CPUState, mem: Memory) -> None:
                    g = st.gpr
                    g[d] = value(g[d], g[s]) & mask
                return quiet_rr

            def alu_rr(st: CPUState, mem: Memory) -> None:
                g = st.gpr
                a, b = g[d] & mask, g[s] & smask
                g[d] = flags(st, a, b, value(a, b), bits)
            return alu_rr
        if isinstance(src, Imm):
            imm = src.value & _mask(size)
            if not set_flags:
                def quiet_ri(st: CPUState, mem: Memory) -> None:
                    g = st.gpr
                    g[d] = value(g[d], imm) & mask
                return quiet_ri

            def alu_ri(st: CPUState, mem: Memory) -> None:
                g = st.gpr
                a = g[d] & mask
                g[d] = flags(st, a, imm, value(a, imm), bits)
            return alu_ri
    rd_a, rd_b = _reader(dst, size), _reader(src, size)
    if not write:
        def compare(st: CPUState, mem: Memory) -> None:
            a, b = rd_a(st, mem), rd_b(st, mem)
            flags(st, a, b, value(a, b), bits)
        return compare
    wr = _writer(dst)

    def alu(st: CPUState, mem: Memory) -> None:
        a, b = rd_a(st, mem), rd_b(st, mem)
        wr(st, mem, flags(st, a, b, value(a, b), bits))
    return alu


def _unary(ins: Instruction) -> tuple[_Read, _Write, int]:
    (dst,) = ins.operands
    size = _opsize(ins)
    return _reader(dst, size), _writer(dst), size * 8


@_binds("inc", "dec", quiet=True)
def _bind_incdec(ins: Instruction, set_flags: bool = True) -> Op:
    rd, wr, bits = _unary(ins)
    value, flags = _ALU["add" if ins.mnemonic == "inc" else "sub"]
    if not set_flags:
        mask = (1 << bits) - 1
        return lambda st, mem: wr(st, mem, value(rd(st, mem), 1) & mask)

    def incdec(st: CPUState, mem: Memory) -> None:
        a = rd(st, mem)
        cf = st.cf  # inc/dec preserve CF
        res = flags(st, a, 1, value(a, 1), bits)
        st.cf = cf
        wr(st, mem, res)
    return incdec


@_binds("neg")
def _bind_neg(ins: Instruction) -> Op:
    rd, wr, bits = _unary(ins)

    def neg(st: CPUState, mem: Memory) -> None:
        a = rd(st, mem)
        res = _flags_sub(st, 0, a, -a, bits)
        st.cf = a != 0
        wr(st, mem, res)
    return neg


@_binds("not")
def _bind_not(ins: Instruction) -> Op:
    rd, wr, bits = _unary(ins)
    mask = (1 << bits) - 1
    return lambda st, mem: wr(st, mem, ~rd(st, mem) & mask)


def _write_wide(st: CPUState, full: int, size: int) -> tuple[int, int]:
    """Store a double-width product in rdx:rax (ax for bytes); (lo, hi)."""
    mask = _mask(size)
    lo, hi = full & mask, (full >> (size * 8)) & mask
    if size == 1:
        st.write_gp(0, (hi << 8) | lo, 2)
    else:
        st.write_gp(0, lo, size)
        st.write_gp(2, hi, size)
    return lo, hi


def _signed_product(a: int, b: int, bits: int) -> int:
    return to_signed(a, bits) * to_signed(b, bits)


@_binds("imul", quiet=True)
def _bind_imul(ins: Instruction, set_flags: bool = True) -> Op:
    ops = ins.operands
    size = _opsize(ins)
    bits, mask = size * 8, _mask(size)
    if len(ops) == 1:  # the widening form always sets its flags
        rd = _reader(ops[0], size)

        def imul1(st: CPUState, mem: Memory) -> None:
            full = _signed_product(st.read_gp(0, size), rd(st, mem), bits)
            lo, _ = _write_wide(st, full, size)
            st.cf = st.of = full != to_signed(lo, bits)
        return imul1
    wr = _writer(ops[0])
    if len(ops) == 2:
        rd_a, rd_b = _reader(ops[0], size), _reader(ops[1], size)
    else:
        rd_a = _reader(ops[1], size)
        factor = to_signed(ops[2].value & MASK64, 64)  # type: ignore[union-attr]
        rd_b = lambda st, mem: factor  # noqa: E731
    if not set_flags:
        # the low half of a product is the same signed or unsigned
        d, s = _full_gp(ops[0]), _full_gp(ops[1])
        if len(ops) == 3 and d is not None and s is not None:
            def quiet_imul3(st: CPUState, mem: Memory) -> None:
                g = st.gpr
                g[d] = (g[s] * factor) & mask
            return quiet_imul3
        return lambda st, mem: wr(st, mem,
                                  (rd_a(st, mem) * rd_b(st, mem)) & mask)

    def imul(st: CPUState, mem: Memory) -> None:
        full = _signed_product(rd_a(st, mem), rd_b(st, mem), bits)
        res = full & mask
        st.cf = st.of = full != to_signed(res, bits)
        _szp(st, res, bits)
        wr(st, mem, res)
    return imul


@_binds("mul")
def _bind_mul(ins: Instruction) -> Op:
    size = _opsize(ins)
    rd = _reader(ins.operands[0], size)

    def mul(st: CPUState, mem: Memory) -> None:
        _, hi = _write_wide(st, st.read_gp(0, size) * rd(st, mem), size)
        st.cf = st.of = hi != 0
    return mul


@_binds("idiv", "div")
def _bind_div(ins: Instruction) -> Op:
    size = _opsize(ins)
    bits, mask = size * 8, _mask(size)
    rd = _reader(ins.operands[0], size)
    signed = ins.mnemonic == "idiv"
    # the largest quotient that fits: INT_MIN / -1 raises #DE
    high = (1 << (bits - 1)) - 1 if signed else mask

    def div(st: CPUState, mem: Memory) -> None:
        divisor = rd(st, mem)
        hi = st.read_gp(2, size) if size > 1 else st.read_gp(0, 2) >> 8
        dividend = (hi << bits) | st.read_gp(0, size)
        if signed:
            dividend = to_signed(dividend, bits * 2)
            divisor = to_signed(divisor, bits)
        if divisor == 0:
            raise SimulatorError("integer division by zero")
        if signed:
            quot = trunc_div(dividend, divisor)
            rem = dividend - quot * divisor
        else:
            quot, rem = divmod(dividend, divisor)
        if quot > high or quot < -(1 << (bits - 1)):
            raise SimulatorError("division overflow")
        if size > 1:
            st.write_gp(0, quot & mask, size)
            st.write_gp(2, rem & mask, size)
        else:
            st.write_gp(0, ((rem & 0xFF) << 8) | (quot & 0xFF), 2)
    return div


@_binds("cqo")
def _bind_cqo(ins: Instruction) -> Op:
    def cqo(st: CPUState, mem: Memory) -> None:
        st.gpr[2] = MASK64 if st.gpr[0] >> 63 else 0
    return cqo


@_binds("cdq")
def _bind_cdq(ins: Instruction) -> Op:
    def cdq(st: CPUState, mem: Memory) -> None:
        st.gpr[2] = MASK32 if (st.gpr[0] >> 31) & 1 else 0
    return cdq


@_binds("shl", "shr", "sar", "rol", "ror")
def _bind_shift(ins: Instruction) -> Op:
    dst, src = ins.operands
    size = dst.size  # type: ignore[union-attr]  # not _opsize: ``[m], cl``
    bits, mask = size * 8, _mask(size)
    rd, rd_count, wr = _reader(dst, size), _reader(src, 1), _writer(dst)
    count_mask = 63 if size == 8 else 31
    m = ins.mnemonic
    rotate = m in ("rol", "ror")

    def shift(st: CPUState, mem: Memory) -> None:
        a = rd(st, mem)
        count = rd_count(st, mem) & count_mask
        if count == 0:
            return
        if m == "shl":
            full = a << count
            res = full & mask
            st.cf = bool((full >> bits) & 1)
        elif m == "shr":
            res = a >> count
            st.cf = bool((a >> (count - 1)) & 1)
        elif m == "sar":
            sa = to_signed(a, bits)
            res = (sa >> count) & mask
            st.cf = bool((sa >> (count - 1)) & 1)
        elif m == "rol":
            count %= bits
            res = ((a << count) | (a >> (bits - count))) & mask
            st.cf = bool(res & 1)
        else:  # ror
            count %= bits
            res = ((a >> count) | (a << (bits - count))) & mask
            st.cf = bool(res >> (bits - 1))
        if not rotate:
            _szp(st, res, bits)
        if count == 1:  # for a rotate too: the sign bit moved
            st.of = (res >> (bits - 1)) != (a >> (bits - 1))
        wr(st, mem, res)
    return shift


@_binds(*_cc_family("cmov"))
def _bind_cmov(ins: Instruction) -> Op:
    dst, src = ins.operands
    cond = _condition(ins)
    rd, wr = _reader(src, _opsize(ins)), _writer(dst)
    # a 32-bit cmov zero-extends its destination even when not taken
    rd_dst = (_reader(dst, 4)
              if isinstance(dst, Reg) and dst.size == 4 else None)

    def cmov(st: CPUState, mem: Memory) -> None:
        if cond(st):
            wr(st, mem, rd(st, mem))
        elif rd_dst is not None:
            wr(st, mem, rd_dst(st, mem))
    return cmov


@_binds(*_cc_family("set"))
def _bind_setcc(ins: Instruction) -> Op:
    cond, wr = _condition(ins), _writer(ins.operands[0])
    return lambda st, mem: wr(st, mem, int(cond(st)))


# ---- SSE: moves ----


def _xmm_index(op: Operand, ins: Instruction) -> int:
    if not (isinstance(op, Reg) and op.kind == "xmm"):
        raise _unimplemented(ins)
    return op.index


@_binds("movsd", "movss")
def _bind_movs(ins: Instruction) -> Op:
    dst, src = ins.operands
    width = 8 if ins.mnemonic == "movsd" else 4
    if isinstance(dst, Mem):
        return _store(dst, src, width)  # type: ignore[arg-type]
    d = _xmm_index(dst, ins)
    if isinstance(src, Mem):
        return _load(dst, src, width)  # type: ignore[arg-type]  # zero-extends
    # reg-reg merges the low lane
    s, mask = _xmm_index(src, ins), _mask(width)
    keep = MASK128 ^ mask

    def merge(st: CPUState, mem: Memory) -> None:
        x = st.xmm
        x[d] = (x[d] & keep) | (x[s] & mask)
    return merge


@_binds("movapd", "movaps", "movupd", "movups")
def _bind_movp(ins: Instruction) -> Op:
    dst, src = ins.operands
    m = ins.mnemonic
    rd = _xmm_reader(src, 16)
    wr = _mem_writer(dst, 16) if isinstance(dst, Mem) else _writer(dst)
    memop = _memop(ins)
    if m in ("movupd", "movups") or memop is None:
        return lambda st, mem: wr(st, mem, rd(st, mem))
    ea = _ea(memop)

    def aligned(st: CPUState, mem: Memory) -> None:
        addr = ea(st.gpr)
        if addr % 16 != 0:
            raise SimulatorError(f"misaligned {m} access at {addr:#x}")
        wr(st, mem, rd(st, mem))
    return aligned


@_binds("movq", "movd")
def _bind_movq(ins: Instruction) -> Op:
    dst, src = ins.operands
    width = 8 if ins.mnemonic == "movq" else 4
    if isinstance(src, Reg) and src.kind == "xmm":
        rd = _xmm_reader(src, width)
    else:
        rd = _reader(src, width)
    if isinstance(dst, Reg) and dst.kind == "xmm":
        d = dst.index

        def to_xmm(st: CPUState, mem: Memory) -> None:
            st.xmm[d] = rd(st, mem)  # zero-extends (Fig. 4b note on movq)
        return to_xmm
    wr = _writer(dst)
    return lambda st, mem: wr(st, mem, rd(st, mem))


@_binds("movlpd", "movhpd")
def _bind_movlh(ins: Instruction) -> Op:
    dst, src = ins.operands
    shift = 0 if ins.mnemonic == "movlpd" else 64
    if isinstance(dst, Reg):
        d, rd = dst.index, _xmm_reader(src, 8)
        keep = MASK128 ^ (MASK64 << shift)

        def load(st: CPUState, mem: Memory) -> None:
            st.xmm[d] = (st.xmm[d] & keep) | (rd(st, mem) << shift)
        return load
    assert isinstance(dst, Mem)
    s, wr = _xmm_index(src, ins), _mem_writer(dst, 8)
    return lambda st, mem: wr(st, mem, st.xmm[s] >> shift)


# ---- SSE: 128-bit integer / logic ----


def _xmm_binary(ins: Instruction, fn: Callable[[int, int], int],
                width: int = 16) -> Op:
    """``xmm[dst] = fn(xmm[dst], src)`` over whole registers."""
    dst, src = ins.operands[:2]
    d = _xmm_index(dst, ins)
    if isinstance(src, Reg) and src.kind == "xmm":
        s, mask = src.index, _mask(width)

        def binary_rr(st: CPUState, mem: Memory) -> None:
            x = st.xmm
            x[d] = fn(x[d], x[s] & mask)
        return binary_rr
    rd = _xmm_reader(src, width)

    def binary(st: CPUState, mem: Memory) -> None:
        st.xmm[d] = fn(st.xmm[d], rd(st, mem))
    return binary


_XMM_LOGIC: dict[str, Callable[[int, int], int]] = {
    **dict.fromkeys(("pxor", "xorpd", "xorps"), lambda a, b: a ^ b),
    **dict.fromkeys(("pand", "andpd", "andps"), lambda a, b: a & b),
    **dict.fromkeys(("por", "orpd", "orps"), lambda a, b: a | b),
    "pandn": lambda a, b: (~a & MASK128) & b,
}


@_binds(*_XMM_LOGIC)
def _bind_xmm_logic(ins: Instruction) -> Op:
    return _xmm_binary(ins, _XMM_LOGIC[ins.mnemonic])


def _lanewise(lane_bits: int, fn: Callable[[int, int, int], int]
              ) -> Callable[[int, int], int]:
    mask = (1 << lane_bits) - 1

    def apply(a: int, b: int) -> int:
        out = 0
        for sh in range(0, 128, lane_bits):
            out |= fn((a >> sh) & mask, (b >> sh) & mask, mask) << sh
        return out
    return apply


def _pmuludq(a: int, b: int) -> int:
    lo = ((a & MASK32) * (b & MASK32)) & MASK64
    hi = (((a >> 64) & MASK32) * ((b >> 64) & MASK32)) & MASK64
    return lo | (hi << 64)


_LANE_BITS = {"q": 64, "d": 32, "w": 16, "b": 8}
_XMM_INT: dict[str, Callable[[int, int], int]] = {"pmuludq": _pmuludq}
for _name in ("paddq", "paddd", "paddw", "paddb"):
    _XMM_INT[_name] = _lanewise(_LANE_BITS[_name[-1]],
                                lambda x, y, mask: (x + y) & mask)
for _name in ("psubq", "psubd"):
    _XMM_INT[_name] = _lanewise(_LANE_BITS[_name[-1]],
                                lambda x, y, mask: (x - y) & mask)
for _name in ("pcmpeqd", "pcmpeqb"):
    _XMM_INT[_name] = _lanewise(_LANE_BITS[_name[-1]],
                                lambda x, y, mask: mask if x == y else 0)


@_binds(*_XMM_INT)
def _bind_xmm_int(ins: Instruction) -> Op:
    return _xmm_binary(ins, _XMM_INT[ins.mnemonic])


def _lanes(lo: int, hi: int) -> int:
    return (lo & MASK64) | ((hi & MASK64) << 64)


@_binds("unpcklpd", "unpckhpd")
def _bind_unpck(ins: Instruction) -> Op:
    shift = 0 if ins.mnemonic == "unpcklpd" else 64
    return _xmm_binary(ins, lambda a, b: _lanes(a >> shift, b >> shift))


@_binds("shufpd")
def _bind_shufpd(ins: Instruction) -> Op:
    sel = ins.operands[2]
    assert isinstance(sel, Imm)
    lo_shift, hi_shift = 64 * (sel.value & 1), 64 * ((sel.value >> 1) & 1)
    return _xmm_binary(ins,
                       lambda a, b: _lanes(a >> lo_shift, b >> hi_shift))


@_binds("pshufd")
def _bind_pshufd(ins: Instruction) -> Op:
    sel = ins.operands[2]
    assert isinstance(sel, Imm)
    picks = tuple(32 * ((sel.value >> (2 * i)) & 3) for i in range(4))

    def shuffle(_a: int, b: int) -> int:
        out = 0
        for i, sh in enumerate(picks):
            out |= ((b >> sh) & MASK32) << (32 * i)
        return out
    return _xmm_binary(ins, shuffle)


# ---- SSE: floating point ----


#: arithmetic core by mnemonic stem, ``fn(dst, src)``; sqrt is a function of
#: the source only, and min/max return the source unless the destination is
#: strictly below/above it (so on a NaN either side, and on +0 against -0)
_FP_OPS: dict[str, Callable[[float, float], float]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "min": lambda a, b: a if a < b else b,
    "max": lambda a, b: a if a > b else b,
    "div": fdiv,
    "sqrt": lambda a, b: fsqrt(b),
}
_KEEP_HIGH64 = MASK128 ^ MASK64
_KEEP_HIGH96 = MASK128 ^ MASK32


@_binds(*(stem + "sd" for stem in _FP_OPS))
def _bind_scalar_f64(ins: Instruction) -> Op:
    fn = _FP_OPS[ins.mnemonic[:-2]]
    unpack, pack = _F64.unpack, _F64.pack

    def scalar(a: int, b: int) -> int:
        r = fn(unpack((a & MASK64).to_bytes(8, "little"))[0],
               unpack(b.to_bytes(8, "little"))[0])
        return (a & _KEEP_HIGH64) | int.from_bytes(pack(r), "little")
    return _xmm_binary(ins, scalar, 8)


@_binds(*(stem + "ss" for stem in _FP_OPS))
def _bind_scalar_f32(ins: Instruction) -> Op:
    fn = _FP_OPS[ins.mnemonic[:-2]]

    def scalar(a: int, b: int) -> int:
        r = fn(bits_to_f32(a), bits_to_f32(b))
        return (a & _KEEP_HIGH96) | f32_to_bits(r)
    return _xmm_binary(ins, scalar, 4)


@_binds(*(stem + "pd" for stem in _FP_OPS))
def _bind_packed_f64(ins: Instruction) -> Op:
    fn = _FP_OPS[ins.mnemonic[:-2]]

    def packed(a: int, b: int) -> int:
        return _lanes(
            f64_to_bits(fn(bits_to_f64(a), bits_to_f64(b))),
            f64_to_bits(fn(bits_to_f64(a >> 64), bits_to_f64(b >> 64))))
    return _xmm_binary(ins, packed)


@_binds("haddpd")
def _bind_haddpd(ins: Instruction) -> Op:
    def hadd(a: int, b: int) -> int:
        return _lanes(
            f64_to_bits(bits_to_f64(a) + bits_to_f64(a >> 64)),
            f64_to_bits(bits_to_f64(b) + bits_to_f64(b >> 64)))
    return _xmm_binary(ins, hadd)


@_binds("ucomisd", "comisd", "ucomiss", "comiss")
def _bind_comis(ins: Instruction) -> Op:
    dst, src = ins.operands
    double = ins.mnemonic.endswith("sd")
    conv = bits_to_f64 if double else bits_to_f32
    d, rd = _xmm_index(dst, ins), _xmm_reader(src, 8 if double else 4)

    def comis(st: CPUState, mem: Memory) -> None:
        a, b = conv(st.xmm[d]), conv(rd(st, mem))
        st.of = st.af = st.sf = False
        if a != a or b != b:  # unordered
            st.zf = st.pf = st.cf = True
        else:
            st.zf = a == b
            st.cf = a < b
            st.pf = False
    return comis


@_binds("cvtsi2sd", "cvtsi2ss")
def _bind_cvtsi2(ins: Instruction) -> Op:
    dst, src = ins.operands
    ssize = src.size if isinstance(src, (Reg, Mem)) else 8
    d, rd, bits = _xmm_index(dst, ins), _reader(src, ssize), ssize * 8
    if ins.mnemonic == "cvtsi2sd":
        def to_f64(st: CPUState, mem: Memory) -> None:
            v = float(to_signed(rd(st, mem), bits))
            st.xmm[d] = (st.xmm[d] & _KEEP_HIGH64) | f64_to_bits(v)
        return to_f64

    def to_f32(st: CPUState, mem: Memory) -> None:
        v = float(to_signed(rd(st, mem), bits))
        st.xmm[d] = (st.xmm[d] & _KEEP_HIGH96) | f32_to_bits(v)
    return to_f32


@_binds("cvttsd2si", "cvtsd2si", "cvttss2si", "cvtss2si")
def _bind_cvt2si(ins: Instruction) -> Op:
    dst, src = ins.operands
    assert isinstance(dst, Reg)
    m = ins.mnemonic
    double = "sd" in m
    conv = bits_to_f64 if double else bits_to_f32
    truncate, bits = m.startswith("cvtt"), dst.size * 8
    rd, wr = _xmm_reader(src, 8 if double else 4), _writer(dst)
    return lambda st, mem: wr(
        st, mem, float_to_sint(conv(rd(st, mem)), bits, truncate))


@_binds("cvtsd2ss")
def _bind_cvtsd2ss(ins: Instruction) -> Op:
    return _xmm_binary(
        ins, lambda a, b: (a & _KEEP_HIGH96) | f32_to_bits(bits_to_f64(b)),
        8)


@_binds("cvtss2sd")
def _bind_cvtss2sd(ins: Instruction) -> Op:
    return _xmm_binary(
        ins, lambda a, b: (a & _KEEP_HIGH64) | f64_to_bits(bits_to_f32(b)), 4)
