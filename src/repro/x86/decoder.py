"""x86-64 machine-code decoder (the offline substitute for capstone).

``decode_one(code, offset, addr)`` decodes a single instruction, once per
``(addr, bytes)`` in the process (``_MEMO``);
``decode_block`` decodes a byte range into a list.  The decoder accepts a
superset of what :mod:`repro.x86.encoder` emits (rel8 and rel32 branches,
both ModRM directions, redundant REX prefixes) because DBrew and the lifter
must consume compiler output, not just our own.  It refuses an instruction
longer than 15 bytes, as the CPU does.

Branch operands are normalized to *absolute* target addresses, and
RIP-relative memory displacements to absolute addresses, so downstream
passes never deal with encoding-relative offsets.

Dispatch is table-driven: two 256-entry handler tables (one-byte opcodes
and the 0F escape map) are precomputed at import, so decoding an
instruction costs one prefix scan plus one indexed lookup instead of a
linear walk over every opcode pattern — this is a hot path of the runtime
rewriter (DBrew decodes each guest instruction; the lifter decodes every
discovered block).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import DecodeError
from repro.x86 import isa
from repro.x86.instr import Imm, Instruction, Mem, Operand, Reg

#: the SDM's limit on an instruction's length; the CPU raises #GP on a
#: longer one, and so does this decoder
MAX_LENGTH = 15

_SEG_BY_PREFIX = {0x64: "fs", 0x65: "gs"}

# Reverse maps from the ISA tables.
_ALU_BY_BASE = {base: (m, digit) for m, (base, digit) in isa.ALU_GROUP.items()}
_ALU_BY_DIGIT = {digit: m for m, (_b, digit) in isa.ALU_GROUP.items()}
_SHIFT_BY_DIGIT = {d: m for m, d in isa.SHIFT_GROUP.items()}
_UNARY_BY_DIGIT = {d: m for m, d in isa.UNARY_GROUP.items()}
_SSE_0F_BY_PREFIX: dict[int | None, dict[int, str]] = {
    0xF2: {v: k for k, v in isa.SSE_SD.items()},
    0xF3: {v: k for k, v in isa.SSE_SS.items()},
    0x66: {v: k for k, v in (isa.SSE_PD | isa.SSE_PI).items()},
    None: {v: k for k, v in isa.SSE_PS.items()},
}


class _Cursor:
    def __init__(self, code: bytes, offset: int, addr: int) -> None:
        self.code = code
        self.pos = offset
        self.start = offset
        self.addr = addr
        #: an instruction reads no byte from here on
        self.end = min(len(code), offset + MAX_LENGTH)

    def _past_end(self, what: str) -> DecodeError:
        message = (f"instruction at {self.addr:#x} is longer than "
                   f"{MAX_LENGTH} bytes" if self.end < len(self.code)
                   else f"truncated {what} at {self.addr:#x}")
        return DecodeError(message, stage="decode", addr=self.addr,
                           data=bytes(self.code[self.start:self.pos]))

    def u8(self) -> int:
        if self.pos >= self.end:
            raise self._past_end("instruction")
        b = self.code[self.pos]
        self.pos += 1
        return b

    def peek(self) -> int:
        if self.pos >= self.end:
            raise self._past_end("instruction")
        return self.code[self.pos]

    def imm(self, size: int, signed: bool = True) -> int:
        if self.pos + size > self.end:
            raise self._past_end("immediate")
        raw = self.code[self.pos : self.pos + size]
        self.pos += size
        return int.from_bytes(raw, "little", signed=signed)

    @property
    def length(self) -> int:
        return self.pos - self.start

    def end_addr(self) -> int:
        return self.addr + self.length


class _Ctx:
    """Prefix state for one instruction."""

    def __init__(self) -> None:
        self.rex = 0
        self.has_rex = False
        self.op66 = False
        self.rep_f2 = False
        self.rep_f3 = False
        self.seg = ""

    @property
    def w(self) -> bool:
        return bool(self.rex & 8)

    @property
    def r(self) -> int:
        return (self.rex >> 2) & 1

    @property
    def x(self) -> int:
        return (self.rex >> 1) & 1

    @property
    def b(self) -> int:
        return self.rex & 1

    def int_size(self, byte_op: bool) -> int:
        if byte_op:
            return 1
        if self.w:
            return 8
        if self.op66:
            return 2
        return 4

    def sse_prefix(self) -> int | None:
        if self.rep_f2:
            return 0xF2
        if self.rep_f3:
            return 0xF3
        if self.op66:
            return 0x66
        return None


def _gp(ctx: _Ctx, bits3: int, ext: int, size: int) -> Reg:
    index = bits3 | (ext << 3)
    if size == 1 and not ctx.has_rex and 4 <= index < 8:
        # without REX, encodings 4..7 are ah/ch/dh/bh
        return Reg("gp", index - 4, 1, high8=True)
    return Reg("gp", index, size, False)


def _modrm(cur: _Cursor, ctx: _Ctx, size: int, *, reg_is_xmm: bool = False,
           rm_is_xmm: bool = False, rm_size: int | None = None,
           reg_size: int | None = None) -> tuple[Reg, Operand]:
    """Decode ModRM (+SIB/displacement); returns (reg operand, r/m operand)."""
    modrm = cur.u8()
    mod = modrm >> 6
    reg_bits = (modrm >> 3) & 7
    rm_bits = modrm & 7
    if reg_is_xmm:
        reg: Reg = Reg("xmm", reg_bits | (ctx.r << 3), 16)
    else:
        reg = _gp(ctx, reg_bits, ctx.r, reg_size or size)
    msize = rm_size if rm_size is not None else size
    if mod == 3:
        if rm_is_xmm:
            return reg, Reg("xmm", rm_bits | (ctx.b << 3), 16)
        return reg, _gp(ctx, rm_bits, ctx.b, msize)

    base: Reg | None = None
    index: Reg | None = None
    scale = 1
    disp = 0
    riprel = False
    if rm_bits == 4:  # SIB
        sib = cur.u8()
        scale = 1 << (sib >> 6)
        idx_bits = (sib >> 3) & 7
        base_bits = sib & 7
        idx = idx_bits | (ctx.x << 3)
        if idx != 4:  # index 100b (rsp position, no REX.X) means "no index"
            index = Reg("gp", idx, 8)
        if base_bits == 5 and mod == 0:
            disp = cur.imm(4)
        else:
            base = Reg("gp", base_bits | (ctx.b << 3), 8)
    elif rm_bits == 5 and mod == 0:
        riprel = True
        disp = cur.imm(4)
    else:
        base = Reg("gp", rm_bits | (ctx.b << 3), 8)

    if mod == 1:
        disp = cur.imm(1)
    elif mod == 2:
        disp = cur.imm(4)
    mem = Mem(size=msize, base=base, index=index, scale=scale,
              disp=disp, riprel=riprel, seg=ctx.seg)
    return reg, mem


def _finish_riprel(mem: Operand, end_addr: int) -> Operand:
    """Convert a RIP-relative displacement to the absolute target address."""
    if isinstance(mem, Mem) and mem.riprel:
        return Mem(size=mem.size, disp=end_addr + mem.disp, riprel=True, seg=mem.seg)
    return mem


@dataclass
class MemoStats:
    """The memo's counters, held by :mod:`repro.obs` as ``x86.decode_memo``."""

    hits: int = 0
    misses: int = 0


#: the process's one decode memo, for every reader of machine code: a
#: decode reads only ``addr`` (operands come out absolute) and at most
#: MAX_LENGTH bytes, so a patched byte keys a new entry.  An instruction is
#: immutable and keeps its ``effects_of`` record; inserts evict first-in
#: first-out under the lock (DESIGN §14)
_MEMO: dict[tuple[int, bytes], Instruction] = {}
_MEMO_MAX = 2048
_MEMO_LOCK = threading.Lock()
MEMO_STATS = MemoStats()


def decode_one(code: bytes, offset: int = 0, addr: int = 0) -> Instruction:
    """Decode the instruction at ``code[offset:]``, located at ``addr``; a
    decode error is raised every time and never remembered."""
    key = (addr, bytes(code[offset:offset + MAX_LENGTH]))
    ins = _MEMO.get(key)
    if ins is not None:
        MEMO_STATS.hits += 1
        return ins
    MEMO_STATS.misses += 1
    ins = _decode(code, offset, addr)
    with _MEMO_LOCK:
        if key not in _MEMO and len(_MEMO) >= _MEMO_MAX:
            del _MEMO[next(iter(_MEMO))]
        return _MEMO.setdefault(key, ins)


def _decode(code: bytes, offset: int, addr: int) -> Instruction:
    cur = _Cursor(code, offset, addr)
    ctx = _Ctx()

    # prefixes
    while True:
        b = cur.peek()
        if b == 0x66:
            ctx.op66 = True
        elif b == 0xF2:
            ctx.rep_f2 = True
        elif b == 0xF3:
            ctx.rep_f3 = True
        elif b in _SEG_BY_PREFIX:
            ctx.seg = _SEG_BY_PREFIX[b]
        elif 0x40 <= b <= 0x4F:
            ctx.rex = b & 0xF
            ctx.has_rex = True
            cur.u8()
            break  # REX must be the last prefix
        else:
            break
        cur.u8()

    opc = cur.u8()
    handler = _DISPATCH[opc]
    if handler is None:
        raise DecodeError(f"unknown opcode {opc:#04x} at {cur.addr:#x}",
                          stage="decode", addr=cur.addr,
                          data=bytes(code[cur.start:cur.pos]))
    try:
        ins = handler(cur, ctx, opc)
    except DecodeError as exc:
        # handler-internal raises: stamp the uniform context (setdefault
        # semantics — a more specific context set deeper wins)
        raise exc.with_context(stage="decode", addr=addr,
                               data=bytes(code[cur.start:cur.pos]))
    raw = code[cur.start : cur.pos]
    ops = tuple(_finish_riprel(o, cur.end_addr()) for o in ins.operands)
    return Instruction(ins.mnemonic, ops, addr=addr, length=cur.length, raw=raw)


def _rel_target(cur: _Cursor, size: int) -> Imm:
    rel = cur.imm(size)
    return Imm(cur.end_addr() + rel, 8)


# --------------------------------------------------------------------------
# one-byte opcode handlers
#
# Every handler has the uniform shape (cursor, prefix ctx, opcode byte) ->
# Instruction; the tables at the bottom of this file bind them to opcode
# bytes once, at import.
# --------------------------------------------------------------------------

_Handler = Callable[[_Cursor, _Ctx, int], Instruction]


def _op_simple(mnemonic: str) -> _Handler:
    def handler(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
        return Instruction(mnemonic)
    return handler


def _h_nop_90(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    if ctx.rep_f3:  # F3 90 = pause: unsupported
        raise DecodeError(f"unknown opcode {opc:#04x} at {cur.addr:#x}")
    return Instruction("nop")


def _h_cqo(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    return Instruction("cqo" if ctx.w else "cdq")


def _h_push_reg(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    return Instruction("push", (Reg("gp", (opc - 0x50) | (ctx.b << 3), 8),))


def _h_pop_reg(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    return Instruction("pop", (Reg("gp", (opc - 0x58) | (ctx.b << 3), 8),))


def _h_push_imm32(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    return Instruction("push", (Imm(cur.imm(4), 4),))


def _h_push_imm8(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    return Instruction("push", (Imm(cur.imm(1), 1),))


def _h_call_rel32(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    return Instruction("call", (_rel_target(cur, 4),))


def _h_jmp_rel32(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    return Instruction("jmp", (_rel_target(cur, 4),))


def _h_jmp_rel8(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    return Instruction("jmp", (_rel_target(cur, 1),))


def _h_jcc_rel8(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    return Instruction("j" + isa.CC_NAMES[opc - 0x70], (_rel_target(cur, 1),))


def _h_alu(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    base = opc & 0xF8
    low = opc & 7
    mnem, _digit = _ALU_BY_BASE[base]
    byte_op = (low & 1) == 0
    size = ctx.int_size(byte_op)
    if low in (0, 1):  # r/m, r
        reg, rm = _modrm(cur, ctx, size)
        return Instruction(mnem, (rm, reg))
    if low in (2, 3):  # r, r/m
        reg, rm = _modrm(cur, ctx, size)
        return Instruction(mnem, (reg, rm))
    # 4/5: al/ax/eax/rax, imm
    size = ctx.int_size(low == 4)
    acc = Reg("gp", 0, size)
    return Instruction(mnem, (acc, Imm(cur.imm(1 if low == 4 else min(size, 4)),
                                       1 if low == 4 else min(size, 4))))


def _h_alu_imm(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(opc == 0x80)
    reg, rm = _modrm(cur, ctx, size)
    digit = (reg.index if not reg.high8 else reg.index + 4) & 7
    mnem = _ALU_BY_DIGIT[digit]
    if opc == 0x80 or opc == 0x83:
        imm = Imm(cur.imm(1), 1)
    else:
        imm = Imm(cur.imm(min(size, 4)), min(size, 4))
    return Instruction(mnem, (rm, imm))


def _h_test(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(opc == 0x84)
    reg, rm = _modrm(cur, ctx, size)
    return Instruction("test", (rm, reg))


def _h_mov_store(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(opc == 0x88)
    reg, rm = _modrm(cur, ctx, size)
    return Instruction("mov", (rm, reg))


def _h_mov_load(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(opc == 0x8A)
    reg, rm = _modrm(cur, ctx, size)
    return Instruction("mov", (reg, rm))


def _h_lea(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(False)
    reg, rm = _modrm(cur, ctx, size, rm_size=size)
    if not isinstance(rm, Mem):
        raise DecodeError("lea with register r/m")
    return Instruction("lea", (reg, rm))


def _h_movsxd(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    reg, rm = _modrm(cur, ctx, 8, rm_size=4)
    return Instruction("movsxd", (reg, rm))


def _h_mov_imm_reg(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(False)
    reg = Reg("gp", (opc - 0xB8) | (ctx.b << 3), size)
    if size == 8:
        return Instruction("mov", (reg, Imm(cur.imm(8), 8)))
    return Instruction("mov", (reg, Imm(cur.imm(min(size, 4)), min(size, 4))))


def _h_mov_imm8_reg(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    reg = _gp(ctx, opc - 0xB0, ctx.b, 1)
    return Instruction("mov", (reg, Imm(cur.imm(1), 1)))


def _h_mov_imm_rm(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(opc == 0xC6)
    reg, rm = _modrm(cur, ctx, size)
    isize = 1 if opc == 0xC6 else min(size, 4)
    return Instruction("mov", (rm, Imm(cur.imm(isize), isize)))


def _h_shift(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(opc in (0xC0, 0xD0, 0xD2))
    reg, rm = _modrm(cur, ctx, size)
    digit = (reg.index if not reg.high8 else reg.index + 4) & 7
    mnem = _SHIFT_BY_DIGIT.get(digit)
    if mnem is None:
        raise DecodeError(f"unsupported shift /{digit}")
    if opc in (0xC0, 0xC1):
        return Instruction(mnem, (rm, Imm(cur.imm(1, signed=False), 1)))
    if opc in (0xD0, 0xD1):
        return Instruction(mnem, (rm, Imm(1, 1)))
    return Instruction(mnem, (rm, Reg("gp", 1, 1)))


def _h_unary_group(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(opc == 0xF6)
    reg, rm = _modrm(cur, ctx, size)
    digit = (reg.index if not reg.high8 else reg.index + 4) & 7
    if digit in (0, 1):
        isize = 1 if opc == 0xF6 else min(size, 4)
        return Instruction("test", (rm, Imm(cur.imm(isize), isize)))
    mnem = _UNARY_BY_DIGIT[digit]
    if mnem == "imul1":
        mnem = "imul"  # one-operand widening form; distinguished by arity
    return Instruction(mnem, (rm,))


def _h_incdec_group(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(opc == 0xFE)
    reg, rm = _modrm(cur, ctx, size)
    digit = (reg.index if not reg.high8 else reg.index + 4) & 7
    if digit == 0:
        return Instruction("inc", (rm,))
    if digit == 1:
        return Instruction("dec", (rm,))
    if opc == 0xFF and digit == 6:
        return Instruction("push", (rm,))
    if opc == 0xFF and digit == 4:
        return Instruction("jmp", (rm,))  # indirect; rejected by consumers
    if opc == 0xFF and digit == 2:
        return Instruction("call", (rm,))
    raise DecodeError(f"unsupported FF /{digit}")


def _h_imul_imm(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(False)
    reg, rm = _modrm(cur, ctx, size)
    if opc == 0x6B:
        imm = Imm(cur.imm(1), 1)
    else:
        imm = Imm(cur.imm(min(size, 4)), min(size, 4))
    return Instruction("imul", (reg, rm, imm))


def _h_0f_escape(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    opc2 = cur.u8()
    handler = _DISPATCH_0F[opc2]
    if handler is None:
        raise DecodeError(f"unknown 0F opcode {opc2:#04x} at {cur.addr:#x}",
                          stage="decode", addr=cur.addr,
                          data=bytes(cur.code[cur.start:cur.pos]))
    return handler(cur, ctx, opc2)


# --------------------------------------------------------------------------
# 0F escape-map handlers
# --------------------------------------------------------------------------


def _h0f_jcc_rel32(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    return Instruction("j" + isa.CC_NAMES[opc - 0x80], (_rel_target(cur, 4),))


def _h0f_cmov(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(False)
    reg, rm = _modrm(cur, ctx, size)
    return Instruction("cmov" + isa.CC_NAMES[opc - 0x40], (reg, rm))


def _h0f_setcc(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    _reg, rm = _modrm(cur, ctx, 1)
    return Instruction("set" + isa.CC_NAMES[opc - 0x90], (rm,))


def _h0f_imul(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    size = ctx.int_size(False)
    reg, rm = _modrm(cur, ctx, size)
    return Instruction("imul", (reg, rm))


def _h0f_movzx_movsx(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    dsize = ctx.int_size(False)
    ssize = 1 if opc in (0xB6, 0xBE) else 2
    mnem = "movzx" if opc in (0xB6, 0xB7) else "movsx"
    reg, rm = _modrm(cur, ctx, dsize, rm_size=ssize)
    return Instruction(mnem, (reg, rm))


def _h0f_long_nop(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    _reg, _rm = _modrm(cur, ctx, ctx.int_size(False))
    return Instruction("nop")


def _h0f_movups(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    prefix = ctx.sse_prefix()
    mnem = {0xF2: "movsd", 0xF3: "movss", 0x66: "movupd", None: "movups"}[prefix]
    width = {0xF2: 8, 0xF3: 4, 0x66: 16, None: 16}[prefix]
    reg, rm = _modrm(cur, ctx, width, reg_is_xmm=True, rm_is_xmm=True)
    return Instruction(mnem, (reg, rm) if opc == 0x10 else (rm, reg))


def _h0f_movaps(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    mnem = "movapd" if ctx.sse_prefix() == 0x66 else "movaps"
    reg, rm = _modrm(cur, ctx, 16, reg_is_xmm=True, rm_is_xmm=True)
    return Instruction(mnem, (reg, rm) if opc == 0x28 else (rm, reg))


def _h0f_movlhpd(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    if ctx.sse_prefix() != 0x66:
        return _h0f_sse_table(cur, ctx, opc)
    mnem = "movlpd" if opc in (0x12, 0x13) else "movhpd"
    reg, rm = _modrm(cur, ctx, 8, reg_is_xmm=True, rm_is_xmm=True)
    return Instruction(mnem, (reg, rm) if opc in (0x12, 0x16) else (rm, reg))


def _h0f_comis(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    prefix = ctx.sse_prefix()
    mnem = ("u" if opc == 0x2E else "") + ("comisd" if prefix == 0x66 else "comiss")
    width = 8 if prefix == 0x66 else 4
    reg, rm = _modrm(cur, ctx, width, reg_is_xmm=True, rm_is_xmm=True)
    return Instruction(mnem, (reg, rm))


def _h0f_cvtsi2(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    mnem = "cvtsi2sd" if ctx.sse_prefix() == 0xF2 else "cvtsi2ss"
    size = 8 if ctx.w else 4
    reg, rm = _modrm(cur, ctx, size, reg_is_xmm=True)
    return Instruction(mnem, (reg, rm))


def _h0f_cvt2si(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    sd = ctx.sse_prefix() == 0xF2
    mnem = ("cvtt" if opc == 0x2C else "cvt") + ("sd2si" if sd else "ss2si")
    size = 8 if ctx.w else 4
    reg, rm = _modrm(cur, ctx, 8 if sd else 4, rm_is_xmm=True, reg_size=size)
    return Instruction(mnem, (reg, rm))


def _h0f_cvt_ss_sd(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    prefix = ctx.sse_prefix()
    mnem = "cvtsd2ss" if prefix == 0xF2 else "cvtss2sd"
    width = 8 if prefix == 0xF2 else 4
    reg, rm = _modrm(cur, ctx, width, reg_is_xmm=True, rm_is_xmm=True)
    return Instruction(mnem, (reg, rm))


def _h0f_movd_to_xmm(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    mnem = "movq" if ctx.w else "movd"
    reg, rm = _modrm(cur, ctx, 8 if ctx.w else 4, reg_is_xmm=True)
    return Instruction(mnem, (reg, rm))


def _h0f_movd_from_xmm(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    if ctx.sse_prefix() == 0xF3:
        reg, rm = _modrm(cur, ctx, 8, reg_is_xmm=True, rm_is_xmm=True)
        return Instruction("movq", (reg, rm))
    mnem = "movq" if ctx.w else "movd"
    reg, rm = _modrm(cur, ctx, 8 if ctx.w else 4, reg_is_xmm=True)
    return Instruction(mnem, (rm, reg))


def _h0f_movq_store(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    reg, rm = _modrm(cur, ctx, 8, reg_is_xmm=True, rm_is_xmm=True)
    return Instruction("movq", (rm, reg))


def _h0f_shufpd(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    if ctx.sse_prefix() != 0x66:
        return _h0f_sse_table(cur, ctx, opc)
    reg, rm = _modrm(cur, ctx, 16, reg_is_xmm=True, rm_is_xmm=True)
    return Instruction("shufpd", (reg, rm, Imm(cur.imm(1, signed=False), 1)))


def _h0f_pshufd(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    if ctx.sse_prefix() != 0x66:
        return _h0f_sse_table(cur, ctx, opc)
    reg, rm = _modrm(cur, ctx, 16, reg_is_xmm=True, rm_is_xmm=True)
    return Instruction("pshufd", (reg, rm, Imm(cur.imm(1, signed=False), 1)))


def _h0f_sse_table(cur: _Cursor, ctx: _Ctx, opc: int) -> Instruction:
    """Prefix-dependent packed/scalar arithmetic from the ISA tables."""
    table = _SSE_0F_BY_PREFIX.get(ctx.sse_prefix(), {})
    mnem = table.get(opc)
    if mnem is None:
        raise DecodeError(f"unknown 0F opcode {opc:#04x} at {cur.addr:#x}")
    width = isa.SSE_SCALAR_WIDTH.get(mnem, 16)
    reg, rm = _modrm(cur, ctx, width, reg_is_xmm=True, rm_is_xmm=True)
    return Instruction(mnem, (reg, rm))


# --------------------------------------------------------------------------
# dispatch tables, built once at import
# --------------------------------------------------------------------------

_DISPATCH: list[_Handler | None] = [None] * 256
_DISPATCH_0F: list[_Handler | None] = [None] * 256


def _build_dispatch() -> None:
    d = _DISPATCH
    d[0xC3] = _op_simple("ret")
    d[0x90] = _h_nop_90
    d[0xC9] = _op_simple("leave")
    d[0xCC] = _op_simple("int3")
    d[0x99] = _h_cqo
    for opc in range(0x50, 0x58):
        d[opc] = _h_push_reg
    for opc in range(0x58, 0x60):
        d[opc] = _h_pop_reg
    d[0x68] = _h_push_imm32
    d[0x6A] = _h_push_imm8
    d[0xE8] = _h_call_rel32
    d[0xE9] = _h_jmp_rel32
    d[0xEB] = _h_jmp_rel8
    for opc in range(0x70, 0x80):
        d[opc] = _h_jcc_rel8
    for base in (0x00, 0x08, 0x10, 0x18, 0x20, 0x28, 0x30, 0x38):
        for low in range(6):
            d[base | low] = _h_alu
    for opc in (0x80, 0x81, 0x83):
        d[opc] = _h_alu_imm
    d[0x84] = d[0x85] = _h_test
    d[0x88] = d[0x89] = _h_mov_store
    d[0x8A] = d[0x8B] = _h_mov_load
    d[0x8D] = _h_lea
    d[0x63] = _h_movsxd
    for opc in range(0xB8, 0xC0):
        d[opc] = _h_mov_imm_reg
    for opc in range(0xB0, 0xB8):
        d[opc] = _h_mov_imm8_reg
    d[0xC6] = d[0xC7] = _h_mov_imm_rm
    for opc in (0xC0, 0xC1, 0xD0, 0xD1, 0xD2, 0xD3):
        d[opc] = _h_shift
    d[0xF6] = d[0xF7] = _h_unary_group
    d[0xFE] = d[0xFF] = _h_incdec_group
    d[0x69] = d[0x6B] = _h_imul_imm
    d[0x0F] = _h_0f_escape

    e = _DISPATCH_0F
    # SSE-table opcodes first; specific handlers below override overlaps
    # (e.g. 5A is both cvtsd2ss in SSE_SD and the dedicated cvt handler)
    for table in _SSE_0F_BY_PREFIX.values():
        for opc in table:
            e[opc] = _h0f_sse_table
    e[0x0B] = _op_simple("ud2")
    e[0x05] = _op_simple("syscall")
    for opc in range(0x80, 0x90):
        e[opc] = _h0f_jcc_rel32
    for opc in range(0x40, 0x50):
        e[opc] = _h0f_cmov
    for opc in range(0x90, 0xA0):
        e[opc] = _h0f_setcc
    e[0xAF] = _h0f_imul
    for opc in (0xB6, 0xB7, 0xBE, 0xBF):
        e[opc] = _h0f_movzx_movsx
    e[0x1F] = _h0f_long_nop
    e[0x10] = e[0x11] = _h0f_movups
    e[0x28] = e[0x29] = _h0f_movaps
    for opc in (0x12, 0x13, 0x16, 0x17):
        e[opc] = _h0f_movlhpd
    e[0x2E] = e[0x2F] = _h0f_comis
    e[0x2A] = _h0f_cvtsi2
    e[0x2C] = e[0x2D] = _h0f_cvt2si
    e[0x5A] = _h0f_cvt_ss_sd
    e[0x6E] = _h0f_movd_to_xmm
    e[0x7E] = _h0f_movd_from_xmm
    e[0xD6] = _h0f_movq_store
    e[0xC6] = _h0f_shufpd
    e[0x70] = _h0f_pshufd


_build_dispatch()


def decode_block(code: bytes, addr: int, length: int, *, base_addr: int = 0) -> list[Instruction]:
    """Decode ``length`` bytes located at virtual address ``addr``.

    ``base_addr`` maps virtual addresses into ``code`` offsets:
    ``offset = addr - base_addr``.
    """
    out: list[Instruction] = []
    pc = addr
    end = addr + length
    while pc < end:
        ins = decode_one(code, pc - base_addr, pc)
        out.append(ins)
        pc += ins.length
    return out
