"""x86-64 machine-code encoder for the supported subset.

``encode(instr, addr)`` produces the canonical byte encoding of one
instruction.  Control-flow operands (``jmp``/``jcc``/``call``) carry the
*absolute* target address in an :class:`~repro.x86.instr.Imm`; the encoder
converts it to a rel8/rel32 displacement against ``addr``.  RIP-relative
memory operands likewise carry the absolute target in ``Mem.disp``.

The encoder is intentionally canonical rather than exhaustive: one encoding
per mnemonic/operand-shape.  The decoder accepts strictly more forms (what a
real compiler might emit) than the encoder produces.
"""

from __future__ import annotations

import struct

from repro.errors import EncodeError
from repro.x86 import isa
from repro.x86.instr import Imm, Instruction, Mem, Operand, Reg

_SEG_PREFIX = {"fs": 0x64, "gs": 0x65}


def _fits(value: int, bits: int) -> bool:
    lo = -(1 << (bits - 1))
    hi = (1 << bits) - 1  # accept unsigned forms too
    return lo <= value <= hi


def _fits_signed(value: int, bits: int) -> bool:
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    return lo <= value <= hi


def _pack(value: int, size: int) -> bytes:
    mask = (1 << (size * 8)) - 1
    return int(value & mask).to_bytes(size, "little")


class _Enc:
    """Accumulates the parts of one instruction encoding."""

    def __init__(self) -> None:
        self.legacy: list[int] = []  # 66/F2/F3/segment prefixes
        self.rex_w = False
        self.rex_r = False
        self.rex_x = False
        self.rex_b = False
        self.force_rex = False
        self.opcode: list[int] = []
        self.modrm: int | None = None
        self.sib: int | None = None
        self.disp: bytes = b""
        self.riprel_target: int | None = None
        self.imm: bytes = b""
        self.rel: tuple[int, int] | None = None  # (target, width) for jmp/call

    def set_reg_field(self, reg: Reg) -> None:
        if reg.index >= 8:
            self.rex_r = True
        self._maybe_force_rex(reg)

    def _maybe_force_rex(self, reg: Reg) -> None:
        if reg.kind == "gp" and reg.size == 1 and not reg.high8 and reg.index >= 4:
            self.force_rex = True
        if reg.high8:
            if self.force_rex or self.rex_r or self.rex_x or self.rex_b:
                raise EncodeError("high-byte register cannot combine with REX")

    def reg_field_value(self, reg: Reg) -> int:
        if reg.high8:
            return reg.index + 4
        return reg.index & 7

    def set_rm_reg(self, reg: Reg) -> None:
        if reg.index >= 8:
            self.rex_b = True
        self._maybe_force_rex(reg)
        self._rm_bits = self.reg_field_value(reg)
        self._mod_bits = 3

    def set_rm_mem(self, mem: Mem) -> None:
        if mem.seg:
            self.legacy.insert(0, _SEG_PREFIX[mem.seg])
        if mem.riprel:
            self._mod_bits, self._rm_bits = 0, 5
            self.riprel_target = mem.disp
            return
        base, index = mem.base, mem.index
        if base is not None and base.size != 8:
            raise EncodeError("address base must be 64-bit")
        if index is not None and index.size != 8:
            raise EncodeError("address index must be 64-bit")
        if index is not None and index.index >= 8:
            self.rex_x = True
        if base is not None and base.index >= 8:
            self.rex_b = True

        scale_bits = {1: 0, 2: 1, 4: 2, 8: 3}[mem.scale]
        need_sib = (
            index is not None
            or base is None
            or (base.index & 7) == 4  # rsp/r12 as base require SIB
        )
        disp = mem.disp
        if base is None:
            # [disp32] absolute or [index*scale + disp32]
            self._mod_bits, self._rm_bits = 0, 4
            idx_bits = 4 if index is None else (index.index & 7)
            self.sib = (scale_bits << 6) | (idx_bits << 3) | 5
            self.disp = _pack(disp, 4)
            return
        base_bits = base.index & 7
        # rbp/r13 base with mod=00 means disp32/riprel, so force disp8=0.
        if disp == 0 and base_bits != 5:
            mod, self.disp = 0, b""
        elif _fits_signed(disp, 8):
            mod, self.disp = 1, _pack(disp, 1)
        elif _fits_signed(disp, 32):
            mod, self.disp = 2, _pack(disp, 4)
        else:
            raise EncodeError(f"displacement {disp:#x} exceeds 32 bits")
        self._mod_bits = mod
        if need_sib:
            self._rm_bits = 4
            idx_bits = 4 if index is None else (index.index & 7)
            self.sib = (scale_bits << 6) | (idx_bits << 3) | base_bits
        else:
            self._rm_bits = base_bits

    def set_modrm(self, reg_bits: int) -> None:
        self.modrm = (self._mod_bits << 6) | ((reg_bits & 7) << 3) | self._rm_bits

    def emit(self, addr: int) -> bytes:
        rex = 0x40
        if self.rex_w:
            rex |= 8
        if self.rex_r:
            rex |= 4
        if self.rex_x:
            rex |= 2
        if self.rex_b:
            rex |= 1
        parts = bytes(self.legacy)
        if rex != 0x40 or self.force_rex:
            parts += bytes([rex])
        parts += bytes(self.opcode)
        if self.modrm is not None:
            parts += bytes([self.modrm])
        if self.sib is not None:
            parts += bytes([self.sib])
        if self.riprel_target is not None:
            total = len(parts) + 4 + len(self.imm)
            rel = self.riprel_target - (addr + total)
            if not _fits_signed(rel, 32):
                raise EncodeError("RIP-relative target out of range")
            parts += _pack(rel, 4)
        else:
            parts += self.disp
        parts += self.imm
        if self.rel is not None:
            target, width = self.rel
            total = len(parts) + width
            rel = target - (addr + total)
            if not _fits_signed(rel, width * 8):
                raise EncodeError("branch target out of range")
            parts += _pack(rel, width)
        return parts


def _op_size(*ops: Operand) -> int:
    """Determine the integer operand width in bytes from reg/mem operands."""
    for op in ops:
        if isinstance(op, Reg):
            return op.size
    for op in ops:
        if isinstance(op, Mem):
            return op.size
    raise EncodeError("cannot determine operand size")


def _setup_width(e: _Enc, size: int) -> None:
    if size == 8:
        e.rex_w = True
    elif size == 2:
        e.legacy.append(0x66)
    elif size not in (1, 4):
        raise EncodeError(f"bad integer width {size}")


def _rm_encode(
    e: _Enc, opcode: int | list[int], reg_bits: int, rm: Operand, *, op66: bool = False
) -> None:
    if op66:
        e.legacy.append(0x66)
    if isinstance(rm, Reg):
        e.set_rm_reg(rm)
    elif isinstance(rm, Mem):
        e.set_rm_mem(rm)
    else:
        raise EncodeError(f"bad r/m operand {rm!r}")
    e.opcode = [opcode] if isinstance(opcode, int) else list(opcode)
    e.set_modrm(reg_bits)


def _encode_alu(instr: Instruction, e: _Enc) -> None:
    base, digit = isa.ALU_GROUP[instr.mnemonic]
    dst, src = instr.operands
    size = _op_size(dst, src)
    _setup_width(e, size)
    wide = 0 if size == 1 else 1
    if isinstance(src, Imm):
        if size == 1:
            _rm_encode(e, 0x80, digit, dst)
            e.imm = _pack(src.value, 1)
        elif _fits_signed(src.value, 8):
            _rm_encode(e, 0x83, digit, dst)
            e.imm = _pack(src.value, 1)
        else:
            if not _fits(src.value, 16 if size == 2 else 32):
                raise EncodeError("ALU immediate exceeds the operand width")
            _rm_encode(e, 0x81, digit, dst)
            e.imm = _pack(src.value, 2 if size == 2 else 4)
    elif isinstance(src, Reg) and isinstance(dst, (Reg, Mem)):
        e.set_reg_field(src)
        _rm_encode(e, base + wide, e.reg_field_value(src), dst)
    elif isinstance(dst, Reg) and isinstance(src, Mem):
        e.set_reg_field(dst)
        _rm_encode(e, base + 2 + wide, e.reg_field_value(dst), src)
    else:
        raise EncodeError(f"unsupported ALU operands {instr!r}")


def _encode_mov(instr: Instruction, e: _Enc) -> None:
    dst, src = instr.operands
    size = _op_size(dst, src)
    if isinstance(src, Imm):
        if isinstance(dst, Reg) and size == 8 and not _fits_signed(src.value, 32):
            # mov r64, imm64 (B8+r io)
            e.rex_w = True
            if dst.index >= 8:
                e.rex_b = True
            e.opcode = [0xB8 + (dst.index & 7)]
            e.imm = _pack(src.value, 8)
            return
        _setup_width(e, size)
        if size == 1:
            _rm_encode(e, 0xC6, 0, dst)
            e.imm = _pack(src.value, 1)
        else:
            if not _fits(src.value, 32):
                raise EncodeError("mov imm32 out of range; use 64-bit register form")
            _rm_encode(e, 0xC7, 0, dst)
            e.imm = _pack(src.value, 2 if size == 2 else 4)
        return
    _setup_width(e, size)
    wide = 0 if size == 1 else 1
    if isinstance(src, Reg):
        e.set_reg_field(src)
        _rm_encode(e, 0x88 + wide, e.reg_field_value(src), dst)
    elif isinstance(dst, Reg) and isinstance(src, Mem):
        e.set_reg_field(dst)
        _rm_encode(e, 0x8A + wide, e.reg_field_value(dst), src)
    else:
        raise EncodeError(f"unsupported mov operands {instr!r}")


def _encode_shift(instr: Instruction, e: _Enc) -> None:
    digit = isa.SHIFT_GROUP[instr.mnemonic]
    dst, src = instr.operands
    size = _op_size(dst)
    _setup_width(e, size)
    wide = 0 if size == 1 else 1
    if isinstance(src, Imm):
        if src.value == 1:
            _rm_encode(e, 0xD0 + wide, digit, dst)
        else:
            _rm_encode(e, 0xC0 + wide, digit, dst)
            e.imm = _pack(src.value, 1)
    elif isinstance(src, Reg) and src.index == 1 and src.size == 1:  # cl
        _rm_encode(e, 0xD2 + wide, digit, dst)
    else:
        raise EncodeError(f"unsupported shift operands {instr!r}")


def _encode_sse_rm(instr: Instruction, e: _Enc, prefix: int | None, opc: int) -> None:
    """xmm, xmm/m encoding (prefix 0F opc /r)."""
    dst, src = instr.operands[:2]
    if prefix is not None:
        e.legacy.append(prefix)
    if not isinstance(dst, Reg) or dst.kind != "xmm":
        raise EncodeError(f"SSE destination must be xmm: {instr!r}")
    e.set_reg_field(dst)
    _rm_encode(e, [0x0F, opc], e.reg_field_value(dst), src)
    if len(instr.operands) == 3:
        sel = instr.operands[2]
        if not isinstance(sel, Imm):
            raise EncodeError("third SSE operand must be an immediate")
        e.imm = _pack(sel.value, 1)


_COND_BASE = {"j": 0x80, "cmov": 0x40, "set": 0x90}


def encode(instr: Instruction, addr: int = 0) -> bytes:
    """Encode one instruction placed at ``addr``; returns its bytes."""
    m = instr.mnemonic
    ops = instr.operands
    e = _Enc()

    # --- no-operand instructions -----------------------------------------
    if m == "ret":
        return b"\xc3"
    if m == "nop":
        return b"\x90"
    if m == "leave":
        return b"\xc9"
    if m == "int3":
        return b"\xcc"
    if m == "ud2":
        return b"\x0f\x0b"
    if m == "cdq":
        return b"\x99"
    if m == "cqo":
        return b"\x48\x99"

    # --- control flow ------------------------------------------------------
    if m in ("jmp", "call") or isa.control_class(m) == "jcc":
        (target,) = ops
        if not isinstance(target, Imm):
            raise EncodeError("indirect branches are not supported (paper Sec. III-B)")
        if m == "call":
            e.opcode = [0xE8]
            e.rel = (target.value, 4)
        elif m == "jmp":
            rel8 = target.value - (addr + 2)
            if _fits_signed(rel8, 8):
                e.opcode = [0xEB]
                e.rel = (target.value, 1)
            else:
                e.opcode = [0xE9]
                e.rel = (target.value, 4)
        else:
            cc = isa.cc_of(m)
            assert cc is not None
            rel8 = target.value - (addr + 2)
            if _fits_signed(rel8, 8):
                e.opcode = [0x70 + isa.CC_INDEX[cc]]
                e.rel = (target.value, 1)
            else:
                e.opcode = [0x0F, 0x80 + isa.CC_INDEX[cc]]
                e.rel = (target.value, 4)
        return e.emit(addr)

    # --- push/pop -----------------------------------------------------------
    if m in ("push", "pop"):
        (op,) = ops
        if isinstance(op, Reg) and op.kind == "gp" and op.size == 8:
            if op.index >= 8:
                e.rex_b = True
            e.opcode = [(0x50 if m == "push" else 0x58) + (op.index & 7)]
            return e.emit(addr)
        if m == "push" and isinstance(op, Imm):
            if _fits_signed(op.value, 8):
                e.opcode = [0x6A]
                e.imm = _pack(op.value, 1)
            else:
                e.opcode = [0x68]
                e.imm = _pack(op.value, 4)
            return e.emit(addr)
        raise EncodeError(f"unsupported push/pop operand {op!r}")

    # --- integer families ----------------------------------------------------
    if m in isa.ALU_GROUP:
        _encode_alu(instr, e)
        return e.emit(addr)
    if m == "mov" and not any(isinstance(o, Reg) and o.kind == "xmm" for o in ops):
        _encode_mov(instr, e)
        return e.emit(addr)
    if m in isa.SHIFT_GROUP:
        _encode_shift(instr, e)
        return e.emit(addr)
    if m in ("inc", "dec"):
        (dst,) = ops
        size = _op_size(dst)
        _setup_width(e, size)
        _rm_encode(e, 0xFE if size == 1 else 0xFF, 0 if m == "inc" else 1, dst)
        return e.emit(addr)
    if m in ("not", "neg", "div", "idiv", "mul"):
        (dst,) = ops
        size = _op_size(dst)
        _setup_width(e, size)
        _rm_encode(e, 0xF6 if size == 1 else 0xF7, isa.UNARY_GROUP[m], dst)
        return e.emit(addr)
    if m == "test":
        dst, src = ops
        size = _op_size(dst, src)
        _setup_width(e, size)
        wide = 0 if size == 1 else 1
        if isinstance(src, Imm):
            _rm_encode(e, 0xF6 + wide, 0, dst)
            e.imm = _pack(src.value, 1 if size == 1 else min(size, 4))
        else:
            assert isinstance(src, Reg)
            e.set_reg_field(src)
            _rm_encode(e, 0x84 + wide, e.reg_field_value(src), dst)
        return e.emit(addr)
    if m == "imul":
        if len(ops) == 2 and not isinstance(ops[1], Imm):
            dst, src = ops
            assert isinstance(dst, Reg)
            size = _op_size(dst, src)
            _setup_width(e, size)
            e.set_reg_field(dst)
            _rm_encode(e, [0x0F, 0xAF], e.reg_field_value(dst), src)
            return e.emit(addr)
        if len(ops) == 3 or (len(ops) == 2 and isinstance(ops[1], Imm)):
            if len(ops) == 2:
                dst, src, imm = ops[0], ops[0], ops[1]
            else:
                dst, src, imm = ops
            assert isinstance(dst, Reg) and isinstance(imm, Imm)
            size = _op_size(dst, src)
            _setup_width(e, size)
            e.set_reg_field(dst)
            if _fits_signed(imm.value, 8):
                _rm_encode(e, 0x6B, e.reg_field_value(dst), src)
                e.imm = _pack(imm.value, 1)
            else:
                _rm_encode(e, 0x69, e.reg_field_value(dst), src)
                e.imm = _pack(imm.value, 4)
            return e.emit(addr)
        raise EncodeError(f"unsupported imul form {instr!r}")
    if m == "lea":
        dst, src = ops
        if not (isinstance(dst, Reg) and isinstance(src, Mem)):
            raise EncodeError("lea needs reg, mem")
        _setup_width(e, dst.size)
        e.set_reg_field(dst)
        _rm_encode(e, 0x8D, e.reg_field_value(dst), src)
        return e.emit(addr)
    if m in ("movzx", "movsx"):
        dst, src = ops
        assert isinstance(dst, Reg)
        ssize = _op_size(src)
        _setup_width(e, dst.size)
        base = 0xB6 if m == "movzx" else 0xBE
        if ssize == 2:
            base += 1
        elif ssize != 1:
            raise EncodeError(f"{m} source must be 8 or 16 bits")
        e.set_reg_field(dst)
        _rm_encode(e, [0x0F, base], e.reg_field_value(dst), src)
        return e.emit(addr)
    if m == "movsxd":
        dst, src = ops
        assert isinstance(dst, Reg) and dst.size == 8
        e.rex_w = True
        e.set_reg_field(dst)
        _rm_encode(e, 0x63, e.reg_field_value(dst), src)
        return e.emit(addr)
    if isa.cc_of(m) is not None and (m.startswith("cmov") or m.startswith("set")):
        cc = isa.cc_of(m)
        assert cc is not None
        if m.startswith("cmov"):
            dst, src = ops
            assert isinstance(dst, Reg)
            _setup_width(e, dst.size)
            e.set_reg_field(dst)
            _rm_encode(e, [0x0F, 0x40 + isa.CC_INDEX[cc]], e.reg_field_value(dst), src)
        else:
            (dst,) = ops
            _rm_encode(e, [0x0F, 0x90 + isa.CC_INDEX[cc]], 0, dst)
        return e.emit(addr)

    # --- SSE -------------------------------------------------------------
    if m in ("movsd", "movss", "movupd", "movups", "movapd", "movaps"):
        prefix = {"movsd": 0xF2, "movss": 0xF3, "movupd": 0x66, "movups": None,
                  "movapd": 0x66, "movaps": None}[m]
        load_opc = 0x28 if m in ("movapd", "movaps") else 0x10
        dst, src = ops
        if isinstance(dst, Reg) and dst.kind == "xmm":
            _encode_sse_rm(instr, e, prefix, load_opc)
        elif isinstance(src, Reg) and src.kind == "xmm":
            if prefix is not None:
                e.legacy.append(prefix)
            e.set_reg_field(src)
            _rm_encode(e, [0x0F, load_opc + 1], e.reg_field_value(src), dst)
        else:
            raise EncodeError(f"unsupported {m} operands")
        return e.emit(addr)
    if m in ("movq", "movd"):
        dst, src = ops
        wide = m == "movq"
        if isinstance(dst, Reg) and dst.kind == "xmm" and isinstance(src, Reg) and src.kind == "xmm":
            # movq xmm, xmm: F3 0F 7E
            e.legacy.append(0xF3)
            e.set_reg_field(dst)
            _rm_encode(e, [0x0F, 0x7E], e.reg_field_value(dst), src)
            return e.emit(addr)
        if isinstance(dst, Reg) and dst.kind == "xmm":
            e.legacy.append(0x66)
            e.rex_w = wide
            e.set_reg_field(dst)
            _rm_encode(e, [0x0F, 0x6E], e.reg_field_value(dst), src)
            return e.emit(addr)
        if isinstance(src, Reg) and src.kind == "xmm":
            e.legacy.append(0x66)
            e.rex_w = wide
            e.set_reg_field(src)
            _rm_encode(e, [0x0F, 0x7E], e.reg_field_value(src), dst)
            return e.emit(addr)
        raise EncodeError(f"unsupported {m} operands")
    if m == "movlpd" or m == "movhpd":
        base = 0x12 if m == "movlpd" else 0x16
        dst, src = ops
        if isinstance(dst, Reg) and dst.kind == "xmm":
            _encode_sse_rm(instr, e, 0x66, base)
        else:
            assert isinstance(src, Reg)
            e.legacy.append(0x66)
            e.set_reg_field(src)
            _rm_encode(e, [0x0F, base + 1], e.reg_field_value(src), dst)
        return e.emit(addr)
    for table, prefix in (
        (isa.SSE_SD, 0xF2), (isa.SSE_SS, 0xF3),
        (isa.SSE_PD, 0x66), (isa.SSE_PI, 0x66), (isa.SSE_PS, None),
    ):
        if m in table:
            _encode_sse_rm(instr, e, prefix, table[m])
            return e.emit(addr)
    if m in ("ucomisd", "comisd", "ucomiss", "comiss"):
        opc = 0x2E if m.startswith("u") else 0x2F
        prefix = 0x66 if m.endswith("sd") else None
        _encode_sse_rm(instr, e, prefix, opc)
        return e.emit(addr)
    if m in ("shufpd", "pshufd"):
        _encode_sse_rm(instr, e, 0x66, 0xC6 if m == "shufpd" else 0x70)
        return e.emit(addr)
    if m in ("cvtsi2sd", "cvtsi2ss"):
        dst, src = ops
        e.legacy.append(0xF2 if m.endswith("sd") else 0xF3)
        e.rex_w = _op_size(src) == 8
        assert isinstance(dst, Reg)
        e.set_reg_field(dst)
        _rm_encode(e, [0x0F, 0x2A], e.reg_field_value(dst), src)
        return e.emit(addr)
    if m in ("cvttsd2si", "cvtsd2si", "cvttss2si", "cvtss2si"):
        dst, src = ops
        e.legacy.append(0xF2 if "sd" in m else 0xF3)
        assert isinstance(dst, Reg)
        e.rex_w = dst.size == 8
        opc = 0x2C if m.startswith("cvtt") else 0x2D
        e.set_reg_field(dst)
        _rm_encode(e, [0x0F, opc], e.reg_field_value(dst), src)
        return e.emit(addr)

    raise EncodeError(f"cannot encode {instr!r}")
