"""Constant folding of individual instructions (shared by several passes)."""

from __future__ import annotations

import struct

from repro.ir import instructions as I
from repro.ir.irtypes import DoubleType, FloatType, IntType, PointerType, Type, VectorType
from repro.ir.module import GlobalVariable
from repro.ir.values import Constant, ConstantFP, ConstantVector, Undef, Value
from repro.x86.isa import float_to_sint


def _signed(v: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (v & (sign - 1)) - (v & sign)


def _as_int(v: Value) -> int | None:
    if isinstance(v, Constant):
        return v.value
    return None


def _as_fp(v: Value) -> float | None:
    if isinstance(v, ConstantFP):
        return v.value
    return None


def try_fold(ins: I.Instruction) -> Value | None:
    """Return a constant replacing ``ins``, or None if not foldable."""
    if isinstance(ins, I.BinOp):
        return _fold_binop(ins)
    if isinstance(ins, I.ICmp):
        a, b = _as_int(ins.operands[0]), _as_int(ins.operands[1])
        if a is None or b is None:
            return None
        t = ins.operands[0].type
        bits = t.bits if isinstance(t, IntType) else 64
        from repro.ir.interp import _icmp
        return Constant(ins.type, int(_icmp(ins.pred, a, b, bits)))
    if isinstance(ins, I.FCmp):
        a, b = _as_fp(ins.operands[0]), _as_fp(ins.operands[1])
        if a is None or b is None:
            return None
        from repro.ir.interp import _fcmp
        return Constant(ins.type, int(_fcmp(ins.pred, a, b)))
    if isinstance(ins, I.Select):
        c = _as_int(ins.operands[0])
        if c is not None:
            return ins.operands[1] if c else ins.operands[2]
        if ins.operands[1] is ins.operands[2]:
            return ins.operands[1]
        return None
    if isinstance(ins, I.Cast):
        return _fold_cast(ins)
    if isinstance(ins, I.GEP):
        base, idx = ins.operands
        iv = _as_int(idx)
        if iv is not None and iv % (1 << idx.type.bits) == 0 and base.type is ins.type:  # type: ignore[union-attr]
            return base
        return None
    if isinstance(ins, I.ExtractElement):
        vec, idx = ins.operands
        if isinstance(vec, ConstantVector) and isinstance(idx, Constant):
            return vec.elements[idx.value]
        return None  # further patterns live in instcombine
    if isinstance(ins, I.InsertElement):
        vec, val, idx = ins.operands
        if isinstance(vec, ConstantVector) and isinstance(idx, Constant) and \
                isinstance(val, (Constant, ConstantFP)):
            elems = list(vec.elements)
            elems[idx.value] = val
            return ConstantVector(vec.type, tuple(elems))
        return None
    return None


def _fold_binop(ins: I.BinOp) -> Value | None:
    t = ins.type
    if isinstance(t, IntType):
        a, b = _as_int(ins.operands[0]), _as_int(ins.operands[1])
        if a is None or b is None:
            return None
        bits = t.bits
        op = ins.opcode
        if op == "add":
            return Constant(t, a + b)
        if op == "sub":
            return Constant(t, a - b)
        if op == "mul":
            return Constant(t, a * b)
        if op == "and":
            return Constant(t, a & b)
        if op == "or":
            return Constant(t, a | b)
        if op == "xor":
            return Constant(t, a ^ b)
        if op == "shl":
            return Constant(t, a << (b % bits))
        if op == "lshr":
            return Constant(t, a >> (b % bits))
        if op == "ashr":
            return Constant(t, _signed(a, bits) >> (b % bits))
        if op in ("sdiv", "srem"):
            d = _signed(b, bits)
            if d == 0:
                return None
            n = _signed(a, bits)
            q = int(n / d)
            return Constant(t, q if op == "sdiv" else n - q * d)
        if op in ("udiv", "urem"):
            if b == 0:
                return None
            return Constant(t, a // b if op == "udiv" else a % b)
        return None
    if isinstance(t, (DoubleType, FloatType)):
        a, b = _as_fp(ins.operands[0]), _as_fp(ins.operands[1])
        if a is None or b is None:
            return None
        op = ins.opcode
        if op == "fadd":
            r = a + b
        elif op == "fsub":
            r = a - b
        elif op == "fmul":
            r = a * b
        elif op == "fdiv":
            if b == 0.0:
                return None
            r = a / b
        else:
            return None
        if isinstance(t, FloatType):
            r = struct.unpack("<f", struct.pack("<f", r))[0]
        return ConstantFP(t, r)
    return None


def resolve_const_pointer(v: Value, depth: int = 32) -> int | None:
    """Resolve inttoptr(C)/gep/bitcast chains to a constant address."""
    offset = 0
    while depth > 0:
        depth -= 1
        if isinstance(v, I.Cast) and v.opcode == "bitcast" and v.type.is_pointer:
            v = v.operands[0]
            continue
        if isinstance(v, I.Cast) and v.opcode == "inttoptr":
            inner = v.operands[0]
            if isinstance(inner, Constant):
                return (inner.value + offset) & (2**64 - 1)
            return None
        if isinstance(v, I.GEP):
            idx = v.operands[1]
            if not isinstance(idx, Constant):
                return None
            offset += idx.signed * v.elem.size_bytes()
            v = v.operands[0]
            continue
        return None
    return None


def _fold_cast(ins: I.Cast) -> Value | None:
    (v,) = ins.operands
    dst = ins.type
    op = ins.opcode
    iv = _as_int(v)
    fv = _as_fp(v)
    if op == "ptrtoint":
        addr = resolve_const_pointer(v)
        if addr is not None:
            return Constant(dst, addr)
    if op == "trunc" and iv is not None:
        return Constant(dst, iv)
    if op == "zext" and iv is not None:
        return Constant(dst, iv)
    if op == "sext" and iv is not None:
        return Constant(dst, _signed(iv, v.type.bits))  # type: ignore[union-attr]
    if op == "sitofp" and iv is not None:
        return ConstantFP(dst, float(_signed(iv, v.type.bits)))  # type: ignore[union-attr]
    if op == "uitofp" and iv is not None:
        return ConstantFP(dst, float(iv))
    if op == "fptosi" and fv is not None:
        return Constant(dst, float_to_sint(fv, dst.bits))  # type: ignore[union-attr]
    if op == "bitcast" and iv is not None and isinstance(dst, DoubleType) \
            and isinstance(v.type, IntType) and v.type.bits == 64:
        return ConstantFP(dst, struct.unpack("<d", iv.to_bytes(8, "little"))[0])
    if op == "bitcast" and fv is not None and isinstance(dst, IntType) \
            and dst.bits == 64 and isinstance(v.type, DoubleType):
        return Constant(dst, int.from_bytes(struct.pack("<d", fv), "little"))
    if op == "bitcast" and v.type is dst:
        return v
    if op == "bitcast" and isinstance(v, ConstantVector):
        from repro.ir.interp import _to_bytes
        raw = _to_bytes(tuple(
            e.value for e in v.elements  # type: ignore[union-attr]
        ), v.type)
        if isinstance(dst, IntType):
            return Constant(dst, int.from_bytes(raw, "little"))
        if isinstance(dst, VectorType):
            from repro.ir.interp import _from_bytes
            vals = _from_bytes(raw, dst)
            elems: list[Value] = []
            for x in vals:  # type: ignore[union-attr]
                if isinstance(dst.elem, IntType):
                    elems.append(Constant(dst.elem, int(x)))
                else:
                    elems.append(ConstantFP(dst.elem, float(x)))
            return ConstantVector(dst, tuple(elems))
    if op == "bitcast" and isinstance(v, Constant) and isinstance(dst, VectorType):
        from repro.ir.interp import _from_bytes
        raw = v.value.to_bytes(v.type.size_bytes(), "little")  # type: ignore[attr-defined]
        vals = _from_bytes(raw, dst)
        elems2: list[Value] = []
        for x in vals:  # type: ignore[union-attr]
            if isinstance(dst.elem, IntType):
                elems2.append(Constant(dst.elem, int(x)))
            else:
                elems2.append(ConstantFP(dst.elem, float(x)))
        return ConstantVector(dst, tuple(elems2))
    if isinstance(v, Undef):
        return Undef(dst)
    return None


def read_constant_global(
    ptr: Value, offset: int, type_: Type
) -> Value | None:
    """Fold a load from a constant global's initializer bytes."""
    if not isinstance(ptr, GlobalVariable) or not ptr.constant:
        return None
    size = type_.size_bytes()
    data = ptr.initializer
    if offset < 0 or offset + size > len(data):
        return None
    raw = data[offset: offset + size]
    if isinstance(type_, IntType):
        return Constant(type_, int.from_bytes(raw, "little"))
    if isinstance(type_, DoubleType):
        return ConstantFP(type_, struct.unpack("<d", raw)[0])
    if isinstance(type_, FloatType):
        return ConstantFP(type_, struct.unpack("<f", raw)[0])
    if isinstance(type_, PointerType):
        # pointers inside fixed memory are *not* followed (Sec. IV: nested
        # pointers are not marked constant); folding the address itself is
        # still fine because the bytes are the value.
        return None
    return None
