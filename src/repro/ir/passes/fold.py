"""Constant folding of individual instructions (shared by several passes).

This module decides *whether* an instruction folds — which operand kinds,
which opcodes, and the divisions by a constant zero it leaves for run time.
*What* a folded opcode computes is :mod:`repro.ir.semantics`, the functions
the interpreter runs, so a fold cannot disagree with the execution it
replaces (``tests/ir/test_interp_semantics.py`` runs every literal row of
the interpreter's table through :func:`try_fold` as well).
"""

from __future__ import annotations

from repro.ir import instructions as I
from repro.ir import semantics as S
from repro.ir.irtypes import (
    DOUBLE, I64, DoubleType, FloatType, IntType, Type, VectorType,
)
from repro.ir.module import GlobalVariable
from repro.ir.values import Constant, ConstantFP, ConstantVector, Undef, Value

#: a zero right operand of these is not folded: the integer ones trap, and
#: ``fdiv`` by a constant zero is left to the code that was written
_KEEPS_ZERO_DIVISOR = frozenset({"sdiv", "srem", "udiv", "urem", "fdiv"})

#: casts folded over an integer constant (``bitcast`` has its own rule)
_INT_CONSTANT_CASTS = frozenset({"trunc", "zext", "sext", "sitofp", "uitofp"})


def _as_int(v: Value) -> int | None:
    if isinstance(v, Constant):
        return v.value
    return None


def _constant(t: Type, value: object) -> Value:
    """The IR constant of type ``t`` holding an interpreter value."""
    if isinstance(t, IntType):
        return Constant(t, value)  # type: ignore[arg-type]
    if isinstance(t, VectorType):
        return ConstantVector(
            t, tuple(_constant(t.elem, x) for x in value))  # type: ignore[union-attr]
    return ConstantFP(t, value)  # type: ignore[arg-type]


def _python_value(v: Value) -> object:
    """The interpreter value of a constant (None when ``v`` is not one)."""
    if isinstance(v, (Constant, ConstantFP)):
        return v.value
    if isinstance(v, ConstantVector) and all(
            isinstance(e, (Constant, ConstantFP)) for e in v.elements):
        return tuple(e.value for e in v.elements)  # type: ignore[attr-defined]
    return None


def try_fold(ins: I.Instruction) -> Value | None:
    """Return a constant replacing ``ins``, or None if not foldable."""
    cls = type(ins)
    if cls in NO_RULE:
        return None
    return RULES[cls](ins)


def _fold_icmp(ins: I.ICmp) -> Value | None:
    a, b = ins.operands
    if isinstance(a, Constant) and isinstance(b, Constant):
        holds = S.icmp_fn(ins.pred, a.type)(a.value, b.value)
        return Constant(ins.type, int(holds))
    return None


def _fold_fcmp(ins: I.FCmp) -> Value | None:
    a, b = ins.operands
    if isinstance(a, ConstantFP) and isinstance(b, ConstantFP):
        return Constant(ins.type, int(S.fcmp(ins.pred, a.value, b.value)))
    return None


def _fold_select(ins: I.Select) -> Value | None:
    c = _as_int(ins.operands[0])
    if c is not None:
        return ins.operands[1] if c else ins.operands[2]
    if ins.operands[1] is ins.operands[2]:
        return ins.operands[1]
    return None


def _fold_gep(ins: I.GEP) -> Value | None:
    base, idx = ins.operands
    iv = _as_int(idx)
    if iv is not None and iv % (1 << idx.type.bits) == 0 and base.type is ins.type:  # type: ignore[union-attr]
        return base
    return None


def _fold_extract(ins: I.ExtractElement) -> Value | None:
    vec, idx = ins.operands
    if isinstance(vec, ConstantVector) and isinstance(idx, Constant):
        return vec.elements[idx.value]
    return None  # further patterns live in instcombine


def _fold_insert(ins: I.InsertElement) -> Value | None:
    vec, val, idx = ins.operands
    if isinstance(vec, ConstantVector) and isinstance(idx, Constant) and \
            isinstance(val, (Constant, ConstantFP)):
        elems = list(vec.elements)
        elems[idx.value] = val
        return ConstantVector(vec.type, tuple(elems))
    return None


def _fold_binop(ins: I.BinOp) -> Value | None:
    t = ins.type
    a, b = ins.operands
    kind = Constant if isinstance(t, IntType) else ConstantFP
    if not (isinstance(a, kind) and isinstance(b, kind)):
        return None
    if b.value == 0 and ins.opcode in _KEEPS_ZERO_DIVISOR:
        return None
    return _constant(t, S.binop_fn(ins.opcode, t)(a.value, b.value))


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


def _cast_folds(op: str, v: Value, dst: Type) -> bool:
    """The (cast, kind of constant ``v``) pairs that fold."""
    if isinstance(v, Constant):
        return op in _INT_CONSTANT_CASTS or (op == "bitcast" and (
            isinstance(dst, VectorType) or (v.type is I64 and dst is DOUBLE)))
    if isinstance(v, ConstantFP):
        return op == "fptosi" or (
            op == "bitcast" and v.type is DOUBLE and dst is I64)
    return op == "bitcast" and isinstance(dst, (IntType, VectorType))


def _fold_cast(ins: I.Cast) -> Value | None:
    (v,) = ins.operands
    dst = ins.type
    op = ins.opcode
    if op == "ptrtoint":
        addr = resolve_const_pointer(v)
        if addr is not None:
            return Constant(dst, addr)
    if op == "bitcast" and v.type is dst:
        return v
    value = _python_value(v)
    if value is not None and _cast_folds(op, v, dst):
        return _constant(dst, S.cast_fn(op, v.type, dst)(value))
    if isinstance(v, Undef):
        return Undef(dst)
    return None


#: the fold of each instruction class that has one, found by ``type(ins)``,
#: and the classes no fold touches (``tests/ir/test_pass_rules.py`` checks
#: that every instruction class is in exactly one of the two)
RULES = {
    I.BinOp: _fold_binop, I.ICmp: _fold_icmp, I.FCmp: _fold_fcmp,
    I.Select: _fold_select, I.Cast: _fold_cast, I.GEP: _fold_gep,
    I.ExtractElement: _fold_extract, I.InsertElement: _fold_insert,
}
NO_RULE = frozenset({I.Load, I.Store, I.Alloca, I.ShuffleVector, I.Phi,
                     I.Call, I.Br, I.Ret, I.Unreachable})


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
    if isinstance(type_, (IntType, DoubleType, FloatType)):
        return _constant(type_, S.from_bytes(data[offset: offset + size], type_))
    # pointers inside fixed memory are *not* followed (Sec. IV: nested
    # pointers are not marked constant), and a vector is not folded
    return None
