"""MiniLLVM core: types, builder, verifier, printer."""

import pytest

from repro.errors import IRError
from repro.ir import (
    DOUBLE, I1, I8, I32, I64, I128, V2F64, VOID,
    Function, FunctionType, IRBuilder, Module, Undef, verify,
    print_function,
)
from repro.ir.irtypes import IntType, PointerType, VectorType, ptr
from repro.ir.values import Constant, ConstantFP, ConstantVector


# -- types -------------------------------------------------------------------


def test_int_types_interned():
    assert IntType(64) is I64
    assert IntType(32) is I32


def test_bad_int_width_rejected():
    with pytest.raises(ValueError):
        IntType(24)


def test_pointer_types_interned():
    assert ptr(I64) is ptr(I64)
    assert ptr(I64) is not ptr(I32)
    assert ptr(I8, 256) is not ptr(I8)


def test_sizes():
    assert I64.size_bytes() == 8
    assert I128.size_bytes() == 16
    assert V2F64.size_bytes() == 16
    assert ptr(DOUBLE).size_bytes() == 8
    assert VectorType(DOUBLE, 4).size_bytes() == 32


def test_constant_masks_to_width():
    c = Constant(I8, 0x1FF)
    assert c.value == 0xFF
    assert c.signed == -1
    assert repr(c) == "i8 -1"


def test_constant_requires_int_type():
    with pytest.raises(TypeError):
        Constant(DOUBLE, 1)


def test_constant_vector_zeroinitializer_rendering():
    z = ConstantVector(V2F64, (ConstantFP(DOUBLE, 0.0), ConstantFP(DOUBLE, 0.0)))
    assert z.short() == "zeroinitializer"


# -- builder & verifier -----------------------------------------------------------


def build_simple():
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    return m, f, b


def test_verifier_accepts_wellformed():
    _m, f, b = build_simple()
    b.ret(b.add(f.args[0], b.const(I64, 1)))
    verify(f)


def test_verifier_rejects_missing_terminator():
    _m, f, b = build_simple()
    b.add(f.args[0], b.const(I64, 1))
    with pytest.raises(IRError, match="terminator"):
        verify(f)


def test_verifier_rejects_type_mismatch():
    _m, f, b = build_simple()
    from repro.ir.instructions import BinOp
    bad = BinOp("add", f.args[0], Constant(I32, 1))
    bad.name = "bad"
    f.entry.append(bad)
    b.ret(f.args[0])
    with pytest.raises(IRError, match="type mismatch"):
        verify(f)


def test_verifier_rejects_use_before_def():
    _m, f, b = build_simple()
    v1 = b.add(f.args[0], b.const(I64, 1))
    v2 = b.add(v1, b.const(I64, 2))
    blk = f.entry
    i1 = blk.instructions.index(v1)
    i2 = blk.instructions.index(v2)
    blk.instructions[i1], blk.instructions[i2] = blk.instructions[i2], blk.instructions[i1]
    b.ret(v2)
    with pytest.raises(IRError, match="before definition"):
        verify(f)


def test_verifier_rejects_non_dominating_use():
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64, I64)))
    m.add_function(f)
    e = f.add_block("entry")
    t = f.add_block("then")
    o = f.add_block("other")
    j = f.add_block("join")
    b = IRBuilder(e)
    c = b.icmp("slt", f.args[0], f.args[1])
    b.cond_br(c, t, o)
    b = IRBuilder(t)
    v = b.add(f.args[0], b.const(I64, 1))
    b.br(j)
    b = IRBuilder(o)
    b.br(j)
    b = IRBuilder(j)
    b.ret(v)  # v only defined on the then-path
    with pytest.raises(IRError, match="dominate"):
        verify(f)


def test_verifier_rejects_phi_incoming_mismatch():
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    e = f.add_block("entry")
    j = f.add_block("join")
    IRBuilder(e).br(j)
    b = IRBuilder(j)
    phi = b.phi(I64)
    # no incoming registered for the entry edge
    b.ret(phi)
    with pytest.raises(IRError, match="incoming"):
        verify(f)


def test_verifier_rejects_ret_type():
    _m, f, b = build_simple()
    b.ret(b.fconst(DOUBLE, 1.0))
    with pytest.raises(IRError, match="ret"):
        verify(f)


def test_verifier_ignores_unreachable_blocks():
    _m, f, b = build_simple()
    b.ret(f.args[0])
    dead = f.add_block("dead")
    db = IRBuilder(dead)
    v = db.add(f.args[0], db.const(I64, 1))
    db.ret(v)
    verify(f)  # dead block uses are not dominance-checked


def test_builder_bitcast_same_type_is_noop():
    _m, f, b = build_simple()
    assert b.bitcast(f.args[0], I64) is f.args[0]


def test_verifier_rejects_invalid_cast():
    _m, f, b = build_simple()
    from repro.ir.instructions import Cast
    bad = Cast("trunc", f.args[0], I128)  # trunc must narrow
    bad.name = "bad"
    f.entry.append(bad)
    b.ret(f.args[0])
    with pytest.raises(IRError, match="invalid trunc"):
        verify(f)


# -- printer -----------------------------------------------------------------------


def test_printer_round_shape():
    _m, f, b = build_simple()
    v = b.add(f.args[0], b.const(I64, 5), "sum")
    b.ret(v)
    text = print_function(f)
    assert "define i64 @f(i64 %arg0)" in text
    assert "%sum = add i64 %arg0, 5" in text
    assert "ret i64 %sum" in text


def test_printer_phi_and_branches():
    m = Module("t")
    f = Function("g", FunctionType(I64, (I1,)))
    m.add_function(f)
    e = f.add_block("entry")
    a = f.add_block("a")
    j = f.add_block("j")
    b = IRBuilder(e)
    b.cond_br(f.args[0], a, j)
    IRBuilder(a).br(j)
    bj = IRBuilder(j)
    phi = bj.phi(I64, "x")
    phi.add_incoming(Constant(I64, 1), e)
    phi.add_incoming(Constant(I64, 2), a)
    bj.ret(phi)
    text = print_function(f)
    assert "br i1 %arg0, label %a, label %j" in text
    assert "phi i64 [ 1, %entry ], [ 2, %a ]" in text


def test_module_duplicate_function_rejected():
    m = Module("t")
    m.add_function(Function("f", FunctionType(VOID, ())))
    with pytest.raises(IRError):
        m.add_function(Function("f", FunctionType(VOID, ())))
