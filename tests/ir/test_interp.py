"""IR interpreter semantics, including property tests against Python ints."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IRInterpError
from repro.ir import (
    DOUBLE, I1, I8, I32, I64, I128, V2F64,
    Function, FunctionType, IRBuilder, Interpreter, Module, verify, ptr,
)
from repro.ir.values import Constant, ConstantFP


def build_binop_fn(op, t=I64):
    m = Module("t")
    f = Function("f", FunctionType(t, (t, t)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.binop(op, f.args[0], f.args[1]))
    verify(f)
    return Interpreter(m)


U64 = st.integers(min_value=0, max_value=2**64 - 1)


def signed(v, bits=64):
    s = 1 << (bits - 1)
    return (v & (s - 1)) - (v & s)


@given(a=U64, b=U64)
def test_add_matches_python(a, b):
    assert build_binop_fn("add").run("f", [a, b]) == (a + b) % 2**64


@given(a=U64, b=U64)
def test_mul_matches_python(a, b):
    assert build_binop_fn("mul").run("f", [a, b]) == (a * b) % 2**64


@given(a=U64, b=st.integers(min_value=1, max_value=2**63 - 1))
def test_sdiv_truncates(a, b):
    got = build_binop_fn("sdiv").run("f", [a, b])
    # exact truncating division: float-based int(x / y) loses precision
    # beyond 2**53 and would reject correct results for large magnitudes
    sa = signed(a)
    expected = -(-sa // b) if sa < 0 else sa // b
    assert signed(got) == expected


@given(a=U64, b=st.integers(min_value=0, max_value=63))
def test_lshr_matches(a, b):
    assert build_binop_fn("lshr").run("f", [a, b]) == a >> b


@given(a=U64, b=st.integers(min_value=0, max_value=63))
def test_ashr_matches(a, b):
    got = build_binop_fn("ashr").run("f", [a, b])
    assert signed(got) == signed(a) >> b


def test_sdiv_by_zero_raises():
    with pytest.raises(IRInterpError):
        build_binop_fn("sdiv").run("f", [1, 0])


@given(a=st.integers(min_value=-(2**63), max_value=2**63 - 1),
       b=st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_icmp_slt(a, b):
    m = Module("t")
    f = Function("f", FunctionType(I1, (I64, I64)))
    m.add_function(f)
    builder = IRBuilder(f.add_block("entry"))
    builder.ret(builder.icmp("slt", f.args[0], f.args[1]))
    assert Interpreter(m).run("f", [a & (2**64 - 1), b & (2**64 - 1)]) == int(a < b)


def test_fcmp_unordered_handling():
    m = Module("t")
    f = Function("f", FunctionType(I1, (DOUBLE, DOUBLE)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.fcmp("uno", f.args[0], f.args[1]))
    i = Interpreter(m)
    assert i.run("f", [float("nan"), 1.0]) == 1
    assert i.run("f", [1.0, 2.0]) == 0


def test_memory_load_store():
    m = Module("t")
    f = Function("f", FunctionType(I64, (ptr(I64),)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    v = b.load(f.args[0])
    b.store(b.add(v, b.const(I64, 1)), f.args[0])
    b.ret(v)
    i = Interpreter(m)
    i.memory.map(0x100, 8)
    i.memory.write_u64(0x100, 41)
    assert i.run("f", [0x100]) == 41
    assert i.memory.read_u64(0x100) == 42


def test_alloca_isolated_per_call():
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    slot = b.alloca(I64, 8)
    b.store(f.args[0], slot)
    b.ret(b.load(slot))
    i = Interpreter(m)
    assert i.run("f", [7]) == 7
    assert i.run("f", [9]) == 9


def test_vector_ops():
    m = Module("t")
    f = Function("f", FunctionType(DOUBLE, (DOUBLE, DOUBLE)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    from repro.ir import Undef
    v = b.insertelement(Undef(V2F64), f.args[0], 0)
    v = b.insertelement(v, f.args[1], 1)
    v2 = b.fadd(v, v)
    sw = b.shufflevector(v2, v2, (1, 0))
    b.ret(b.extractelement(sw, 0))
    assert Interpreter(m).run("f", [1.0, 3.0]) == 6.0  # 2*args[1]


def test_bitcast_double_int():
    m = Module("t")
    f = Function("f", FunctionType(I64, (DOUBLE,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.bitcast(f.args[0], I64))
    assert Interpreter(m).run("f", [1.0]) == 0x3FF0000000000000


def test_call_between_functions():
    m = Module("t")
    callee = Function("sq", FunctionType(I64, (I64,)))
    m.add_function(callee)
    b = IRBuilder(callee.add_block("entry"))
    b.ret(b.mul(callee.args[0], callee.args[0]))
    caller = Function("f", FunctionType(I64, (I64,)))
    m.add_function(caller)
    b = IRBuilder(caller.add_block("entry"))
    r = b.call(callee, [caller.args[0]], I64)
    b.ret(b.add(r, b.const(I64, 1)))
    assert Interpreter(m).run("f", [6]) == 37


def test_extern_function_hook():
    m = Module("t")
    decl = Function("ext", FunctionType(I64, (I64,)))
    decl.is_declaration = True
    m.add_function(decl)
    caller = Function("f", FunctionType(I64, (I64,)))
    m.add_function(caller)
    b = IRBuilder(caller.add_block("entry"))
    b.ret(b.call(decl, [caller.args[0]], I64))
    i = Interpreter(m, extern_functions={"ext": lambda x: x * 3})
    assert i.run("f", [5]) == 15


def test_ctpop_intrinsic():
    m = Module("t")
    f = Function("f", FunctionType(I8, (I8,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.call("llvm.ctpop.i8", [f.args[0]], I8))
    assert Interpreter(m).run("f", [0b10110100]) == 4


def test_step_limit():
    m = Module("t")
    f = Function("f", FunctionType(I64, ()))
    m.add_function(f)
    e = f.add_block("entry")
    IRBuilder(e).br(e)  # infinite loop
    i = Interpreter(m)
    i.max_steps = 100
    with pytest.raises(IRInterpError, match="step limit"):
        i.run("f", [])


def test_globals_placed_lazily():
    from repro.ir import GlobalVariable
    m = Module("t")
    g = GlobalVariable("data", I8, bytes([1, 2, 3, 4]))
    m.add_global(g)
    f = Function("f", FunctionType(I32, ()))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    p = b.bitcast(g, ptr(I32))
    b.ret(b.load(p))
    assert Interpreter(m).run("f", []) == 0x04030201


def test_each_interpreter_places_globals_in_its_own_memory():
    """Two interpreters over one module, each on a fresh memory: the
    second must not take the first one's placement for its own (it used
    to, and read 0 from memory nobody had written)."""
    from repro.ir import GlobalVariable
    m = Module("t")
    g = m.add_global(GlobalVariable("data", I8, bytes([1, 2, 3, 4])))
    f = Function("f", FunctionType(I32, ()))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.load(b.bitcast(g, ptr(I32))))
    first, second = Interpreter(m), Interpreter(m)
    assert first.run("f", []) == 0x04030201
    assert second.run("f", []) == 0x04030201
    assert g.addr is None  # placement is the interpreter's, not the IR's


def test_phi_of_a_global_address():
    # a phi whose incoming value is a global takes the closure move path
    import struct
    from repro.ir import GlobalVariable
    m = Module("t")
    g = m.add_global(GlobalVariable("g", I64, struct.pack("<q", 42)))
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    entry, a, b_, join = (f.add_block(n) for n in ("entry", "a", "b", "join"))
    b = IRBuilder(entry)
    b.cond_br(b.icmp("ne", f.args[0], b.const(I64, 0)), a, b_)
    IRBuilder(a).br(join)
    IRBuilder(b_).br(join)
    b = IRBuilder(join)
    p = b.phi(ptr(I64))
    p.add_incoming(g, a)
    p.add_incoming(g, b_)
    b.ret(b.load(p))
    verify(f)
    interp = Interpreter(m)
    assert interp.run("f", [1]) == interp.run("f", [0]) == 42


def test_uninterpretable_ir_is_a_typed_error():
    from repro.ir import instructions as I
    m = Module("t")
    callee = Function("c", FunctionType(I64, (I64,)))
    m.add_function(callee)
    IRBuilder(callee.add_block("entry")).ret(callee.args[0])
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.call(callee, [callee], I64))
    with pytest.raises(IRInterpError, match="function pointers"):
        Interpreter(m).run("f", [1])
    # a phi below the block's leading run has no statement form
    h = Function("h", FunctionType(I64, (I64,)))
    m.add_function(h)
    b = IRBuilder(h.add_block("entry"))
    s = b.add(h.args[0], b.const(I64, 1))
    h.entry.append(I.Phi(I64, "late"))
    b.ret(s)
    with pytest.raises(IRInterpError, match="cannot interpret phi"):
        Interpreter(m).run("h", [1])
