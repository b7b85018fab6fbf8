"""End-to-end BinaryTransformer tests plus a three-way differential:
native simulation vs lifted-IR interpretation vs re-JITted simulation."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import compile_c
from repro.cpu import Simulator
from repro.ir import Interpreter, verify
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory

PROGRAMS = [
    # (source, fn, param classes, ret class, test args)
    ("long f(long a, long b) { return a * b - (a ^ b); }", "f", ("i", "i"), "i",
     [(3, 4), (100, -7), (0, 0)]),
    ("long f(long n) { long s = 1; while (n > 1) { s *= n; n--; } return s; }",
     "f", ("i",), "i", [(1,), (5,), (10,)]),
    ("double f(double x, double y) { if (x < y) return y - x; return x * y; }",
     "f", ("f", "f"), "f", [(1.0, 2.0), (3.0, 0.5)]),
    ("long f(long a) { long r = 0; for (long i = 0; i < 16; i++) if ((a >> i) & 1) r++; return r; }",
     "f", ("i",), "i", [(0xFFFF,), (0b1010101,), (0,)]),
    ("long f(long a, long b, long c) { return a > b ? (b > c ? b : c) : (a > c ? a : c); }",
     "f", ("i", "i", "i"), "i", [(1, 2, 3), (3, 2, 1), (2, 3, 1)]),
]


@pytest.mark.parametrize("src,fn,params,ret,cases", PROGRAMS)
def test_three_way_differential(src, fn, params, ret, cases):
    prog = compile_c(src)
    img = prog.image
    sim = Simulator(img)
    tx = BinaryTransformer(img)
    res = tx.llvm_identity(fn, FunctionSignature(params, ret), name=fn + "_tx")
    verify(res.function)
    interp = Interpreter(res.module, img.memory)
    for case in cases:
        iargs = tuple(a & (2**64 - 1) for a in case if isinstance(a, int))
        fargs = tuple(a for a in case if isinstance(a, float))
        if ret == "i":
            want = sim.call_int(fn, iargs, fargs)
            got_jit = sim.call_int(fn + "_tx", iargs, fargs)
            got_ir = interp.run(res.function, list(iargs) + list(fargs))
            got_ir = got_ir - 2**64 if got_ir >= 2**63 else got_ir
        else:
            want = sim.call_f64(fn, iargs, fargs)
            got_jit = sim.call_f64(fn + "_tx", iargs, fargs)
            got_ir = interp.run(res.function, list(iargs) + list(fargs))
        assert got_jit == want, (case, got_jit, want)
        assert got_ir == want, (case, got_ir, want)


def test_transform_reports_stage_timings():
    prog = compile_c("long f(long a) { return a + 1; }")
    tx = BinaryTransformer(prog.image)
    res = tx.llvm_identity("f", FunctionSignature(("i",), "i"))
    assert res.lift_seconds > 0
    assert res.optimize_seconds > 0
    assert res.codegen_seconds > 0
    assert res.total_seconds == pytest.approx(
        res.lift_seconds + res.optimize_seconds + res.codegen_seconds
    )


def test_llvm_fixed_specializes_memory():
    prog = compile_c("""
    long f(long* cfg, long x) { return cfg[0] * x + cfg[1]; }
    """)
    img = prog.image
    data = img.alloc_data(16)
    img.memory.write_u64(data, 3)
    img.memory.write_u64(data + 8, 100)
    tx = BinaryTransformer(img)
    res = tx.llvm_fixed("f", FunctionSignature(("i", "i"), "i"),
                        {0: FixedMemory(data, 16)}, name="f_fix")
    sim = Simulator(img)
    assert sim.call_int("f_fix", (0, 7)) == 121
    # the constants are baked in: loads from the region are gone
    assert not any(i.opcode == "load" for i in res.function.instructions())


def test_llvm_fixed_scalar_parameter():
    prog = compile_c("long f(long a, long b) { return a * b; }")
    tx = BinaryTransformer(prog.image)
    res = tx.llvm_fixed("f", FunctionSignature(("i", "i"), "i"),
                        {0: 9}, name="f_fix9")
    sim = Simulator(prog.image)
    assert sim.call_int("f_fix9", (12345, 6)) == 54


def test_llvm_fixed_double_parameter():
    prog = compile_c("double f(double k, double x) { return k * x; }")
    tx = BinaryTransformer(prog.image)
    res = tx.llvm_fixed("f", FunctionSignature(("f", "f"), "f"),
                        {0: 2.5}, name="f_k")
    sim = Simulator(prog.image)
    assert sim.call_f64("f_k", (), (0.0, 4.0)) == 10.0


@pytest.mark.parametrize("x,want", [
    (float("nan"), -(1 << 63)), (float("inf"), -(1 << 63)),
    (1e30, -(1 << 63)), (-1e30, -(1 << 63)), (3.7, 3),
], ids=repr)
def test_float_to_int_agrees_native_llvm_and_fixed(x, want):
    """Out-of-range (long)x is the x86 integer indefinite on every path —
    including the compile path that folds the fixed constant."""
    prog = compile_c("long f(double x) { return (long)x; }")
    sig = FunctionSignature(("f",), "i")
    tx = BinaryTransformer(prog.image)
    tx.llvm_identity("f", sig, name="f_llvm")
    tx.llvm_fixed("f", sig, {0: x}, name="f_fix")
    sim = Simulator(prog.image)
    assert sim.call_int("f", (), (x,)) == want
    assert sim.call_int("f_llvm", (), (x,)) == want
    assert sim.call_int("f_fix", (), (0.0,)) == want


def test_dbrew_then_llvm_composition():
    prog = compile_c("""
    long f(long* v, long n) {
        long s = 0;
        for (long i = 0; i < n; i++) s += v[i] * v[i];
        return s;
    }
    """)
    img = prog.image
    v = img.alloc_data(8 * 4)
    for i in range(4):
        img.memory.write_u64(v + 8 * i, i + 1)
    from repro.dbrew import Rewriter
    r = Rewriter(img, "f").set_signature(("i", "i")) \
        .set_par(0, v).set_par(1, 4).set_mem(v, v + 32)
    dbrew_addr = r.rewrite(name="f_dbrew")
    tx = BinaryTransformer(img)
    res = tx.llvm_identity(dbrew_addr, FunctionSignature(("i", "i"), "i"),
                           name="f_both")
    sim = Simulator(img)
    want = sum((i + 1) ** 2 for i in range(4))
    assert sim.call_int("f_dbrew", (0, 0)) == want
    assert sim.call_int("f_both", (0, 0)) == want
    # LLVM post-processing must not be worse than raw DBrew output
    c_dbrew = sim.call("f_dbrew", (0, 0)).stats.cycles
    c_both = sim.call("f_both", (0, 0)).stats.cycles
    assert c_both <= c_dbrew


# -- randomized differential over generated C programs ------------------------------

_ops = ["+", "-", "*", "&", "|", "^"]


@st.composite
def expr(draw, depth=0):
    if depth > 2 or draw(st.booleans()):
        return draw(st.sampled_from(["a", "b", str(draw(st.integers(-100, 100)))]))
    lhs = draw(expr(depth + 1))
    rhs = draw(expr(depth + 1))
    op = draw(st.sampled_from(_ops))
    return f"({lhs} {op} {rhs})"


@settings(max_examples=20, deadline=None)
@given(e=expr(), a=st.integers(-(2**30), 2**30), b=st.integers(-(2**30), 2**30))
def test_random_expression_differential(e, a, b):
    src = f"long f(long a, long b) {{ return {e}; }}"
    prog = compile_c(src)
    img = prog.image
    sim = Simulator(img)
    tx = BinaryTransformer(img)
    tx.llvm_identity("f", FunctionSignature(("i", "i"), "i"), name="f_tx")
    ua, ub = a & (2**64 - 1), b & (2**64 - 1)
    assert sim.call_int("f_tx", (ua, ub)) == sim.call_int("f", (ua, ub))
