"""Optimization pass unit tests: each pass in isolation plus the pipeline."""

import struct

import pytest

from repro.ir import (
    DOUBLE, I1, I8, I32, I64, I128, V2F64,
    Function, FunctionType, GlobalVariable, IRBuilder, Interpreter, Module,
    Undef, verify, ptr,
)
from repro.ir.passes import O3Options, run_o3
from repro.ir.passes import constprop, dce, gvn, inline, instcombine, simplifycfg, unroll
from repro.ir.values import Constant, ConstantFP


def fresh(params=(I64,), ret=I64, name="f"):
    m = Module("t")
    f = Function(name, FunctionType(ret, tuple(params)))
    m.add_function(f)
    return m, f, IRBuilder(f.add_block("entry"))


def n_instrs(f):
    return sum(len(b.instructions) for b in f.blocks)


# -- mem2reg -------------------------------------------------------------------


def test_mem2reg_casts_a_type_punned_entry_slot():
    # store i64, load double: the promoted value is bitcast at the load
    from repro.cpu import Image
    from repro.ir.passes import mem2reg
    m, f, b = fresh(ret=DOUBLE)
    slot = b.alloca(I64)
    b.store(f.args[0], slot)
    b.ret(b.load(b.bitcast(slot, ptr(DOUBLE))))
    bits = struct.unpack("<q", struct.pack("<d", 2.5))[0]
    memory = Image().memory
    assert Interpreter(m, memory).run(f, [bits]) == 2.5
    assert mem2reg.run(f)
    verify(f)
    assert not any(i.opcode in ("load", "store") for i in f.entry.instructions)
    assert Interpreter(m, memory).run(f, [bits]) == 2.5


# -- constprop -----------------------------------------------------------------


def test_constprop_folds_arith():
    _m, f, b = fresh(())
    x = b.add(b.const(I64, 40), b.const(I64, 2))
    b.ret(x)
    constprop.run(f)
    verify(f)
    assert n_instrs(f) == 1


def test_constprop_folds_constant_global_loads():
    m, f, b = fresh(())
    g = GlobalVariable("c", I8, struct.pack("<q", 1234))
    m.add_global(g)
    p = b.bitcast(g, ptr(I64))
    b.ret(b.load(p))
    constprop.run(f)
    dce.run(f)
    verify(f)
    from repro.ir.instructions import Ret
    ret = f.entry.instructions[-1]
    assert isinstance(ret, Ret) and isinstance(ret.value, Constant)
    assert ret.value.value == 1234


def test_constprop_does_not_fold_mutable_global():
    m, f, b = fresh(())
    g = GlobalVariable("v", I8, struct.pack("<q", 5), constant=False)
    m.add_global(g)
    b.ret(b.load(b.bitcast(g, ptr(I64))))
    constprop.run(f)
    assert any(i.opcode == "load" for i in f.instructions())


def test_constprop_does_not_follow_nested_pointers():
    # Sec. IV: a pointer loaded out of a fixed region is opaque
    m, f, b = fresh(())
    g = GlobalVariable("s", I8, struct.pack("<Q", 0xDEAD0000))
    m.add_global(g)
    pp = b.bitcast(g, ptr(ptr(I64)))
    inner = b.load(pp)  # pointer-typed load: not folded
    b.ret(b.ptrtoint(inner, I64))
    constprop.run(f)
    assert any(i.opcode == "load" for i in f.instructions())


def test_constprop_resolves_ptrtoint_chains():
    _m, f, b = fresh(())
    p = b.inttoptr(b.const(I64, 0x1000), ptr(I8))
    p2 = b.gep_i(p, 0x24)
    b.ret(b.ptrtoint(p2, I64))
    constprop.run(f)
    dce.run(f)
    ret = f.entry.instructions[-1]
    assert isinstance(ret.value, Constant) and ret.value.value == 0x1024


# -- instcombine ---------------------------------------------------------------


def test_instcombine_identities():
    _m, f, b = fresh()
    x = f.args[0]
    v = b.add(x, b.const(I64, 0))
    v = b.mul(v, b.const(I64, 1))
    v = b.or_(v, b.const(I64, 0))
    v = b.xor(v, b.const(I64, 0))
    b.ret(v)
    instcombine.run(f)
    verify(f)
    assert n_instrs(f) == 1  # just ret x


def test_instcombine_facet_cast_chain():
    _m, f, b = fresh((DOUBLE,), DOUBLE)
    v = b.insertelement(Undef(V2F64), f.args[0], 0)
    i = b.bitcast(v, I128)
    back = b.bitcast(i, V2F64)
    b.ret(b.extractelement(back, 0))
    instcombine.run(f)
    dce.run(f)
    verify(f)
    assert n_instrs(f) == 1


def test_instcombine_zero_flag_pattern_recovered():
    # icmp eq (sub a b), 0 -> icmp eq a, b (LLVM recognizes this one)
    _m, f, b = fresh((I64, I64), I1)
    s = b.sub(f.args[0], f.args[1])
    b.ret(b.icmp("eq", s, b.const(I64, 0)))
    instcombine.run(f)
    dce.run(f)
    cmp = f.entry.instructions[0]
    assert cmp.opcode == "icmp"
    assert cmp.operands[0] is f.args[0] and cmp.operands[1] is f.args[1]


def test_instcombine_does_not_recover_signed_lt_bit_pattern():
    # Fig. 6b: sf != of via xor chains must NOT become icmp slt
    _m, f, b = fresh((I64, I64), I1)
    a, c = f.args
    cmp = b.sub(a, c)
    sf = b.icmp("slt", cmp, b.const(I64, 0))
    t1 = b.xor(cmp, a)
    t2 = b.xor(c, a)
    t3 = b.and_(t1, t2)
    of = b.icmp("slt", t3, b.const(I64, 0))
    b.ret(b.xor(sf, of))
    before = n_instrs(f)
    instcombine.run(f)
    dce.run(f)
    # the bit-arithmetic chain survives (no icmp slt a, c appears)
    assert not any(
        i.opcode == "icmp" and i.pred == "slt"
        and i.operands[0] is a and i.operands[1] is c
        for i in f.instructions()
    )
    assert n_instrs(f) >= before - 1


def test_instcombine_gep_chain_folding():
    _m, f, b = fresh((ptr(I8),), I64)
    p = b.gep_i(f.args[0], 8)
    p2 = b.gep_i(p, 16)
    b.ret(b.ptrtoint(p2, I64))
    instcombine.run(f)
    dce.run(f)
    geps = [i for i in f.instructions() if i.opcode == "gep"]
    assert len(geps) == 1
    assert geps[0].operands[1].value == 24


def test_instcombine_fastmath_reassociation():
    _m, f, b = fresh((DOUBLE, DOUBLE), DOUBLE)
    c = b.fconst(DOUBLE, 0.25)
    m1 = b.fmul(c, f.args[0])
    m2 = b.fmul(c, f.args[1])
    b.ret(b.fadd(m1, m2))
    instcombine.run(f, fast_math=True)
    dce.run(f)
    muls = [i for i in f.instructions() if i.opcode == "fmul"]
    assert len(muls) == 1  # 0.25*(a+b)


def test_instcombine_no_fastmath_without_flag():
    _m, f, b = fresh((DOUBLE,), DOUBLE)
    b.ret(b.fadd(f.args[0], b.fconst(DOUBLE, 0.0)))
    instcombine.run(f, fast_math=False)
    assert any(i.opcode == "fadd" for i in f.instructions())


# -- dce --------------------------------------------------------------------------


def test_dce_removes_phi_cycles():
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    e = f.add_block("entry")
    h = f.add_block("head")
    x = f.add_block("exit")
    IRBuilder(e).br(h)
    b = IRBuilder(h)
    dead_phi = b.phi(I64, "dead")
    live = b.phi(I64, "live")
    dead2 = b.add(dead_phi, b.const(I64, 1))
    c = b.icmp("slt", live, b.const(I64, 10))
    live2 = b.add(live, b.const(I64, 1))
    b.cond_br(c, h, x)
    dead_phi.add_incoming(Constant(I64, 0), e)
    dead_phi.add_incoming(dead2, h)
    live.add_incoming(Constant(I64, 0), e)
    live.add_incoming(live2, h)
    IRBuilder(x).ret(live)
    verify(f)
    dce.run(f)
    verify(f)
    names = {i.name for i in f.instructions()}
    assert "dead" not in names
    assert "live" in names


def test_dce_keeps_stores_and_calls():
    m, f, b = fresh((ptr(I64),), I64)
    decl = Function("ext", FunctionType(I64, ()))
    decl.is_declaration = True
    m.add_function(decl)
    b.store(b.const(I64, 1), f.args[0])
    b.call(decl, [], I64)  # result unused but side effects possible
    b.ret(b.const(I64, 0))
    dce.run(f)
    ops = [i.opcode for i in f.instructions()]
    assert "store" in ops and "call" in ops


def test_dce_removes_pure_intrinsics():
    _m, f, b = fresh((I8,), I8)
    b.call("llvm.ctpop.i8", [f.args[0]], I8)  # unused
    b.ret(f.args[0])
    dce.run(f)
    assert not any(i.opcode == "call" for i in f.instructions())


# -- simplifycfg -------------------------------------------------------------------


def test_simplifycfg_folds_constant_branch():
    m, f, b = fresh((), I64)
    t = f.blocks[0].function.add_block("t")
    o = f.blocks[0].function.add_block("o")
    b.cond_br(Constant(I1, 1), t, o)
    IRBuilder(t).ret(Constant(I64, 1))
    IRBuilder(o).ret(Constant(I64, 2))
    simplifycfg.run(f)
    verify(f)
    assert len(f.blocks) == 1
    assert f.entry.instructions[-1].value.value == 1


def test_simplifycfg_merges_straight_line():
    m, f, b = fresh((I64,), I64)
    nxt = f.add_block("next")
    b.br(nxt)
    nb = IRBuilder(nxt)
    nb.ret(f.args[0])
    simplifycfg.run(f)
    assert len(f.blocks) == 1


def test_simplifycfg_phi_undef_requires_dominance():
    # phi [v, A], [undef, B] where v does not dominate the join: must stay
    m = Module("t")
    f = Function("f", FunctionType(I64, (I1, I64)))
    m.add_function(f)
    e = f.add_block("entry")
    a = f.add_block("a")
    c = f.add_block("c")
    j = f.add_block("j")
    b = IRBuilder(e)
    b.cond_br(f.args[0], a, c)
    ab = IRBuilder(a)
    v = ab.add(f.args[1], ab.const(I64, 1))
    ab.br(j)
    IRBuilder(c).br(j)
    jb = IRBuilder(j)
    phi = jb.phi(I64, "p")
    phi.add_incoming(v, a)
    phi.add_incoming(Undef(I64), c)
    jb.ret(phi)
    verify(f)
    simplifycfg.run(f)
    verify(f)  # must still be valid SSA whatever it did


# -- gvn -----------------------------------------------------------------------------


def test_gvn_cse_within_block():
    _m, f, b = fresh((I64, I64), I64)
    x1 = b.add(f.args[0], f.args[1])
    x2 = b.add(f.args[0], f.args[1])
    b.ret(b.mul(x1, x2))
    gvn.run(f)
    adds = [i for i in f.instructions() if i.opcode == "add"]
    assert len(adds) == 1


def test_gvn_commutative_normalization():
    _m, f, b = fresh((I64, I64), I64)
    x1 = b.add(f.args[0], f.args[1])
    x2 = b.add(f.args[1], f.args[0])
    b.ret(b.mul(x1, x2))
    gvn.run(f)
    assert len([i for i in f.instructions() if i.opcode == "add"]) == 1


def test_gvn_is_block_local():
    # redundancy across blocks survives (the paper's cross-block limitation)
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64, I64)))
    m.add_function(f)
    e = f.add_block("entry")
    n = f.add_block("next")
    b = IRBuilder(e)
    x1 = b.add(f.args[0], f.args[1])
    b.br(n)
    nb = IRBuilder(n)
    x2 = nb.add(f.args[0], f.args[1])
    nb.ret(nb.mul(x1, x2))
    gvn.run(f)
    assert len([i for i in f.instructions() if i.opcode == "add"]) == 2


def test_gvn_store_load_forwarding():
    _m, f, b = fresh((ptr(I64), I64), I64)
    b.store(f.args[1], f.args[0])
    v = b.load(f.args[0])
    b.ret(v)
    gvn.run(f)
    dce.run(f)
    assert not any(i.opcode == "load" for i in f.instructions())


def test_gvn_load_invalidated_by_store():
    _m, f, b = fresh((ptr(I64), ptr(I64)), I64)
    v1 = b.load(f.args[0])
    b.store(b.const(I64, 9), f.args[1])  # may alias
    v2 = b.load(f.args[0])
    b.ret(b.add(v1, v2))
    gvn.run(f)
    assert len([i for i in f.instructions() if i.opcode == "load"]) == 2


# -- inline -----------------------------------------------------------------------


def test_inline_always_inline():
    m = Module("t")
    callee = Function("c", FunctionType(I64, (I64,)))
    m.add_function(callee)
    cb = IRBuilder(callee.add_block("entry"))
    cb.ret(cb.mul(callee.args[0], callee.args[0]))
    callee.always_inline = True
    caller = Function("f", FunctionType(I64, (I64,)))
    m.add_function(caller)
    b = IRBuilder(caller.add_block("entry"))
    b.ret(b.call(callee, [caller.args[0]], I64))
    inline.run(caller)
    simplifycfg.run(caller)
    verify(caller)
    assert not any(i.opcode == "call" for i in caller.instructions())
    assert Interpreter(m).run("f", [7]) == 49


def test_inline_multi_return_builds_phi():
    m = Module("t")
    callee = Function("absv", FunctionType(I64, (I64,)))
    m.add_function(callee)
    e = callee.add_block("entry")
    neg = callee.add_block("neg")
    pos = callee.add_block("pos")
    cb = IRBuilder(e)
    c = cb.icmp("slt", callee.args[0], cb.const(I64, 0))
    cb.cond_br(c, neg, pos)
    nb = IRBuilder(neg)
    nb.ret(nb.sub(nb.const(I64, 0), callee.args[0]))
    IRBuilder(pos).ret(callee.args[0])
    callee.always_inline = True

    caller = Function("f", FunctionType(I64, (I64,)))
    m.add_function(caller)
    b = IRBuilder(caller.add_block("entry"))
    b.ret(b.call(callee, [caller.args[0]], I64))
    inline.run(caller)
    verify(caller)
    i = Interpreter(m)
    assert i.run("f", [(-5) & (2**64 - 1)]) == 5
    assert i.run("f", [5]) == 5


def test_inline_refuses_recursion():
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.call(f, [f.args[0]], I64))
    f.always_inline = True
    assert not inline.run(f)


def test_inline_small_function_heuristic():
    m = Module("t")
    callee = Function("tiny", FunctionType(I64, (I64,)))
    m.add_function(callee)
    cb = IRBuilder(callee.add_block("entry"))
    cb.ret(cb.add(callee.args[0], cb.const(I64, 1)))
    # NOT marked always_inline: size heuristic triggers
    caller = Function("f", FunctionType(I64, (I64,)))
    m.add_function(caller)
    b = IRBuilder(caller.add_block("entry"))
    b.ret(b.call(callee, [caller.args[0]], I64))
    assert inline.run(caller)


# -- unroll --------------------------------------------------------------------------


def build_counted_loop(trip, step=1):
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    e = f.add_block("entry")
    h = f.add_block("head")
    body = f.add_block("body")
    x = f.add_block("exit")
    IRBuilder(e).br(h)
    b = IRBuilder(h)
    i = b.phi(I64, "i")
    s = b.phi(I64, "s")
    c = b.icmp("slt", i, b.const(I64, trip))
    b.cond_br(c, body, x)
    bb = IRBuilder(body)
    s2 = bb.add(s, f.args[0])
    i2 = bb.add(i, bb.const(I64, step))
    bb.br(h)
    i.add_incoming(Constant(I64, 0), e)
    i.add_incoming(i2, body)
    s.add_incoming(Constant(I64, 0), e)
    s.add_incoming(s2, body)
    IRBuilder(x).ret(s)
    verify(f)
    return m, f


def test_unroll_constant_trip():
    m, f = build_counted_loop(5)
    unroll.run(f)
    verify(f)
    from repro.ir.passes import simplifycfg as scfg
    scfg.run(f)
    assert len(f.blocks) == 1
    assert Interpreter(m).run("f", [3]) == 15


def test_unroll_respects_max_trip():
    m, f = build_counted_loop(1000)
    blocks_before = len(f.blocks)
    unroll.run(f)
    verify(f)
    assert len(f.blocks) >= blocks_before  # loop survives
    assert Interpreter(m).run("f", [1]) == 1000


def test_unroll_zero_trip_loop_removed():
    m, f = build_counted_loop(0)
    unroll.run(f)
    verify(f)
    assert Interpreter(m).run("f", [3]) == 0
    assert len(f.blocks) == 1


# -- pipeline ---------------------------------------------------------------------


def test_o3_is_idempotent_on_clean_code():
    _m, f, b = fresh((I64,))
    b.ret(b.add(f.args[0], b.const(I64, 1)))
    run_o3(f)
    n1 = n_instrs(f)
    run_o3(f)
    assert n_instrs(f) == n1


def test_o3_ablation_options():
    m, f = build_counted_loop(4)
    run_o3(f, O3Options(enable_unroll=False))
    verify(f)
    assert len(f.blocks) > 1  # loop not unrolled
    assert Interpreter(m).run("f", [2]) == 8
