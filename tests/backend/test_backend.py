"""TAC, register allocation, and emission unit tests."""

import itertools

import pytest

from repro.backend.emit import EmitOptions, _synth_mult, emit_function
from repro.backend.opt import fuse_movs, local_propagate, dead_code_elim, optimize
from repro.backend.regalloc import allocate, build_intervals
from repro.backend.tac import TAddr, TFunc, TInstr, VReg
from repro.cpu import Image, Simulator
from repro.cc.compiler import RodataPool
from repro.ir import DOUBLE, Function, FunctionType, IRBuilder, Module
from repro.ir.codegen.lower import lower_function_info
from repro.x86.asm import assemble_full
from repro.x86.decoder import decode_block


def simple_func(name="f"):
    tf = TFunc(name=name)
    return tf


def install(tf, options):
    """Emit ``tf`` under ``options`` into a fresh image; returns it."""
    img = Image()
    items = emit_function(tf, RodataPool(img), options)
    code, _p, labels = assemble_full(items, img.next_code_addr())
    img.add_function(tf.name, code)
    img.symbols[tf.name] = labels[tf.name]
    return img


def run_tfunc(tf, int_args=(), f64_args=(), mul_style="imul"):
    img = install(tf, EmitOptions(mul_style=mul_style))
    return Simulator(img).call(tf.name, int_args, f64_args)


def lowered(ret, params, body):
    """The TAC of IR function ``f`` whose entry block ``body(b, args)``
    builds, as lowered for emission (no TAC clean-up)."""
    m = Module("t")
    f = Function("f", FunctionType(ret, tuple(params)))
    m.add_function(f)
    body(IRBuilder(f.add_block("entry")), f.args)
    return lower_function_info(f)[0]


# -- synth_mult -------------------------------------------------------------


@pytest.mark.parametrize("imm", [2, 3, 5, 8, 9, 10, 25, 45, 81, 100, 649, 648])
def test_synth_mult_finds_chains(imm):
    steps = _synth_mult(imm)
    assert steps is not None
    # simulate the chain
    m = 1
    for kind, s in steps:
        if kind == "scale":
            m *= s
        elif kind == "lea":
            m *= s + 1
        elif kind == "leax":
            m = m * s + 1
        else:
            m <<= s
    assert m == imm


def test_synth_mult_gives_up_on_hard_constants():
    assert _synth_mult(641) is None or len(_synth_mult(641)) <= 3


def test_synth_mult_rejects_nonpositive():
    assert _synth_mult(0) is None
    assert _synth_mult(-5) is None


# -- end-to-end TAC programs ----------------------------------------------------


def test_tac_add_function():
    tf = simple_func()
    a = tf.new_vreg("i")
    b = tf.new_vreg("i")
    r = tf.new_vreg("i")
    tf.iparams = (a, b)
    tf.ret_cls = "i"
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="add", dst=r, a=a, b=b))
    blk.instrs.append(TInstr(op="ret", a=r))
    assert run_tfunc(tf, (30, 12)).int_value == 42


def test_tac_mul_imm_both_styles():
    """``imm=1``: under ``lea`` _synth_mult returns an empty chain, and the
    emitter used to leave the destination unwritten (found by the machine
    verifier, fixed in _emit_synth_mult)."""
    for imm, style in itertools.product((649, 1), ("imul", "lea")):
        tf = simple_func()
        a = tf.new_vreg("i")
        r = tf.new_vreg("i")
        tf.iparams = (a,)
        tf.ret_cls = "i"
        blk = tf.block("entry")
        blk.instrs.append(TInstr(op="mul", dst=r, a=a, b=imm))
        blk.instrs.append(TInstr(op="ret", a=r))
        assert run_tfunc(tf, (7,), mul_style=style).int_value == 7 * imm


def test_riprel_vs_absolute_const_addressing():
    """The JIT loads constants RIP-relative; MCC can also address them
    absolutely (``CompilerOptions.const_addressing``)."""
    for mode, form in (("riprel", "riprel"), ("absolute", "is_absolute")):
        tf = lowered(DOUBLE, (), lambda b, _a: b.ret(b.fconst(DOUBLE, 3.25)))
        img = install(tf, EmitOptions(const_addressing=mode))
        addr, code = img.symbol("f"), img.function_bytes("f")
        load = next(i for i in decode_block(code, addr, len(code),
                                            base_addr=addr)
                    if i.mnemonic == "movsd")
        assert getattr(load.operands[1], form), mode
        assert Simulator(img).call_f64("f") == 3.25


def test_tac_division_uses_reserved_regs():
    tf = simple_func()
    a = tf.new_vreg("i")
    b = tf.new_vreg("i")
    q = tf.new_vreg("i")
    tf.iparams = (a, b)
    tf.ret_cls = "i"
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="div", dst=q, a=a, b=b))
    blk.instrs.append(TInstr(op="ret", a=q))
    assert run_tfunc(tf, (100, 7)).int_value == 14


def test_tac_width4_ops_zero_extend():
    tf = simple_func()
    a = tf.new_vreg("i")
    r = tf.new_vreg("i")
    tf.iparams = (a,)
    tf.ret_cls = "i"
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="add", dst=r, a=a, b=1, width=4))
    blk.instrs.append(TInstr(op="ret", a=r))
    # 0xFFFFFFFF + 1 in 32-bit = 0, zero-extended
    assert run_tfunc(tf, (0xFFFFFFFF,)).int_value == 0


def test_tac_float_roundtrip():
    tf = simple_func()
    x = tf.new_vreg("f")
    y = tf.new_vreg("f")
    r = tf.new_vreg("f")
    tf.fparams = (x, y)
    tf.ret_cls = "f"
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="fmul", dst=r, a=x, b=y))
    blk.instrs.append(TInstr(op="ret", a=r))
    assert run_tfunc(tf, (), (2.5, 4.0)).f64_value == 10.0


def test_tac_select_via_cmov():
    tf = simple_func()
    a = tf.new_vreg("i")
    b = tf.new_vreg("i")
    r = tf.new_vreg("i")
    tf.iparams = (a, b)
    tf.ret_cls = "i"
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="mov", dst=r, a=a))
    blk.instrs.append(TInstr(op="cmp", a=a, b=b))
    blk.instrs.append(TInstr(op="cmov", dst=r, cc="l", a=b))
    blk.instrs.append(TInstr(op="ret", a=r))
    assert run_tfunc(tf, (3, 9)).int_value == 9
    assert run_tfunc(tf, (9, 3)).int_value == 9


def test_tac_vector_ops():
    tf = simple_func()
    x = tf.new_vreg("f")
    v = tf.new_vreg("v")
    v2 = tf.new_vreg("v")
    hi = tf.new_vreg("f")
    tf.fparams = (x,)
    tf.ret_cls = "f"
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="vbroadcast", dst=v, a=x))
    blk.instrs.append(TInstr(op="vadd", dst=v2, a=v, b=v))
    blk.instrs.append(TInstr(op="vhadd", dst=hi, a=v2))
    blk.instrs.append(TInstr(op="ret", a=hi))
    # broadcast x -> [x,x]; double -> [2x,2x]; hadd -> 4x
    assert run_tfunc(tf, (), (1.5,)).f64_value == 6.0


def test_tac_bits_roundtrip():
    tf = simple_func()
    a = tf.new_vreg("i")
    f = tf.new_vreg("f")
    r = tf.new_vreg("i")
    tf.iparams = (a,)
    tf.ret_cls = "i"
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="bits2f", dst=f, a=a))
    blk.instrs.append(TInstr(op="f2bits", dst=r, a=f))
    blk.instrs.append(TInstr(op="ret", a=r))
    bits = 0x3FF0000000000000  # 1.0
    assert run_tfunc(tf, (bits,)).rax == bits


# -- optimizer passes -----------------------------------------------------------


def test_local_propagate_folds_constants():
    tf = simple_func()
    a = tf.new_vreg("i")
    b = tf.new_vreg("i")
    c = tf.new_vreg("i")
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="li", dst=a, imm=6))
    blk.instrs.append(TInstr(op="li", dst=b, imm=7))
    blk.instrs.append(TInstr(op="mul", dst=c, a=a, b=b))
    blk.instrs.append(TInstr(op="ret", a=c))
    local_propagate(tf)
    ops = [i.op for i in blk.instrs]
    assert ops.count("mul") == 0
    assert any(i.op == "li" and i.imm == 42 for i in blk.instrs)


def test_dead_code_elim_removes_unused():
    tf = simple_func()
    a = tf.new_vreg("i")
    dead = tf.new_vreg("i")
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="li", dst=a, imm=1))
    blk.instrs.append(TInstr(op="li", dst=dead, imm=99))
    blk.instrs.append(TInstr(op="ret", a=a))
    dead_code_elim(tf)
    assert len(blk.instrs) == 2


def test_fuse_movs_removes_copy():
    tf = simple_func()
    a = tf.new_vreg("i")
    t = tf.new_vreg("i")
    home = tf.new_vreg("i")
    tf.iparams = (a,)
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="add", dst=t, a=a, b=1))
    blk.instrs.append(TInstr(op="mov", dst=home, a=t))
    blk.instrs.append(TInstr(op="ret", a=home))
    fuse_movs(tf)
    assert [i.op for i in blk.instrs] == ["add", "ret"]
    assert blk.instrs[0].dst == home


def test_fuse_movs_respects_rmw_hazard():
    # add t, a, home ; mov home, t  --> fusing would read home after writing
    tf = simple_func()
    a = tf.new_vreg("i")
    home = tf.new_vreg("i")
    t = tf.new_vreg("i")
    tf.iparams = (a, home)
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="sub", dst=t, a=a, b=home))
    blk.instrs.append(TInstr(op="mov", dst=home, a=t))
    blk.instrs.append(TInstr(op="ret", a=home))
    fuse_movs(tf)
    # the unsafe fusion must not happen (b == new_dst)
    assert [i.op for i in blk.instrs] == ["sub", "mov", "ret"]


# -- register allocation ---------------------------------------------------------


def test_allocator_spills_under_pressure():
    tf = simple_func()
    blk = tf.block("entry")
    vregs = [tf.new_vreg("i") for _ in range(20)]
    for v in vregs:
        blk.instrs.append(TInstr(op="li", dst=v, imm=1))
    total = tf.new_vreg("i")
    blk.instrs.append(TInstr(op="li", dst=total, imm=0))
    prev = total
    for v in vregs:  # all 20 live simultaneously at the first add
        nxt = tf.new_vreg("i")
        blk.instrs.append(TInstr(op="add", dst=nxt, a=prev, b=v))
        prev = nxt
    blk.instrs.append(TInstr(op="ret", a=prev))
    result = allocate(tf)
    spilled = [a for a in result.assignments.values() if not a.is_reg]
    assert spilled  # pressure forces spills
    tf.ret_cls = "i"
    assert run_tfunc(tf).int_value == 20  # and the code still works


def test_intervals_cover_loop_backedge():
    tf = simple_func()
    i = tf.new_vreg("i")
    one = tf.new_vreg("i")
    head = tf.block("head")
    body = tf.block("body")
    exit_ = tf.block("exit")
    head.instrs.append(TInstr(op="br", cc="l", a=i, b=10, labels=("body", "exit")))
    body.instrs.append(TInstr(op="add", dst=i, a=i, b=one))
    body.instrs.append(TInstr(op="jmp", labels=("head",)))
    exit_.instrs.append(TInstr(op="ret", a=i))
    intervals, _ = build_intervals(tf)
    iv = next(x for x in intervals if x.vreg == one)
    # `one` is live-in to body across the back edge: interval must span it
    assert iv.end > iv.start


def test_callee_saved_for_call_crossing():
    tf = simple_func()
    a = tf.new_vreg("i")
    r = tf.new_vreg("i")
    tf.iparams = (a,)
    tf.ret_cls = "i"
    blk = tf.block("entry")
    blk.instrs.append(TInstr(op="call", dst=r, func="ext", iargs=(a,)))
    blk.instrs.append(TInstr(op="add", dst=r, a=r, b=a))  # `a` crosses the call
    blk.instrs.append(TInstr(op="ret", a=r))
    result = allocate(tf)
    from repro.backend.regalloc import INT_CALLEE_POOL
    assign = result.assignments[a]
    assert (not assign.is_reg) or assign.value in INT_CALLEE_POOL
