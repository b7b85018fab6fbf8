"""Lifter tests: semantics preservation (simulator vs interpreted lifted IR),
block discovery, facets, flags, and the Fig. 5/6 examples."""

import struct

import pytest

from repro.cc import compile_c
from repro.cpu import Image, Simulator
from repro.errors import LiftError
from repro.ir import Interpreter, Module, print_function, verify
from repro.ir.passes import run_o3
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.lift.blocks import discover
from repro.x86 import parse_asm
from repro.x86.asm import assemble


def lift_c(src, fn, signature, *, options=None, optimize=False):
    """Compile C, lift fn, return (image, simulator, module, function)."""
    prog = compile_c(src)
    img = prog.image
    m = Module("t")
    opts = options or LiftOptions()
    opts.name = fn + ".lifted"
    f = lift_function(img.memory, img.symbol(fn), signature, opts, m)
    verify(f)
    if optimize:
        run_o3(f)
        verify(f)
    return img, Simulator(img), m, f


def check_int(src, fn, params, cases, *, optimize=True):
    img, sim, m, f = lift_c(src, fn, FunctionSignature(params, "i"),
                            optimize=optimize)
    interp = Interpreter(m, img.memory)
    for args in cases:
        uargs = tuple(a & (2**64 - 1) for a in args)
        want = sim.call_int(fn, uargs)
        got = interp.run(f, list(uargs))
        got_signed = got - 2**64 if got >= 2**63 else got
        assert got_signed == want, (args, got_signed, want)


# -- arithmetic / control flow ----------------------------------------------------


def test_lift_arith():
    check_int("long f(long a, long b) { return (a + b) * (a - b); }",
              "f", ("i", "i"), [(3, 2), (10, -4), (0, 0)])


def test_lift_division():
    check_int("long f(long a, long b) { return a / b + a % b; }",
              "f", ("i", "i"), [(100, 7), (-100, 7)])


def test_lift_bitops_shifts():
    check_int("long f(long a, long b) { return ((a & b) | (a ^ 12)) << 2 >> 1; }",
              "f", ("i", "i"), [(0b1100, 0b1010), (255, 1)])


def test_lift_comparisons_and_branches():
    src = """
    long f(long a, long b) {
        if (a < b) return 1;
        if (a == b) return 2;
        if (a > 100) return 3;
        return 4;
    }
    """
    check_int(src, "f", ("i", "i"), [(1, 2), (2, 2), (200, 2), (50, 2)])


def test_lift_jcc_to_fallthrough_single_edge():
    # `a < a` branches compile to a Jcc whose target IS the fall-through
    # block; the lifter must emit one CFG edge (an unconditional br), or the
    # successor's phis list the predecessor twice (hypothesis-found)
    src = """
    long f(long a, long b) {
        long x = a;
        if (a < a) { x = b; } else { if (a < a) { x = x; } }
        return x;
    }
    """
    img, sim, m, f = lift_c(src, "f", FunctionSignature(("i", "i"), "i"))
    for blk in f.blocks:
        preds = list(f.predecessors(blk))
        assert len(preds) == len(set(preds)), blk.name
    check_int(src, "f", ("i", "i"), [(0, 0), (5, 9), (-3, 7)])


def test_lift_unsigned_compare():
    check_int("long f(unsigned long a, unsigned long b) { return a < b; }",
              "f", ("i", "i"), [(1, 2), (-1, 2), (2, -1)])


def test_lift_loop():
    src = "long f(long n) { long s = 0; for (long i = 0; i < n; i++) s += i; return s; }"
    check_int(src, "f", ("i",), [(0,), (1,), (10,), (100,)])


def test_lift_nested_loops():
    src = """
    long f(long n) {
        long s = 0;
        for (long i = 0; i < n; i++)
            for (long j = 0; j <= i; j++)
                s += j;
        return s;
    }
    """
    check_int(src, "f", ("i",), [(0,), (3,), (7,)])


def test_lift_narrow_int_semantics():
    src = "int f(int a, int b) { return a * b; }"
    check_int(src, "f", ("i", "i"), [(70000, 70000), (-5, 7)])


def test_lift_char_access():
    src = "long f(char* p, long i) { return p[i]; }"
    prog = compile_c(src)
    img = prog.image
    a = img.alloc_data(8)
    img.memory.write(a, bytes([0x7F, 0x80, 0x01, 0xFF, 0, 0, 0, 0]))
    m = Module("t")
    f = lift_function(img.memory, img.symbol("f"),
                      FunctionSignature(("i", "i"), "i"),
                      LiftOptions(name="f.lifted"), m)
    run_o3(f)
    verify(f)
    sim = Simulator(img)
    interp = Interpreter(m, img.memory)
    for i in range(4):
        want = sim.call_int("f", (a, i))
        got = interp.run(f, [a, i])
        assert (got - 2**64 if got >= 2**63 else got) == want


def test_lift_double_math():
    src = "double f(double a, double b) { return a * b + a / b - 1.5; }"
    img, sim, m, f = lift_c(src, "f", FunctionSignature(("f", "f"), "f"),
                            optimize=True)
    interp = Interpreter(m, img.memory)
    for a, b in [(2.0, 4.0), (-1.5, 0.5), (1e10, 3.0)]:
        assert interp.run(f, [a, b]) == sim.call_f64("f", (), (a, b))


def test_lift_double_compare_branch():
    src = "long f(double a, double b) { if (a < b) return 1; return 0; }"
    img, sim, m, f = lift_c(src, "f", FunctionSignature(("f", "f"), "i"),
                            optimize=True)
    interp = Interpreter(m, img.memory)
    for a, b in [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)]:
        assert interp.run(f, [a, b]) == sim.call_int("f", (), (a, b))


def test_lift_mixed_int_double():
    src = "double f(double* v, long n) { double s = 0.0; for (long i = 0; i < n; i++) s += v[i] * i; return s; }"
    prog = compile_c(src)
    img = prog.image
    a = img.alloc_data(8 * 6)
    img.memory.write(a, struct.pack("<6d", *[0.5, 1.5, 2.5, 3.5, 4.5, 5.5]))
    m = Module("t")
    f = lift_function(img.memory, img.symbol("f"),
                      FunctionSignature(("i", "i"), "f"),
                      LiftOptions(name="g"), m)
    run_o3(f)
    verify(f)
    want = Simulator(img).call_f64("f", (a, 6))
    assert Interpreter(m, img.memory).run(f, [a, 6]) == want


def test_lift_call_with_declared_signature():
    src = """
    long helper(long x) { return x * 3; }
    long f(long a) { return helper(a) + 1; }
    """
    prog = compile_c(src)
    img = prog.image
    m = Module("t")
    opts = LiftOptions(name="f.lifted", known_functions={
        img.symbol("helper"): ("helper", FunctionSignature(("i",), "i")),
    })
    f = lift_function(img.memory, img.symbol("f"),
                      FunctionSignature(("i",), "i"), opts, m)
    verify(f)
    # declared callee is interpreted through an extern hook
    interp = Interpreter(m, img.memory,
                         extern_functions={"helper": lambda x: (x * 3) & (2**64 - 1)})
    assert interp.run(f, [5]) == 16


def test_lift_unknown_call_rejected():
    src = """
    long helper(long x) { return x; }
    long f(long a) { return helper(a); }
    """
    prog = compile_c(src)
    with pytest.raises(LiftError, match="unknown function"):
        lift_function(prog.image.memory, prog.image.symbol("f"),
                      FunctionSignature(("i",), "i"), LiftOptions(name="x"),
                      Module("t"))


def test_lift_stack_promotion():
    # address-taken local forces stack traffic; mem2reg must clean it
    src = """
    void set7(long* p) { *p = *p + 7; }
    long f(long a) { long x = a; set7(&x); return x; }
    """
    prog = compile_c(src)
    img = prog.image
    m = Module("t")
    opts = LiftOptions(name="f.lifted", known_functions={
        img.symbol("set7"): ("set7", FunctionSignature(("i",), None)),
    })
    f = lift_function(img.memory, img.symbol("f"),
                      FunctionSignature(("i",), "i"), opts, m)
    verify(f)


# -- block discovery ---------------------------------------------------------------


def test_discover_splits_jump_targets():
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm("""
        xor eax, eax
    head:
        add rax, 1
        cmp rax, rdi
        jl head
        ret
    """), base=base)
    img.add_function("f", code)
    cfg = discover(img.memory, base)
    assert len(cfg.blocks) == 3  # entry, head (split), after-loop
    starts = sorted(cfg.blocks)
    assert starts[0] == base


def test_discover_rejects_indirect_jump():
    from repro.x86.instr import make, gp
    img = Image()
    # craft: jmp rax is not encodable by our encoder; decode a push as stand-in
    # instead test the call-target variant via raw bytes ff e0 (jmp rax)
    addr = img.next_code_addr()
    img.add_function("f", b"\xff\xe0")
    with pytest.raises(LiftError):
        discover(img.memory, addr)


def test_lifted_block_count_matches_cfg():
    src = "long f(long a) { if (a > 0) return a; return -a; }"
    prog = compile_c(src)
    cfg = discover(prog.image.memory, prog.image.symbol("f"))
    m = Module("t")
    f = lift_function(prog.image.memory, prog.image.symbol("f"),
                      FunctionSignature(("i",), "i"), LiftOptions(name="g"), m)
    # entry block + one IR block per guest block
    assert len(f.blocks) == len(cfg.blocks) + 1


def test_same_spec_builds_do_not_share_a_cfg_across_candidates():
    """Two images of one program start out equal; once they install
    different candidates of equal length at the same address (fix 5 in
    one, fix 9 in the other), lifting the candidate must decode each
    image's own bytes."""
    def candidate(k: int):
        build = Image()
        code, _ = assemble(parse_asm("mov rax, rdi\nret"),
                           base=build.next_code_addr())
        build.add_function("f", code)
        base = build.next_code_addr(jit=True)
        cand, _ = assemble(parse_asm(f"mov rax, rdi\nadd rax, {k}\nret"),
                           base=base)
        assert build.add_function("f.cand", cand, jit=True) == base
        return build, cand, discover(build.memory, base)

    _, c5, cfg5 = candidate(5)
    _, c9, cfg9 = candidate(9)
    assert len(c5) == len(c9) and c5 != c9
    imm = [[ins.operands[1].value for blk in cfg.blocks.values()
            for ins in blk.instructions if ins.mnemonic == "add"]
           for cfg in (cfg5, cfg9)]
    assert imm == [[5], [9]]


# -- Fig. 5 / Fig. 6 shapes --------------------------------------------------------


def lift_asm(asmtext, signature, name="f"):
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(asmtext), base=base)
    img.add_function(name, code)
    m = Module("t")
    f = lift_function(img.memory, base, signature, LiftOptions(name=name), m)
    verify(f)
    return img, m, f


def test_fig5_sub_lifts_directly():
    _img, _m, f = lift_asm("sub rax, 1\nret", FunctionSignature((), "i"))
    text = print_function(f)
    assert "sub i64" in text


def test_fig5_addsd_facet_chain():
    # the chain is built where it is live: the upper lane is read after the
    # scalar add, so the merge into the old vector has a reader
    _img, _m, f = lift_asm("addsd xmm0, xmm1\nmovhpd [rdi], xmm0\nret",
                           FunctionSignature(("i", "f", "f"), "f"))
    text = print_function(f)
    assert "bitcast i128" in text
    assert "fadd double" in text
    assert "insertelement <2 x double>" in text
    assert "extractelement <2 x double>" in text
    # and nowhere else: without that reader only the scalar add is lifted
    _img, _m, f = lift_asm("addsd xmm0, xmm1\nret",
                           FunctionSignature(("f", "f"), "f"))
    assert [i.opcode for i in f.blocks[1].instructions] == [
        "phi", "phi", "fadd", "ret"]


def test_fig6_flag_cache_produces_select_icmp():
    asm = """
        mov rax, rdi
        cmp rdi, rsi
        cmovl rax, rsi
        ret
    """
    _img, _m, f = lift_asm(asm, FunctionSignature(("i", "i"), "i"))
    run_o3(f)
    verify(f)
    text = print_function(f)
    # Fig. 6c: single icmp slt + select
    assert "icmp slt i64" in text
    assert "select i1" in text
    assert "xor" not in text


def test_fig6_without_flag_cache_keeps_bit_arithmetic():
    asm = """
        mov rax, rdi
        cmp rdi, rsi
        cmovl rax, rsi
        ret
    """
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    img.add_function("f", code)
    m = Module("t")
    f = lift_function(img.memory, base, FunctionSignature(("i", "i"), "i"),
                      LiftOptions(name="f", flag_cache=False), m)
    run_o3(f)
    verify(f)
    text = print_function(f)
    # Fig. 6b: xor-of-sign-bits survives the optimizer
    assert "xor" in text
    # and the code is still correct
    interp = Interpreter(m, img.memory)
    sim = Simulator(img)
    for a, b in [(3, 9), (9, 3), (2**63, 5)]:
        assert interp.run(f, [a, b]) == sim.call_int("f", (a, b)) % 2**64


def test_facet_cache_reduces_instruction_count():
    asm = """
        addsd xmm0, xmm1
        addsd xmm0, xmm1
        addsd xmm0, xmm1
        ret
    """
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    img.add_function("f", code)

    counts = {}
    for cache in (True, False):
        m = Module("t")
        f = lift_function(img.memory, base, FunctionSignature(("f", "f"), "f"),
                          LiftOptions(name="f", facet_cache=cache), m)
        counts[cache] = sum(len(b.instructions) for b in f.blocks)
    assert counts[True] < counts[False]


def test_lift_vectorized_code():
    # movapd / addpd / movupd lift as <2 x double> ops
    asm = """
        movupd xmm0, [rdi]
        movapd xmm1, [rsi]
        addpd xmm0, xmm1
        movupd [rdi], xmm0
        ret
    """
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    img.add_function("f", code)
    m = Module("t")
    f = lift_function(img.memory, base, FunctionSignature(("i", "i"), None),
                      LiftOptions(name="f"), m)
    verify(f)
    text = print_function(f)
    assert "load <2 x double>" in text
    assert "align 16" in text  # the movapd alignment guarantee is metadata
    a = img.alloc_data(16, align=16)
    bptr = img.alloc_data(16, align=16)
    img.memory.write_f64(a, 1.0)
    img.memory.write_f64(a + 8, 2.0)
    img.memory.write_f64(bptr, 10.0)
    img.memory.write_f64(bptr + 8, 20.0)
    Interpreter(m, img.memory).run(f, [a, bptr])
    assert img.memory.read_f64(a) == 11.0
    assert img.memory.read_f64(a + 8) == 22.0


@pytest.mark.parametrize("params,ret", [
    (("f64",), "i"), (("I",), "i"), (("p",), None), (("i", ""), "f"),
    (("i",), "i64"), (("i",), "v"),
])
def test_signature_rejects_unknown_classes(params, ret):
    """Anything but 'i' used to be lifted silently as a double."""
    with pytest.raises(LiftError) as exc:
        FunctionSignature(params, ret)
    assert exc.value.context["stage"] == "lift"


def test_lift_ret_f64_signature():
    _img, m, f = lift_asm("movsd xmm0, xmm1\nret", FunctionSignature(("f", "f"), "f"))
    assert Interpreter(m).run(f, [1.0, 2.5]) == 2.5
