"""DBrew rewriter tests: emulation, specialization, forks, widening, API."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import compile_c
from repro.cpu import Image, Simulator
from repro.dbrew import Rewriter
from repro.dbrew.metastate import MetaState, MetaValue, VSP_BASE, is_stack_address
from repro.errors import LiftError, RewriteError
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature
from repro.x86 import parse_asm
from repro.x86.asm import assemble


def compile_and_sim(src):
    prog = compile_c(src)
    return prog.image, Simulator(prog.image)


# -- metastate ----------------------------------------------------------------


def test_metavalue_masks():
    assert MetaValue.of(-1).value == 2**64 - 1
    assert MetaValue.of(1 << 127, 128).value == 1 << 127


def test_stack_address_classification():
    assert is_stack_address(VSP_BASE)
    assert is_stack_address(VSP_BASE - 4096)
    assert not is_stack_address(0x400000)


def test_stack_slot_subword_reads():
    st_ = MetaState()
    st_.stack_write(-8, 8, MetaValue.of(0x1122334455667788))
    assert st_.stack_read(-8, 4).value == 0x55667788
    assert st_.stack_read(-4, 4).value == 0x11223344
    assert st_.stack_read(-6, 2).value == 0x5566


def test_stack_slot_partial_write_merges():
    st_ = MetaState()
    st_.stack_write(-8, 8, MetaValue.of(0))
    st_.stack_write(-8, 4, MetaValue.of(0xAABBCCDD))
    assert st_.stack_read(-8, 8).value == 0xAABBCCDD


def test_stack_unknown_poisons():
    st_ = MetaState()
    st_.stack_write(-8, 8, MetaValue.of(7))
    st_.stack_write(-8, 4, MetaValue.unknown())
    assert not st_.stack_read(-8, 8).known


def test_digest_distinguishes_values():
    a = MetaState()
    b = MetaState()
    assert a.digest() == b.digest()
    b.gpr[3] = MetaValue.of(9)
    assert a.digest() != b.digest()


# -- basic rewriting ----------------------------------------------------------------


def test_identity_rewrite_preserves_semantics():
    img, sim = compile_and_sim(
        "long f(long a, long b) { if (a < b) return a * 3; return b - a; }"
    )
    r = Rewriter(img, "f").set_signature(("i", "i"))
    addr = r.rewrite(name="f_id")
    assert addr != img.symbol("f")
    for a, b in [(1, 5), (5, 1), (0, 0), (2**63, 1)]:
        assert sim.call_int("f_id", (a, b)) == sim.call_int("f", (a, b))


def test_full_constant_folding():
    img, sim = compile_and_sim("long f(long a, long b) { return a * b + 3; }")
    r = Rewriter(img, "f").set_signature(("i", "i")).set_par(0, 6).set_par(1, 7)
    addr = r.rewrite(name="f_c")
    assert sim.call_int("f_c", (0, 0)) == 45
    res = sim.call("f_c", (0, 0))
    # specialized code is a handful of instructions
    assert res.stats.instructions < 10


def test_branch_folding_with_known_condition():
    img, sim = compile_and_sim(
        "long f(long a, long b) { if (a < 10) return b + 1; return b - 1; }"
    )
    r = Rewriter(img, "f").set_signature(("i", "i")).set_par(0, 5)
    addr = r.rewrite(name="f_b")
    assert sim.call_int("f_b", (999, 41)) == 42
    # the not-taken path is not even in the generated code
    code = img.function_bytes("f_b")
    from repro.x86.decoder import decode_block
    instrs = decode_block(code, addr, len(code), base_addr=addr)
    assert not any(i.mnemonic.startswith("j") and i.mnemonic != "jmp"
                   for i in instrs)


def test_setmem_folds_loads():
    img, sim = compile_and_sim("long f(long* p, long x) { return p[0] * x + p[1]; }")
    data = img.alloc_data(16)
    img.memory.write_u64(data, 100)
    img.memory.write_u64(data + 8, 23)
    r = Rewriter(img, "f").set_signature(("i", "i")) \
        .set_par(0, data).set_mem(data, data + 16)
    r.rewrite(name="f_m")
    assert sim.call_int("f_m", (0, 7)) == 723
    # no loads from the fixed region remain
    code = img.function_bytes("f_m")
    from repro.x86.decoder import decode_block
    from repro.x86.instr import Mem
    instrs = decode_block(code, img.symbol("f_m"), len(code), base_addr=img.symbol("f_m"))
    for ins in instrs:
        for op in ins.operands:
            if isinstance(op, Mem) and op.is_absolute:
                assert not data <= op.disp < data + 16


def test_known_pointer_without_setmem_keeps_loads():
    img, sim = compile_and_sim("long f(long* p) { return p[0]; }")
    data = img.alloc_data(8)
    img.memory.write_u64(data, 55)
    r = Rewriter(img, "f").set_signature(("i",)).set_par(0, data)
    r.rewrite(name="f_nm")
    img.memory.write_u64(data, 66)  # data may change at runtime
    assert sim.call_int("f_nm", (0,)) == 66


def test_loop_full_unroll_with_known_bound():
    img, sim = compile_and_sim("""
    long f(long* v, long n) {
        long s = 0;
        for (long i = 0; i < n; i++) s += v[i];
        return s;
    }
    """)
    v = img.alloc_data(8 * 5)
    for i in range(5):
        img.memory.write_u64(v + 8 * i, i + 1)
    r = Rewriter(img, "f").set_signature(("i", "i")).set_par(1, 5)
    r.rewrite(name="f_u")
    res = sim.call("f_u", (v, 0))
    assert res.int_value == 15
    assert res.stats.taken_branches == 0  # fully unrolled: straight line


def test_generic_loop_closes_via_digest():
    img, sim = compile_and_sim("""
    long f(long* v, long n) {
        long s = 0;
        for (long i = 0; i < n; i++) s += v[i];
        return s;
    }
    """)
    v = img.alloc_data(8 * 64)
    for i in range(64):
        img.memory.write_u64(v + 8 * i, i)
    r = Rewriter(img, "f").set_signature(("i", "i"))
    r.rewrite(name="f_g")
    assert sim.call_int("f_g", (v, 64)) == sum(range(64))
    assert r.stats.points < 10  # the loop must not unroll 64 times


def test_widening_bounds_unrolling():
    img, sim = compile_and_sim("""
    long f(long* v, long n) {
        long s = 0;
        for (long i = 0; i < n; i++) s += v[i];
        return s;
    }
    """)
    v = img.alloc_data(8 * 64)
    for i in range(64):
        img.memory.write_u64(v + 8 * i, 2 * i)
    r = Rewriter(img, "f").set_signature(("i", "i")).set_par(1, 64)
    r.set_unroll_limit(4)
    r.rewrite(name="f_w")
    assert r.stats.widenings >= 1
    assert sim.call_int("f_w", (v, 0)) == sum(2 * i for i in range(64))


def test_call_inlining():
    img, sim = compile_and_sim("""
    long sq(long x) { return x * x; }
    long f(long a) { return sq(a) + sq(a + 1); }
    """)
    r = Rewriter(img, "f").set_signature(("i",))
    r.rewrite(name="f_i")
    res = sim.call("f_i", (5,))
    assert res.int_value == 25 + 36
    assert res.stats.per_mnemonic.get("call", 0) == 0  # calls inlined


def test_call_beyond_inline_depth_emitted():
    img, sim = compile_and_sim("""
    long sq(long x) { return x * x; }
    long f(long a) { return sq(a) + 1; }
    """)
    r = Rewriter(img, "f").set_signature(("i",)).set_inline_depth(0)
    r.rewrite(name="f_d0")
    res = sim.call("f_d0", (6,))
    assert res.int_value == 37
    assert res.stats.per_mnemonic.get("call", 0) == 1


def test_double_parameter_fixation():
    img, sim = compile_and_sim("double f(double a, double b) { return a * b; }")
    r = Rewriter(img, "f").set_signature(("f", "f"), "f").set_par_f64(0, 2.5)
    r.rewrite(name="f_f")
    assert sim.call_f64("f_f", (), (0.0, 4.0)) == 10.0


def test_default_error_handler_returns_original():
    img, _sim = compile_and_sim("long f(long a) { return a; }")
    r = Rewriter(img, "f").set_signature(("i",))
    r.code_size_limit = 1  # impossible budget -> internal error
    addr = r.rewrite(name="f_tiny")
    assert addr == img.symbol("f")  # Sec. II default fallback


def test_custom_error_handler_invoked():
    img, _sim = compile_and_sim("long f(long a) { return a; }")
    r = Rewriter(img, "f").set_signature(("i",))
    r.code_size_limit = 1
    seen = []

    def handler(rw, exc):
        seen.append(exc)
        rw.code_size_limit = 1 << 16  # enlarge the buffer and retry
        return rw._rewrite("f_retry")

    r.error_handler = handler
    addr = r.rewrite()
    assert seen and isinstance(seen[0], RewriteError)
    assert addr == img.symbol("f_retry")


def test_rewriter_is_drop_in_replacement():
    # same signature; extra/ignored fixed args don't change the ABI (Fig. 2)
    img, sim = compile_and_sim("long f(long a, long b) { return a + b; }")
    r = Rewriter(img, "f").set_signature(("i", "i")).set_par(1, 10)
    r.rewrite(name="f_p")
    assert sim.call_int("f_p", (5, 999999)) == 15  # second arg ignored


@settings(max_examples=25, deadline=None)
@given(a=st.integers(min_value=-(2**31), max_value=2**31 - 1),
       b=st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_specialized_matches_original_property(a, b):
    src = """
    long f(long a, long b) {
        long s = 0;
        if (a > b) s = a - b; else s = b - a;
        return s * 3 + (a & b);
    }
    """
    img, sim = compile_and_sim(src)
    want = sim.call_int("f", (a & (2**64 - 1), b & (2**64 - 1)))
    r = Rewriter(img, "f").set_signature(("i", "i")).set_par(0, a)
    r.rewrite(name="f_s")
    got = sim.call_int("f_s", (12345, b & (2**64 - 1)))
    assert got == want


def test_stats_counters():
    img, _sim = compile_and_sim("long f(long a) { return a * 649; }")
    r = Rewriter(img, "f").set_signature(("i",))
    r.rewrite(name="f_st")
    assert r.stats.decoded > 0
    assert r.stats.emitted > 0
    assert r.stats.points >= 1


def test_stack_16_byte_slots():
    from repro.dbrew.metastate import MetaState, MetaValue

    st_ = MetaState()
    v = (0xAAAA << 64) | 0xBBBB
    st_.stack_write(-16, 16, MetaValue.of(v, 128))
    assert st_.stack_read(-16, 16).value == v
    assert st_.stack_read(-16, 8).value == 0xBBBB
    assert st_.stack_read(-8, 8).value == 0xAAAA
    st_.stack_write(-16, 16, MetaValue.unknown())
    assert not st_.stack_read(-16, 16).known
    assert not st_.stack_read(-16, 8).known


def test_vector_spill_through_rewrite():
    """A function that spills a vector to its stack must survive DBrew."""
    img, sim = compile_and_sim("""
    double f(double* a, double* b, long n) {
        double s = 0.0;
        for (long i = 0; i < n; i++) {
            s = s + a[i] * b[i];
        }
        return s;
    }
    """)
    a = img.alloc_data(8 * 4)
    b = img.alloc_data(8 * 4)
    for i in range(4):
        img.memory.write_f64(a + 8 * i, float(i + 1))
        img.memory.write_f64(b + 8 * i, 2.0)
    r = Rewriter(img, "f").set_signature(("i", "i", "i"), "f").set_par(2, 4)
    r.rewrite(name="f_vs")
    assert sim.call_f64("f_vs", (a, b, 0)) == 2 * (1 + 2 + 3 + 4)


def test_fixed_value_in_vsp_sentinel_window_stays_a_value():
    """Regression: a fixed parameter that happens to land inside the
    virtual-stack sentinel window (|v - VSP_BASE| < VSP_WINDOW) must not
    be misread as a rewrite-time stack pointer.  The rewriter pins such
    collisions into the register at entry and tracks them unknown."""
    img, sim = compile_and_sim(
        "long f(long a, long b) { return a + b * 2; }")
    colliding = VSP_BASE + 0x1  # squarely inside the sentinel window
    assert is_stack_address(colliding)
    r = Rewriter(img, "f").set_signature(("i", "i")).set_par(0, colliding)
    addr = r.rewrite(name="f_vsp")
    assert addr != img.symbol("f")
    for b in (0, 7, -3):
        assert sim.call_int("f_vsp", (0, b)) == \
            sim.call_int("f", (colliding, b))


def test_fixed_value_near_window_edges():
    """Both edges of the sentinel window and a just-outside value."""
    img, sim = compile_and_sim("long f(long a, long b) { return a ^ b; }")
    from repro.dbrew.metastate import VSP_WINDOW
    cases = [VSP_BASE - VSP_WINDOW + 1,   # inside, low edge
             VSP_BASE + VSP_WINDOW - 1,   # inside, high edge
             VSP_BASE + VSP_WINDOW]       # outside: folds as a constant
    for i, v in enumerate(cases):
        r = Rewriter(img, "f").set_signature(("i", "i")).set_par(0, v)
        r.rewrite(name=f"f_edge{i}")
        assert sim.call_int(f"f_edge{i}", (0, 5)) == \
            sim.call_int("f", (v, 5))


# -- what an instruction touches (ISSUE 21: every row was wrong at the parent) ------

_W = 0x1122334455667788

#: name -> (assembly, parameter classes, {parameter: fixed value}, int args,
#: f64 args); the fixed parameters are passed with the value they are fixed to
TOUCH_CASES = {
    # a narrow write merges into a register DBrew does not know: the parent
    # emulated it on a zeroed scratch register and called the result known
    "mov al, imm": ("mov rax, rdi\nmov al, 5\nret", ("i",), {}, (_W,), ()),
    "mov ax, imm": ("mov rax, rdi\nmov ax, 0x1234\nret",
                    ("i",), {}, (_W,), ()),
    "sete al, flags known": ("mov rax, rdi\ncmp rsi, 5\nsete al\nret",
                             ("i", "i"), {1: 5}, (_W, 5), ()),
    "movsx ax, sil": ("mov rax, rdi\nmovsx ax, sil\nret",
                      ("i", "i"), {1: 0x80}, (_W, 0x80), ()),
    # ... and into one it knows but has not materialized
    "mov al, [rdi]": ("mov rax, rsi\nmov al, [rdi]\nret",
                      ("i", "i"), {1: _W}, None, ()),
    # a shift by a known count of 0 touches no flag; the parent overwrote
    # the run-time cmp's flags with the scratch CPU's zeroes
    "shl by 0; setl": ("cmp rdi, rsi\nmov edx, 1\nshl rdx, cl\nsetl al\n"
                       "movzx eax, al\nret",
                       ("i", "i", "i", "i"), {3: 0}, (1, 2, 0, 0), ()),
    "shl by 0; cmovl": ("cmp rdi, rsi\nmov edx, 1\nshl rdx, cl\nmov eax, 7\n"
                        "cmovl rax, rdi\nret",
                        ("i", "i", "i", "i"), {3: 0}, (1, 2, 0, 0), ()),
    # ucomisd clears SF; the parent kept the folded cmp's SF=1
    "ucomisd; sets": ("cmp rdi, 5\nucomisd xmm0, xmm1\nsets al\n"
                      "movzx eax, al\nret",
                      ("i", "f", "f"), {0: 3}, (3,), (1.0, 2.0)),
    # mul r/m8 writes ax only; the parent zeroed a live rdx
    "mul sil": ("mov rax, rdi\nmul sil\nadd rax, rdx\nret",
                ("i", "i", "i"), {0: 7, 1: 9}, (7, 9, 1000), ()),
    # found on the way, same family: an emitted instruction reads flags that
    # only existed at rewrite time (refused: the original is returned) ...
    "adc, carry folded": ("mov rax, rdi\ncmp rsi, 1\nadc rax, 0\nret",
                          ("i", "i"), {1: 0}, (_W, 0), ()),
    "jbe, carry folded": ("cmp rsi, 1\ninc rdi\njbe L\nmov eax, 1\nret\n"
                          "L:\nmov eax, 2\nret",
                          ("i", "i"), {1: 0}, (5, 0), ()),
    # ... and a 32-bit cmov zero-extends its destination even when not taken
    "cmovl eax, not taken": ("mov rax, rdi\ncmp rsi, 5\ncmovl eax, esi\nret",
                             ("i", "i"), {1: 9}, (_W, 9), ()),
}


@pytest.mark.parametrize("engine", ["dbrew", "llvm", "dbrew+llvm"])
@pytest.mark.parametrize("case", TOUCH_CASES)
def test_rewrite_returns_the_native_value(case, engine):
    """The same hand-assembled function natively, rewritten by DBrew, lifted
    as it is, and lifted from DBrew's output (the lifter merges facets
    already; this pins that it keeps doing so on what DBrew emits)."""
    asm, sig, fixed, int_args, f64_args = TOUCH_CASES[case]
    img = Image()
    code, _ = assemble(parse_asm(asm), base=img.next_code_addr())
    img.add_function("f", code)
    sim = Simulator(img)
    if int_args is None:  # a pointer to one byte, and the fixed rsi
        int_args = (img.alloc_rodata(b"\xab" + bytes(7), align=8), _W)
    native = sim.call("f", int_args, f64_args).rax

    target: str | int = "f"
    if engine != "llvm":
        rw = Rewriter(img, "f").set_signature(sig)
        for index, value in fixed.items():
            rw.set_par(index, value)
        target = rw.rewrite(name="f.dbrew")
        assert (target == img.symbol("f")) == (rw.last_error is not None)
    if engine != "dbrew":
        try:
            target = BinaryTransformer(img).llvm_identity(
                target, FunctionSignature(sig, "i"), name="f.llvm").addr
        except LiftError:  # no lifting rule: a typed refusal
            assert case in ("mul sil", "adc, carry folded")
            return
    assert sim.call(target, int_args, f64_args).rax == native
