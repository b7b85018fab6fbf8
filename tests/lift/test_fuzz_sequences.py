"""Instruction-sequence fuzzing: random reg-only ALU/SSE sequences are
lifted and the IR interpretation must match the simulator exactly —
including all flag-dependent instructions (cmov/setcc) in the sequence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import Image, Simulator
from repro.ir import Interpreter, Module, verify
from repro.ir.passes import run_o3
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.x86 import parse_asm
from repro.x86.asm import assemble

# registers the fuzzer plays with (args rdi/rsi + two temporaries)
_REGS = ["rdi", "rsi", "r8", "r9"]
_REGS32 = ["edi", "esi", "r8d", "r9d"]
_CCS = ["e", "ne", "l", "ge", "le", "g", "b", "ae", "a", "be", "s", "ns"]


@st.composite
def alu_line(draw):
    kind = draw(st.integers(0, 6))
    r1 = draw(st.sampled_from(_REGS))
    r2 = draw(st.sampled_from(_REGS))
    if kind == 0:
        op = draw(st.sampled_from(["add", "sub", "and", "or", "xor"]))
        return f"{op} {r1}, {r2}"
    if kind == 1:
        op = draw(st.sampled_from(["add", "sub", "and", "or", "xor", "cmp"]))
        imm = draw(st.integers(-128, 127))
        return f"{op} {r1}, {imm}"
    if kind == 2:
        op = draw(st.sampled_from(["shl", "shr", "sar"]))
        return f"{op} {r1}, {draw(st.integers(0, 31))}"
    if kind == 3:
        # flag consumers follow a cmp directly: flags after imul/shifts are
        # architecturally undefined (lifter: undef; simulator: one concrete
        # choice), and compiler-generated code never consumes them
        cc = draw(st.sampled_from(_CCS))
        r3 = draw(st.sampled_from(_REGS))
        return f"cmp {r1}, {r2}\ncmov{cc} {r3}, {r1}"
    if kind == 4:
        op = draw(st.sampled_from(["add", "sub", "xor", "mov"]))
        i1 = draw(st.sampled_from(_REGS32))
        i2 = draw(st.sampled_from(_REGS32))
        return f"{op} {i1}, {i2}"
    if kind == 5:
        op = draw(st.sampled_from(["inc", "dec", "neg", "not"]))
        return f"{op} {r1}"
    return f"imul {r1}, {r2}"


@st.composite
def sequence(draw):
    n = draw(st.integers(2, 8))
    lines = [draw(alu_line()) for _ in range(n)]
    return "\n".join(lines) + "\nmov rax, rdi\nadd rax, rsi\nret"


@settings(max_examples=60, deadline=None)
@given(asm=sequence(),
       a=st.integers(0, 2**64 - 1),
       b=st.integers(0, 2**64 - 1))
def test_lifted_sequence_matches_simulator(asm, a, b):
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    img.add_function("f", code)
    sim = Simulator(img)
    want = sim.call("f", (a, b)).rax

    m = Module("t")
    f = lift_function(img.memory, base, FunctionSignature(("i", "i"), "i"),
                      LiftOptions(name="f"), m)
    verify(f)
    got = Interpreter(m, img.memory).run(f, [a, b])
    assert got == want, asm

    run_o3(f)
    verify(f)
    got_opt = Interpreter(m, img.memory).run(f, [a, b])
    assert got_opt == want, asm


@settings(max_examples=30, deadline=None)
@given(asm=sequence(),
       a=st.integers(0, 2**64 - 1),
       b=st.integers(0, 2**64 - 1))
def test_dbrew_identity_matches_simulator(asm, a, b):
    from repro.dbrew import Rewriter

    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    img.add_function("f", code)
    sim = Simulator(img)
    want = sim.call("f", (a, b)).rax

    r = Rewriter(img, "f").set_signature(("i", "i"))
    addr = r.rewrite(name="f_db")
    assert addr != base, "identity rewrite must not fall back"
    assert sim.call("f_db", (a, b)).rax == want, asm


@settings(max_examples=30, deadline=None)
@given(asm=sequence(), a=st.integers(0, 2**63 - 1))
def test_dbrew_specialized_matches_simulator(asm, a):
    """Fixing rdi must preserve results for arbitrary rsi (partial values
    flow through cmov/setcc/flags)."""
    from repro.dbrew import Rewriter

    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    img.add_function("f", code)
    sim = Simulator(img)

    r = Rewriter(img, "f").set_signature(("i", "i")).set_par(0, a)
    addr = r.rewrite(name="f_spec")
    assert addr != base
    for b in (0, 1, 2**63, 2**64 - 1):
        assert sim.call("f_spec", (12345, b)).rax == sim.call("f", (a, b)).rax, asm
