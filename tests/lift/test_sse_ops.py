"""Differential tests for the SSE shuffle/horizontal lifting rules."""

import struct

import pytest

from repro.cpu import Image, Simulator
from repro.dbrew import Rewriter
from repro.ir import Interpreter, Module, verify
from repro.ir.passes import run_o3
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.x86 import parse_asm
from repro.x86.asm import assemble


def run_both(asm, int_args=(), f64_args=(), data=None, *, optimize=True):
    """Execute asm natively and as lifted IR; return both xmm0 doubles."""
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    img.add_function("f", code)
    if data:
        addr = img.alloc_data(len(data) * 8, align=16,
                              data=struct.pack(f"<{len(data)}d", *data))
        int_args = (addr,) + tuple(int_args)
    sig = FunctionSignature(
        tuple("i" for _ in int_args) + tuple("f" for _ in f64_args), "f"
    )
    sim = Simulator(img)
    want = sim.call("f", tuple(int_args), tuple(f64_args)).f64_value

    m = Module("t")
    f = lift_function(img.memory, base, sig, LiftOptions(name="f"), m)
    verify(f)
    if optimize:
        run_o3(f)
        verify(f)
    got = Interpreter(m, img.memory).run(f, list(int_args) + list(f64_args))
    return want, got


def run_readers(asm, int_args=(), f64_args=(), data=None, ret="f"):
    """One function through the simulator, interp(lift), interp(O3(lift))
    and a DBrew identity rewrite; returns the four results in that order."""
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    img.add_function("f", code)
    if data:
        addr = img.alloc_data(len(data) * 8, align=16,
                              data=struct.pack(f"<{len(data)}d", *data))
        int_args = (addr,) + tuple(int_args)
    params = tuple("i" for _ in int_args) + tuple("f" for _ in f64_args)
    args = list(int_args) + list(f64_args)
    sim = Simulator(img)
    value = (lambda r: r.f64_value) if ret == "f" else (lambda r: r.int_value)
    out = [value(sim.call("f", tuple(int_args), tuple(f64_args)))]
    for optimize in (False, True):
        m = Module("t")
        f = lift_function(img.memory, base, FunctionSignature(params, ret),
                          LiftOptions(name="f"), m)
        if optimize:
            run_o3(f)
        verify(f)
        out.append(Interpreter(m, img.memory).run(f, args))
    rw = Rewriter(img, "f").set_signature(params, ret)
    rewritten = rw.rewrite(name="f.dbrew")
    assert rw.last_error is None, rw.last_error
    out.append(value(sim.call(rewritten, tuple(int_args), tuple(f64_args))))
    return out


_BITS_2_5 = struct.unpack("<q", struct.pack("<d", 2.5))[0]

#: rules no other row reaches: name -> (asm, int args, f64 args, data, want)
FLOAT_ROWS = {
    "nop": ("nop\naddsd xmm0, xmm1\nret", (), (1.5, 2.0), None, 3.5),
    "movq xmm, r64": ("movq xmm0, rdi\nret", (_BITS_2_5,), (), None, 2.5),
    "movq xmm, xmm": ("movq xmm0, xmm1\nret", (), (1.0, 7.25), None, 7.25),
    "movaps + haddpd": ("movaps xmm0, [rdi]\nhaddpd xmm0, xmm0\nret",
                        (), (), [1.0, 2.0, 4.0, 0.0], 3.0),
    "movups + haddpd": ("movups xmm0, [rdi + 8]\nhaddpd xmm0, xmm0\nret",
                        (), (), [1.0, 2.0, 4.0, 0.0], 6.0),
}

INT_ROWS = {
    "movq r64, xmm": ("movq rax, xmm0\nret", (), (2.5,), _BITS_2_5),
    "leave frame": ("""
        push rbp
        mov rbp, rsp
        sub rsp, 16
        mov [rbp - 8], rdi
        mov rax, [rbp - 8]
        add rax, 1
        leave
        ret
    """, (41,), (), 42),
}


@pytest.mark.parametrize("row", FLOAT_ROWS)
def test_every_reader_agrees_on_float_rows(row):
    asm, int_args, f64_args, data, want = FLOAT_ROWS[row]
    assert run_readers(asm, int_args, f64_args, data) == [want] * 4


@pytest.mark.parametrize("row", INT_ROWS)
def test_every_reader_agrees_on_int_rows(row):
    asm, int_args, f64_args, want = INT_ROWS[row]
    assert run_readers(asm, int_args, f64_args, ret="i") == [want] * 4


def test_dbrew_materialises_a_known_two_lane_xmm():
    """A known xmm whose high lane is not zero goes out through a 16-byte
    constant-pool load when an unknown operand meets it."""
    img = Image()
    code, _ = assemble(parse_asm("movupd xmm0, [rdi]\nhaddpd xmm0, xmm1\nret"),
                       base=img.next_code_addr())
    img.add_function("f", code)
    addr = img.alloc_data(16, align=16, data=struct.pack("<2d", 1.0, 2.0))
    rw = (Rewriter(img, "f").set_signature(("i", "f"), "f")
          .set_par(0, addr).set_mem(addr, addr + 16))
    rewritten = rw.rewrite(name="f.dbrew")
    assert rw.last_error is None and rw.stats.materializations > 0
    sim = Simulator(img)
    assert sim.call(rewritten, (addr,), (5.0,)).f64_value == 3.0
    assert sim.call("f", (addr,), (5.0,)).f64_value == 3.0


@pytest.mark.parametrize("optimize", [False, True])
def test_unpcklpd(optimize):
    # xmm0 = [a, b]; unpcklpd xmm0, xmm1 -> [a, c]; high lane via unpckhpd
    want, got = run_both("""
        unpcklpd xmm0, xmm1
        unpckhpd xmm0, xmm0
        ret
    """, f64_args=(1.5, 2.5), optimize=optimize)
    # unpcklpd -> [a, b]; unpckhpd x,x broadcasts the high lane -> b
    assert got == want == 2.5


@pytest.mark.parametrize("sel", [0, 1, 2, 3])
def test_shufpd_all_selectors(sel):
    asm = f"""
        movupd xmm0, [rdi]
        movupd xmm1, [rdi + 0x10]
        shufpd xmm0, xmm1, {sel}
        ret
    """
    data = [10.0, 11.0, 20.0, 21.0]
    want, got = run_both(asm, data=data)
    assert got == want == data[sel & 1]


@pytest.mark.parametrize("sel", [0, 1, 2, 3])
def test_shufpd_high_lane(sel):
    asm = f"""
        movupd xmm0, [rdi]
        movupd xmm1, [rdi + 0x10]
        shufpd xmm0, xmm1, {sel}
        unpckhpd xmm0, xmm0
        ret
    """
    data = [10.0, 11.0, 20.0, 21.0]
    want, got = run_both(asm, data=data)
    assert got == want == data[2 + ((sel >> 1) & 1)]


def test_haddpd():
    asm = """
        movupd xmm0, [rdi]
        movupd xmm1, [rdi + 0x10]
        haddpd xmm0, xmm1
        ret
    """
    data = [1.0, 2.0, 10.0, 20.0]
    want, got = run_both(asm, data=data)
    assert got == want == 3.0
    # high lane = sum of xmm1's lanes
    asm2 = asm.replace("ret", "unpckhpd xmm0, xmm0\nret")
    want2, got2 = run_both(asm2, data=data)
    assert got2 == want2 == 30.0


def test_horizontal_reduce_idiom():
    """The classic vector-sum epilogue: haddpd then scalar use."""
    asm = """
        movupd xmm0, [rdi]
        movupd xmm1, [rdi + 0x10]
        addpd xmm0, xmm1
        haddpd xmm0, xmm0
        ret
    """
    data = [1.0, 2.0, 3.0, 4.0]
    want, got = run_both(asm, data=data)
    assert got == want == 10.0


def test_movlpd_movhpd_pair():
    # the split-load idiom the JIT itself emits for unaligned vector loads
    want, got = run_both("""
        movlpd xmm0, [rdi]
        movhpd xmm0, [rdi + 8]
        haddpd xmm0, xmm0
        ret
    """, data=[4.0, 5.0])
    assert got == want == 9.0


def test_movhpd_store_form():
    asm = """
        movupd xmm0, [rdi]
        movhpd [rdi + 0x10], xmm0
        movsd xmm0, [rdi + 0x10]
        ret
    """
    want, got = run_both(asm, data=[1.25, 7.75, 0.0])
    assert got == want == 7.75


def test_xorps_andpd_orpd_bitwise():
    want, got = run_both("""
        xorpd xmm0, xmm1
        xorpd xmm0, xmm1
        ret
    """, f64_args=(3.25, 7.5))
    assert got == want == 3.25  # double-xor is identity


def test_pand_por_combination():
    # (a AND mask) OR (b AND NOT mask) with mask = all ones -> a
    want, got = run_both("""
        pand xmm0, xmm2
        por xmm0, xmm1
        ret
    """, f64_args=(2.0, 0.0, 0.0))
    # xmm2 = 0.0 -> pand zeroes xmm0; por with xmm1=0 -> +0.0
    assert got == want == 0.0
