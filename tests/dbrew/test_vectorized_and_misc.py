"""DBrew on SSE-vectorized input code, and miscellaneous rewriter paths."""

import pytest

from repro.cpu import Image, Simulator
from repro.dbrew import Rewriter
from repro.errors import RewriteError
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace, matrices_equal
from repro.stencil.sources import LINE_SIGNATURE
from repro.x86 import parse_asm
from repro.x86.asm import assemble


def test_dbrew_identity_of_vectorized_kernel():
    """movapd/movupd/addpd/mulpd flow through emulation + emission."""
    ws = StencilWorkspace(JacobiSetup(sz=17, sweeps=2))
    ws.reset_matrices()
    ref = ws.reference_sweeps(2)
    r = Rewriter(ws.image, "line_direct").set_signature(tuple(LINE_SIGNATURE), None)
    addr = r.rewrite(name="ld_db")
    assert addr != ws.image.symbol("line_direct")
    ws.reset_matrices()
    stats = ws.run_sweeps(addr, line=True, stencil_arg=0)
    assert matrices_equal(ws.read_matrix(1), ref)
    # the identity rewrite of already-vectorized code stays vectorized
    native = ws.cycles_per_cell(
        ws.run_sweeps("line_direct", line=True, stencil_arg=0)
    )
    assert ws.cycles_per_cell(stats) < native * 1.15


def _mk(src, name="f"):
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(src), base=base)
    img.add_function(name, code)
    return img, Simulator(img)


def test_setcc_with_known_flags_is_emulated():
    img, sim = _mk("""
        cmp rdi, 5
        setl al
        movzx eax, al
        ret
    """)
    r = Rewriter(img, "f").set_signature(("i",)).set_par(0, 3)
    addr = r.rewrite(name="f_s")
    res = sim.call("f_s", (999,))
    assert res.int_value == 1
    assert res.stats.per_mnemonic.get("cmp", 0) == 0  # folded away


def test_cmov_known_flags_unknown_data():
    img, sim = _mk("""
        cmp rdi, 5
        cmovl rax, rsi
        ret
    """)
    # rdi fixed below 5: the cmov becomes an unconditional mov of rsi
    r = Rewriter(img, "f").set_signature(("i", "i")).set_par(0, 3)
    addr = r.rewrite(name="f_lt")
    assert sim.call_int("f_lt", (0, 42)) == 42
    # rdi fixed above 5: the cmov disappears entirely
    r2 = Rewriter(img, "f").set_signature(("i", "i")).set_par(0, 9)
    addr2 = r2.rewrite(name="f_ge")
    res = sim.call("f_ge", (0, 42))
    assert res.stats.per_mnemonic.get("cmov", 0) == 0
    assert res.stats.per_mnemonic.get("cmovl", 0) == 0


def test_cmov_unknown_flags_emitted():
    img, sim = _mk("""
        cmp rdi, rsi
        cmovl rdi, rsi
        mov rax, rdi
        ret
    """)
    r = Rewriter(img, "f").set_signature(("i", "i"))
    r.rewrite(name="f_g")
    assert sim.call_int("f_g", (3, 9)) == 9
    assert sim.call_int("f_g", (9, 3)) == 9


def test_known_memory_write_to_runtime_region_is_emitted():
    # a store to a *known* address outside set_mem must still happen at runtime
    img, sim = _mk("""
        mov qword ptr [rdi], 7
        mov rax, 0
        ret
    """)
    dst = img.alloc_data(8)
    r = Rewriter(img, "f").set_signature(("i",)).set_par(0, dst)
    r.rewrite(name="f_st")
    img.memory.write_u64(dst, 0)
    sim.call("f_st", (0,))
    assert img.memory.read_u64(dst) == 7


def test_trace_point_cap_raises():
    img, sim = _mk("""
    head:
        cmp rdi, rsi
        jl other
        add rdi, 1
        jmp head
    other:
        add rsi, 1
        cmp rsi, 100
        jl head
        mov rax, rsi
        ret
    """)
    r = Rewriter(img, "f").set_signature(("i", "i"))
    # pathological: still must terminate (either by widening or by the cap,
    # in which case the default handler falls back to the original)
    addr = r.rewrite(name="f_path")
    name = "f_path" if addr != img.symbol("f") else "f"
    assert sim.call_int(name, (0, 5)) == sim.call_int("f", (0, 5))


def test_fixed_double_param_with_mixed_signature():
    img, sim = _mk("""
        addsd xmm0, xmm1
        cvttsd2si rax, xmm0
        add rax, rdi
        ret
    """)
    r = Rewriter(img, "f").set_signature(("i", "f", "f"), "i").set_par_f64(1, 2.5)
    r.rewrite(name="f_fp")
    # xmm0=2.5 (fixed), xmm1=1.5 -> 4.0 -> 4 + rdi
    assert sim.call_int("f_fp", (10,), (0.0, 1.5)) == 14
