"""Memory-region checker: provable escapes flagged, unprovable ones silent."""

from repro.ir import DOUBLE, I8, I64, Function, FunctionType, IRBuilder, Module, ptr
from repro.ir.module import GlobalVariable

from repro.analysis.memregion import check_memory_regions


def _func_with_region(size=32, ret=I64, params=(I64,)):
    m = Module("t")
    g = m.add_global(GlobalVariable("region", I8, bytes(size)))
    f = Function("f", FunctionType(ret, tuple(params)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    return f, b, g


def test_constant_oob_load_caught():
    f, b, g = _func_with_region(size=32)
    p = b.gep_i(g, 40)  # i8 elem: region + 40, region is 32 bytes
    q = b.bitcast(p, ptr(I64))
    b.ret(b.load(q))
    findings = check_memory_regions(f)
    assert len(findings) == 1
    assert "escape region of 32 bytes" in findings[0].message
    assert findings[0].checker == "mem-region"


def test_in_bounds_access_clean():
    f, b, g = _func_with_region(size=32)
    p = b.gep_i(g, 24)
    q = b.bitcast(p, ptr(I64))  # bytes 24..32: the last legal i64
    b.ret(b.load(q))
    assert check_memory_regions(f) == []


def test_access_size_counts():
    # offset 28 is in range for the *address*, but an 8-byte access
    # crosses the region end
    f, b, g = _func_with_region(size=32)
    p = b.gep_i(g, 28)
    q = b.bitcast(p, ptr(I64))
    b.ret(b.load(q))
    findings = check_memory_regions(f)
    assert len(findings) == 1
    assert "28..28" in findings[0].message


def test_negative_offset_caught():
    f, b, g = _func_with_region(size=32)
    p = b.gep_i(g, -1)
    b.store(b.const(I8, 7), p)
    b.ret(b.const(I64, 0))
    findings = check_memory_regions(f)
    assert len(findings) == 1
    assert "store" in findings[0].message


def test_gep_scaling_by_element_size():
    f, b, g = _func_with_region(size=32)
    d = b.bitcast(g, ptr(DOUBLE))
    p = b.gep_i(d, 4)  # 4 * 8 = byte 32: one past the end
    b.ret(b.load(b.bitcast(p, ptr(I64))))
    findings = check_memory_regions(f)
    assert len(findings) == 1


def test_unknown_index_is_silent():
    # index from an argument: unbounded — no proof, no finding
    f, b, g = _func_with_region(size=32)
    p = b.gep(g, f.args[0])
    b.ret(b.load(b.bitcast(p, ptr(I64))))
    assert check_memory_regions(f) == []


def test_loop_index_widens_to_silence():
    # a loop-carried index grows without bound; widening must go to
    # unbounded (no finding) rather than looping or flagging
    f, b, g = _func_with_region(size=32)
    entry = f.entry
    header = f.add_block("header")
    body = f.add_block("body")
    exit_ = f.add_block("exit")
    b.br(header)
    b.position_at_end(header)
    phi = b.phi(I64)
    cond = b.icmp("slt", phi, f.args[0])
    b.cond_br(cond, body, exit_)
    b.position_at_end(body)
    p = b.gep(g, phi)
    b.store(b.const(I8, 1), p)
    nxt = b.add(phi, b.const(I64, 1))
    b.br(header)
    phi.add_incoming(b.const(I64, 0), entry)
    phi.add_incoming(nxt, body)
    b.position_at_end(exit_)
    b.ret(b.const(I64, 0))
    assert check_memory_regions(f) == []


def test_pointer_arithmetic_via_int_ops():
    # specialized code does ptrtoint + add + inttoptr round-trips
    f, b, g = _func_with_region(size=16)
    base = b.ptrtoint(g, I64)
    addr = b.add(base, b.const(I64, 16))
    p = b.inttoptr(addr, ptr(I8))
    b.ret(b.load(b.bitcast(p, ptr(I64))))
    findings = check_memory_regions(f)
    assert len(findings) == 1
    assert "16..16" in findings[0].message


def test_pointer_minus_constant_via_int_ops():
    # the lifter's `lea r, [r - k]` on a region pointer: ptr - int
    f, b, g = _func_with_region(size=16)
    addr = b.sub(b.add(b.ptrtoint(g, I64), b.const(I64, 8)), b.const(I64, 12))
    b.ret(b.load(b.inttoptr(addr, ptr(I64))))
    findings = check_memory_regions(f)
    assert len(findings) == 1
    assert "-4..-4" in findings[0].message


def test_foreign_pointer_silent():
    f, b, _g = _func_with_region(size=8)
    p = b.inttoptr(f.args[0], ptr(I64))
    b.ret(b.load(p))
    assert check_memory_regions(f) == []


def test_unreachable_access_silent():
    f, b, g = _func_with_region(size=8)
    b.ret(b.const(I64, 0))
    dead = f.add_block("dead")
    b.position_at_end(dead)
    p = b.gep_i(g, 100)
    b.ret(b.load(b.bitcast(p, ptr(I64))))
    assert check_memory_regions(f) == []
