"""The change journal is complete: a pass that walks only what changed
finds everything a walk over every instruction finds.

Three parts:

* **The debug flag, end to end.**  Under ``set_verify_after_each_pass
  (True)`` every O3 application and every skip is followed by the same
  pass on a live copy with every instruction dirty whenever the journal
  shows the pass idle, and that walk must change nothing.  It runs here
  over the 24 ``compile_cold`` cells of the ledger and 40 ``diffcorpus``
  seeds of each kind.
* **The look-through rules, one hand-built row each.**  A rule that reads
  past its direct operands (``constprop._global_and_offset``,
  ``fold.resolve_const_pointer``, ``instcombine._extract``, ``_cast``,
  ``_gep``, ``_icmp``, ``_fmul_const_factor``) is dirtied by a change
  below it, and the dirty walk then equals the full one; likewise gvn
  once a store that blocked a forwarding is erased.
* **Honest bounds.**  A pass that stops on its bound stays dirty, so it
  runs again (``ROUNDS`` of constprop, instcombine and simplifycfg, the
  ``rounds`` of ``settle``, which ``unroll`` runs after every peel).
"""

from __future__ import annotations

import struct

import pytest

from repro.analysis.clone import clone_function, functions_structurally_equal
from repro.bench.modes import CODES, prepare_kernel
from repro.ir import (
    DOUBLE, I1, I16, I32, I64, V2F64, Function, FunctionType, GlobalVariable,
    IRBuilder, Module, ptr, verify,
)
from repro.ir import instructions as I
from repro.ir.passes import constprop, instcombine, schedule, simplifycfg, unroll
from repro.ir.passes.pipeline import set_verify_after_each_pass
from repro.ir.values import Constant, ConstantFP
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.testing.diffcorpus import run_case


@pytest.fixture
def verify_each_pass():
    set_verify_after_each_pass(True)
    yield
    set_verify_after_each_pass(False)


def test_ledger_cells_under_the_debug_flag(verify_each_pass):
    ws = StencilWorkspace(JacobiSetup(sz=17, sweeps=1))
    for code in CODES:
        for line in (False, True):
            for mode in ("llvm", "llvm-fix", "dbrew", "dbrew+llvm"):
                prepare_kernel(ws, code, mode, line=line)


@pytest.mark.parametrize("kind", ["int", "sse"])
def test_diffcorpus_under_the_debug_flag(kind, verify_each_pass):
    for seed in range(40):
        run_case(kind, seed)


def test_the_debug_flag_catches_an_incomplete_closure(verify_each_pass,
                                                      monkeypatch):
    """With the chain readers left out, a load that folds only through its
    address chain is missed, and the flag says so in the pass."""
    monkeypatch.setattr(constprop, "DIRT",
                        constprop.DIRT._replace(reads=lambda u, v: False))
    f, gep, g = _load_through_chain(Module("t"))
    with schedule.journaled(f):
        constprop.run(f)
        gep.operands[0] = g
        with pytest.raises(Exception, match="journal shows it idle"):
            schedule.check_after(f, constprop)


# -- the look-through rows ------------------------------------------------------


def _load_through_chain(m: Module):
    """``load (gep p, 1)``: folds once ``p`` is a constant global."""
    g = m.add_global(GlobalVariable("g", I64, struct.pack("<qq", 7, 9)))
    f = Function("f", FunctionType(I64, (ptr(I64),)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    gep = b.gep(f.args[0], b.const(I64, 1))
    b.ret(b.load(gep))
    return f, gep, g


def _row_global_and_offset():
    f, gep, g = _load_through_chain(Module("t"))
    load = f.entry.instructions[1]
    return f, load, lambda: gep.operands.__setitem__(0, g)


def _row_global_and_offset_through_add():
    """``load (inttoptr (add (ptrtoint p), 8))``: three links deep."""
    m = Module("t")
    g = m.add_global(GlobalVariable("g", I64, struct.pack("<qq", 7, 9)))
    f = Function("f", FunctionType(I64, (ptr(I64),)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    i = b.ptrtoint(f.args[0], I64)
    q = b.inttoptr(b.add(i, b.const(I64, 8)), ptr(I64))
    load = b.load(q)
    b.ret(load)
    return f, load, lambda: i.operands.__setitem__(0, g)


def _row_resolve_const_pointer():
    """``ptrtoint (gep (inttoptr x), 2)``: folds once ``x`` is constant."""
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    q = b.inttoptr(f.args[0], ptr(I64))
    r = b.ptrtoint(b.gep(q, b.const(I64, 2)), I64)
    b.ret(r)
    return f, r, lambda: q.operands.__setitem__(0, Constant(I64, 0x1000))


def _row_extract():
    """``extractelement (insertelement (insertelement v, x, k), y, 1), 0``:
    the outer insert is looked past, the inner one answers once ``k`` is
    the constant 0."""
    m = Module("t")
    f = Function("f", FunctionType(DOUBLE, (V2F64, DOUBLE, I32)))
    m.add_function(f)
    entry = f.add_block("entry")
    v, x, k = f.args
    inner = entry.append(I.InsertElement(v, x, k, f.next_name()))
    b = IRBuilder(entry)
    outer = b.insertelement(inner, x, 1)
    e = b.extractelement(outer, 0)
    b.ret(e)
    return f, e, lambda: inner.operands.__setitem__(2, Constant(I32, 0))


def _row_cast():
    """``trunc (zext x)`` to another width: never a round trip, whatever
    ``x`` becomes, but the trunc reads the zext's operand."""
    m = Module("t")
    f = Function("f", FunctionType(I16, (I32, I32)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    z = b.zext(f.args[0], I64)
    t = b.trunc(z, I16)
    b.ret(t)
    return f, t, lambda: z.operands.__setitem__(0, f.args[1])


def _row_gep():
    """``gep (gep p, k), 3``: combines once ``k`` is a constant."""
    m = Module("t")
    f = Function("f", FunctionType(I64, (ptr(I64), I64)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    g1 = b.gep(f.args[0], f.args[1])
    g2 = b.gep(g1, b.const(I64, 3))
    b.ret(b.load(g2))
    return f, g2, lambda: g1.operands.__setitem__(1, Constant(I64, 2))


def _row_icmp():
    """``icmp slt (sub x, y), 0``: only eq/ne see through the sub, but the
    icmp reads the sub's operands."""
    m = Module("t")
    f = Function("f", FunctionType(I1, (I64, I64, I64)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    s = b.sub(f.args[0], f.args[1])
    c = b.icmp("slt", s, b.const(I64, 0))
    b.ret(c)
    return f, c, lambda: s.operands.__setitem__(1, f.args[2])


def _row_fmul_const_factor():
    """``fadd (fmul 2.0, x), (fmul 3.0, y)``: reassociates (fast-math) once
    both factors are 2.0."""
    m = Module("t")
    f = Function("f", FunctionType(DOUBLE, (DOUBLE, DOUBLE)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    a = b.fmul(b.fconst(DOUBLE, 2.0), f.args[0])
    c = b.fmul(b.fconst(DOUBLE, 3.0), f.args[1])
    s = b.fadd(a, c)
    b.ret(s)
    return f, s, lambda: c.operands.__setitem__(
        0, ConstantFP(DOUBLE, 2.0))


ROWS = {
    "global_and_offset": (_row_global_and_offset, constprop, ()),
    "global_and_offset.add": (_row_global_and_offset_through_add,
                              constprop, ()),
    "resolve_const_pointer": (_row_resolve_const_pointer, constprop, ()),
    "resolve_const_pointer.instcombine": (_row_resolve_const_pointer,
                                          instcombine, (False,)),
    "extract": (_row_extract, instcombine, (False,)),
    "cast": (_row_cast, instcombine, (False,)),
    "gep": (_row_gep, instcombine, (False,)),
    "icmp": (_row_icmp, instcombine, (False,)),
    "fmul_const_factor": (_row_fmul_const_factor, instcombine, (True,)),
}


def _full_walk(func: Function, mod, args) -> tuple[Function, bool]:
    """``mod`` on a live copy of ``func`` with no journal: every
    instruction dirty."""
    twin = clone_function(func)
    for ins in twin.instructions():
        ins.attach()
    changed = mod.run(twin, *args)
    for ins in twin.instructions():
        ins.detach()
    return twin, changed


@pytest.mark.parametrize("row", sorted(ROWS))
def test_a_change_below_a_look_through_rule_dirties_it(row):
    build, mod, args = ROWS[row]
    f, reader, change = build()
    verify(f)
    key = "constprop" if mod is constprop else \
        ("instcombine.fast" if args[0] else "instcombine")
    with schedule.journaled(f):
        mod.run(f, *args)
        assert mod.idle(f, *args)
        assert reader.block is not None, "the reader must survive the run"
        change()
        assert reader in schedule.dirty_instructions(f, key, mod.DIRT)
        want, want_changed = _full_walk(f, mod, args)
        assert mod.run(f, *args) == want_changed
    verify(f)
    assert functions_structurally_equal(f, want)


def test_the_rows_that_can_fire_do():
    """Where a change below can let the rule fire, it does."""
    for row in ("global_and_offset", "global_and_offset.add",
                "resolve_const_pointer", "extract", "gep",
                "fmul_const_factor"):
        build, mod, args = ROWS[row]
        f, reader, change = build()
        with schedule.journaled(f):
            mod.run(f, *args)
            change()
            assert mod.run(f, *args), row
            assert reader.block is None, row


def test_an_erased_store_dirties_its_block_for_gvn():
    """gvn cannot forward a load across a store; once the store is gone
    the block is dirty and the second load is forwarded from the first."""
    from repro.ir.passes import gvn
    m = Module("t")
    f = Function("f", FunctionType(I64, (ptr(I64), I64)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    p = f.args[0]
    first = b.load(p)
    store = b.store(f.args[1], b.gep(p, b.const(I64, 1)))
    second = b.load(p)
    b.ret(b.add(first, second))
    verify(f)
    with schedule.journaled(f):
        assert not gvn.run(f)
        assert gvn.idle(f)
        store.erase()
        assert not gvn.idle(f)
        assert gvn.run(f)
    assert second.block is None


# -- honest bounds ----------------------------------------------------------------


def _backwards_use(m: Module, second: str) -> Function:
    """A use listed before its definition: ``u`` in block ``use`` reads
    ``v`` from block ``def``, which runs first, so a walk in block order
    reaches ``u`` before ``v`` changes."""
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    entry, use, def_ = (f.add_block(n) for n in ("entry", "use", "def"))
    IRBuilder(entry).br(def_)
    b = IRBuilder(def_)
    if second == "constprop":
        v = b.add(b.const(I64, 2), b.const(I64, 3))  # folds to 5
        b.br(use)
        b.position_at_end(use)
        b.ret(b.add(v, b.const(I64, 1)))  # folds once v has
    else:
        v2 = b.add(f.args[0], b.const(I64, 0))  # becomes arg0
        b.br(use)
        b.position_at_end(use)
        b.ret(b.sub(f.args[0], v2))  # x - x once v2 is x
    verify(f)
    return f


@pytest.mark.parametrize("mod", [constprop, instcombine],
                         ids=lambda m: schedule.pass_name(m))
def test_a_walker_stopped_on_its_bound_stays_dirty(mod, monkeypatch):
    f = _backwards_use(Module("t"), schedule.pass_name(mod))
    with schedule.journaled(f):
        monkeypatch.setattr(mod, "ROUNDS", 1)
        assert mod.run(f)
        assert not mod.idle(f), "stopped on its bound, yet marked clean"
        assert mod.run(f)  # the second application finishes the job
        assert mod.idle(f)
    assert len(f.blocks[1].instructions) == 1  # the ret alone


def test_simplifycfg_stopped_on_its_bound_stays_dirty(monkeypatch):
    """A phi that folds to a constant leaves a constant branch behind for
    the next round."""
    m = Module("t")
    f = Function("f", FunctionType(I64, (I1,)))
    m.add_function(f)
    entry, left, right, join, yes, no = (
        f.add_block(n) for n in ("entry", "l", "r", "m", "x", "y"))
    IRBuilder(entry).cond_br(f.args[0], left, right)
    IRBuilder(left).br(join)
    IRBuilder(right).br(join)
    b = IRBuilder(join)
    p = b.phi(I1)
    true = Constant(I1, 1)
    p.add_incoming(true, left)
    p.add_incoming(true, right)
    b.cond_br(p, yes, no)
    IRBuilder(yes).ret(Constant(I64, 1))
    IRBuilder(no).ret(Constant(I64, 2))
    verify(f)
    with schedule.journaled(f):
        monkeypatch.setattr(simplifycfg, "ROUNDS", 1)
        assert simplifycfg.run(f)
        assert not simplifycfg.idle(f)
        monkeypatch.setattr(simplifycfg, "ROUNDS", 16)
        assert simplifycfg.run(f)
        assert simplifycfg.idle(f)
    assert not any(isinstance(ins, I.Br) and ins.is_conditional
                   for ins in f.instructions() if ins.block is f.blocks[-1])


def test_settle_stopped_on_its_bound_leaves_the_pass_dirty():
    """``settle``'s bound marks nothing clean: after one round of
    constprop then instcombine, the load instcombine's ``x - x`` exposed
    is still dirty for constprop, and constprop then folds it."""
    m = Module("t")
    g = m.add_global(GlobalVariable("g", I64, struct.pack("<q", 42)))
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    zero = b.sub(f.args[0], f.args[0])
    b.ret(b.load(b.gep(g, zero)))
    verify(f)
    with schedule.journaled(f):
        schedule.settle(f, (constprop, instcombine), rounds=1)
        assert not constprop.idle(f)
        assert constprop.run(f)
    assert isinstance(f.entry.terminator.operands[0], Constant)


def test_the_per_peel_cleanup_bound_is_a_module_constant(monkeypatch):
    """unroll hands ``settle`` its bound by name, so a test can lower it."""
    from tests.ir.test_unroll_cleanup import build_counted_loop
    seen = []
    real = schedule.settle
    monkeypatch.setattr(unroll, "CLEANUP_ROUNDS", 1)
    monkeypatch.setattr(schedule, "settle",
                        lambda f, passes, rounds: seen.append(rounds)
                        or real(f, passes, rounds))
    assert unroll.run(build_counted_loop(4))
    assert seen and set(seen) == {1}
