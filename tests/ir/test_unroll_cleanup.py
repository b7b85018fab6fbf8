"""unroll's per-peel cleanup under the version rule == the loop it replaced.

After each peel ``unroll.run`` cleans up with ``simplifycfg``,
``constprop``, ``instcombine`` and ``dce`` for at most six rounds.  It used
to run all four every round; it now goes through ``schedule.settle``, which
skips a pass that already reported "no change" on the function's current
version.  Passes are deterministic, so the printed IR must be the same —
this file keeps the old loop as its oracle and checks that on the ``flat``
and ``sorted`` line kernels after fixation (every body ``run_o3`` hands to
``unroll``) and on two hand-built constant-trip loops, and that the new
cleanup makes strictly fewer pass applications, counted through the
modules' ``run`` (what the ledger's ``ir.passes`` spans wrap).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.clone import clone_function, restore_function
from repro.bench import modes as M
from repro.ir import I64, Function, FunctionType, IRBuilder, Module, verify
from repro.ir.cfg import find_natural_loops
from repro.ir.passes import constprop, dce, instcombine, schedule, simplifycfg, unroll
from repro.ir.printer import print_function
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace

CLEANUP = (simplifycfg, constprop, instcombine, dce)


def parent_cleanup(func, passes, rounds) -> None:
    """The cleanup loop ``unroll.run`` ran after each peel before the
    version rule: all four passes, every round, up to six rounds."""
    for _ in range(6):
        ch = simplifycfg.run(func)
        ch |= constprop.run(func)
        ch |= instcombine.run(func)
        ch |= dce.run(func)
        if not ch:
            break


@pytest.fixture
def applications(monkeypatch) -> Counter:
    """Counts every call of the four cleanup passes' ``run``."""
    counts: Counter = Counter()
    for mod in CLEANUP:
        def counted(*args, _real=mod.run, _name=mod.__name__, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, "run", counted)
    return counts


def _unroll(func: Function, oracle: bool, counts: Counter,
            monkeypatch) -> tuple[str, int]:
    """Printed IR after ``unroll.run`` and the cleanup applications it made."""
    counts.clear()
    with monkeypatch.context() as mp:
        if oracle:
            mp.setattr(schedule, "settle", parent_cleanup)
        unroll.run(func)
    return print_function(func), sum(counts.values())


def build_counted_loop(trip: int) -> Function:
    """``s = 0; for (i = 0; i < trip; i++) s += i * 3 + 1; return s + x``."""
    m = Module("t")
    f = Function(f"trip{trip}", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    header, body, done = (f.add_block(n) for n in ("header", "body", "done"))
    b.br(header)
    b.position_at_end(header)
    i = b.phi(I64, "i")
    s = b.phi(I64, "s")
    b.cond_br(b.icmp("slt", i, b.const(I64, trip)), body, done)
    b.position_at_end(body)
    s2 = b.add(s, b.add(b.mul(i, b.const(I64, 3)), b.const(I64, 1)))
    i2 = b.add(i, b.const(I64, 1))
    b.br(header)
    i.add_incoming(b.const(I64, 0), f.entry)
    i.add_incoming(i2, body)
    s.add_incoming(b.const(I64, 0), f.entry)
    s.add_incoming(s2, body)
    b.position_at_end(done)
    b.ret(b.add(s, f.args[0]))
    verify(f)
    return f


@pytest.mark.parametrize("trip", [0, 4])
def test_hand_built_loop_matches_the_old_cleanup(trip, applications,
                                                 monkeypatch):
    func = build_counted_loop(trip)
    new_ir, new_n = _unroll(func, False, applications, monkeypatch)
    old_ir, old_n = _unroll(build_counted_loop(trip), True, applications,
                            monkeypatch)
    assert new_ir == old_ir
    assert not find_natural_loops(func)  # the peels ran
    assert new_n < old_n


@pytest.mark.parametrize("code", ["flat", "sorted"])
def test_fixated_line_kernel_matches_the_old_cleanup(code, applications,
                                                     monkeypatch):
    """Every body ``run_o3`` hands to ``unroll`` while the fixated line
    kernel compiles: both cleanups from the same body, same printed IR."""
    real = unroll.run
    seen: list[tuple[str, str, int, int]] = []

    def both_ways(func: Function) -> bool:
        before, counter = clone_function(func), func._name_counter
        applications.clear()
        changed = real(func)
        new_ir, new_n = print_function(func), sum(applications.values())
        restore_function(func, before)
        func._name_counter = counter
        applications.clear()
        with monkeypatch.context() as mp:
            mp.setattr(schedule, "settle", parent_cleanup)
            assert real(func) == changed
        seen.append((new_ir, print_function(func), new_n,
                     sum(applications.values())))
        applications.clear()
        return changed

    monkeypatch.setattr(unroll, "run", both_ways)
    ws = StencilWorkspace(JacobiSetup(sz=9, sweeps=1))
    M.prepare_kernel(ws, code, "llvm-fix", line=True)
    peeled = [s for s in seen if s[3]]
    assert peeled, "the fixated point loop should be unrolled"
    for new_ir, old_ir, new_n, old_n in seen:
        assert new_ir == old_ir
        assert new_n <= old_n
    assert sum(s[2] for s in seen) < sum(s[3] for s in seen)
