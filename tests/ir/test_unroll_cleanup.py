"""``unroll.run`` against two oracles kept here: the per-peel unroller it
replaced, and the cleanup loop that ran before the change journal.

**One step per loop.**  ``unroll.run`` analyses a constant-trip loop once,
makes all ``trip + 1`` peels back to back and then cleans up once with
``schedule.settle`` (``simplifycfg``, ``constprop``, ``instcombine``,
``dce``, at most ``CLEANUP_ROUNDS`` rounds) before it looks for loops
again.  It used to peel one iteration, clean up, find the loops and
analyse again, once per peel: :func:`per_peel_run` is that unroller.  From
the same body both must give the same function up to the names of blocks
and values (printed by ``renamed``), the same values under the IR
interpreter, the same number of peels, and — on every call that unrolled
a loop of trip >= 1 — strictly fewer cleanup applications.  This is checked on
every body ``run_o3`` hands to ``unroll`` in the 24 ``compile_cold``
cells of the ledger, on 40 diffcorpus seeds per kind (as generated, and
with the generated body inside a counted loop), and on hand-built loops:
trip 0, 1, 4 and ``MAX_TRIP``, a loop that tests its exit after the step,
and two nested constant-trip loops.  No cleanup ever stops on
``CLEANUP_ROUNDS``, ``MAX_TOTAL_PEELS`` still counts peels, and the
journal's skips stay exact under the debug check after every pass.

**The journaled cleanup.**  ``schedule.settle`` skips a pass the change
journal shows idle, and the passes that run walk only what the peels and
the cleanup changed.  The printed IR must be what the old loop printed
(:func:`parent_cleanup`: all four passes every round, each walking the
whole function), with strictly fewer pass applications — counted through
the modules' ``run``, which the ledger's ``ir.passes`` spans wrap — and
strictly fewer rule evaluations (constprop's ``RULES``, instcombine's
``_simplify``), on the ``flat`` and ``sorted`` line kernels after
fixation and on hand-built constant-trip loops.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.analysis import PassValidator
from repro.analysis.clone import clone_function, restore_function
from repro.bench import modes as M
from repro.cpu import Image
from repro.ir import I64, Function, FunctionType, IRBuilder, Module, verify
from repro.ir.cfg import find_natural_loops
from repro.ir.interp import Interpreter
from repro.ir.passes import (
    constprop, dce, instcombine, run_o3, schedule, simplifycfg, unroll,
)
from repro.ir.printer import print_function
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.testing import diffcorpus
from repro.x86 import parse_asm
from repro.x86.asm import assemble
from tests.ir.test_golden_o3 import CELLS, SETUP, renamed

CLEANUP = (simplifycfg, constprop, instcombine, dce)
ONE_STEP_RUN = unroll.run
REAL_SETTLE = schedule.settle


def per_peel_run(func: Function) -> bool:
    """``unroll.run`` as it was before it unrolled a loop in one step: peel
    once, clean up, find the loops and analyse again, up to
    ``MAX_TOTAL_PEELS`` times."""
    changed = False
    with schedule.journaled(func):
        for _ in range(unroll.MAX_TOTAL_PEELS):
            candidate = None
            for loop in find_natural_loops(func):
                info = unroll._analyze(func, loop)
                if info is not None and info.trip_count <= unroll.MAX_TRIP:
                    candidate = info
                    break
            if candidate is None:
                schedule.mark(func, "unroll")
                break
            unroll._peel_once(func, candidate.loop)
            schedule.settle(func, unroll._CLEANUP,
                            rounds=unroll.CLEANUP_ROUNDS)
            changed = True
    if changed:
        func.bump_version()
    return changed


@dataclass
class Unrolled:
    """What one call of an unroller did."""

    before: str  # the body it was handed, renamed
    after: str  # the body it left, renamed
    changed: bool
    applications: int  # cleanup pass applications
    peels: int
    cleanups: int  # schedule.settle calls
    peak: int  # the most instructions a cleanup started from
    bound_hits: int  # cleanups whose last allowed round still changed
    body: Function  # detached copy of what it left


class Spy:
    """Wraps the cleanup passes' ``run``, ``unroll._peel_once`` and
    ``schedule.settle`` to see what an unroller call does."""

    def __init__(self, monkeypatch) -> None:
        self.results: list[bool] = []  # one per cleanup application
        self.peels = self.cleanups = self.peak = self.bound_hits = 0
        for mod in CLEANUP:
            def counted(*args, _real=mod.run, **kwargs):
                changed = _real(*args, **kwargs)
                self.results.append(bool(changed))
                return changed
            monkeypatch.setattr(mod, "run", counted)

        def peel(func, loop, _real=unroll._peel_once):
            self.peels += 1
            _real(func, loop)
        monkeypatch.setattr(unroll, "_peel_once", peel)
        monkeypatch.setattr(schedule, "settle", self._settle)

    def _settle(self, func: Function, passes, rounds: int) -> None:
        """``schedule.settle`` one round at a time, so the rounds show."""
        self.cleanups += 1
        self.peak = max(self.peak, sum(len(b.instructions)
                                       for b in func.blocks))
        for _ in range(rounds):
            first = len(self.results)
            REAL_SETTLE(func, passes, 1)
            if not any(self.results[first:]):
                return
        self.bound_hits += 1

    def call(self, unroller: Callable[[Function], bool],
             func: Function) -> Unrolled:
        self.results.clear()
        self.peels = self.cleanups = self.peak = self.bound_hits = 0
        before = renamed(func)
        changed = unroller(func)
        return Unrolled(before, renamed(func), changed, len(self.results),
                        self.peels, self.cleanups, self.peak,
                        self.bound_hits, clone_function(func))


@pytest.fixture
def spy(monkeypatch) -> Spy:
    return Spy(monkeypatch)


def through_run_o3(spy: Spy, monkeypatch,
                   unroller: Callable[[Function], bool],
                   compile_: Callable[[], None]) -> list[Unrolled]:
    """Every call ``run_o3`` makes of ``unroll.run`` while ``compile_``
    runs, answered by ``unroller``."""
    calls: list[Unrolled] = []

    def recording(func: Function) -> bool:
        calls.append(spy.call(unroller, func))
        return calls[-1].changed

    with monkeypatch.context() as mp:
        mp.setattr(unroll, "run", recording)
        compile_()
    return calls


def assert_same_unrolling(new: list[Unrolled], old: list[Unrolled]) -> int:
    """One step per loop gives what one peel at a time gave, with fewer
    cleanup applications; returns the conclusive interpreter probes."""
    assert len(new) == len(old)
    conclusive = 0
    for n, o in zip(new, old):
        assert n.before == o.before
        assert n.after == o.after
        assert (n.changed, n.peels) == (o.changed, o.peels)
        assert n.bound_hits == o.bound_hits == 0
        if n.peels > n.cleanups:  # some loop had trip >= 1
            assert n.applications < o.applications
        else:
            assert n.applications == o.applications
        reason, probes = PassValidator()._differential(o.body, n.body)
        assert reason is None
        conclusive += probes
    return conclusive


def test_ledger_cells_unroll_as_one_peel_at_a_time(spy, monkeypatch):
    def cells() -> None:
        ws = StencilWorkspace(SETUP)
        for code, line, mode in CELLS:
            M.prepare_kernel(ws, code, mode, line=line)

    new = through_run_o3(spy, monkeypatch, ONE_STEP_RUN, cells)
    old = through_run_o3(spy, monkeypatch, per_peel_run, cells)
    assert assert_same_unrolling(new, old) > 0
    # the four fixated llvm-fix kernels; DBrew unrolls the known-trip point
    # loop of a line kernel itself, so its output carries none for O3 to peel
    assert sum(n.peels > n.cleanups for n in new) == 4


def looped(asm: str, kind: str, trip: int) -> str:
    """A corpus sequence with its generated body inside a counted loop
    (``rcx`` is the counter: no generator touches it)."""
    lines = asm.split("\n")
    head, tail = diffcorpus.PINNED[kind]
    return "\n".join(lines[:head] + [f"mov rcx, {trip}", "top:"]
                     + lines[head:-tail] + ["sub rcx, 1", "jnz top"]
                     + lines[-tail:])


@pytest.mark.parametrize("kind", diffcorpus.KINDS)
def test_diffcorpus_seeds_unroll_as_one_peel_at_a_time(kind, spy,
                                                       monkeypatch):
    sig = FunctionSignature(("i", "i", "i"), "i") if kind == "int" \
        else FunctionSignature(("i", "f", "f"), "f")
    for seed in range(40):
        generated = diffcorpus.GENERATORS[kind](random.Random(seed))
        for asm in (generated, looped(generated, kind, 2 + seed % 4)):
            outs: list[str] = []

            def compile_() -> None:
                img = Image()
                base = img.next_code_addr()
                img.add_function("f", assemble(parse_asm(asm), base=base)[0])
                f = lift_function(img.memory, base, sig,
                                  LiftOptions(name="f"), Module("corpus"))
                run_o3(f)
                outs.append(renamed(f))

            new = through_run_o3(spy, monkeypatch, ONE_STEP_RUN, compile_)
            old = through_run_o3(spy, monkeypatch, per_peel_run, compile_)
            assert outs[0] == outs[1], (seed, asm)
            assert_same_unrolling(new, old)
            # straight-line code never reaches unroll (its shape rule);
            # the counted loop is unrolled
            assert any(n.peels > n.cleanups for n in new) == (asm != generated)


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


def build_exit_after_step(trip: int) -> Function:
    """``do { s += i * 3 + 1; i++; } while (i < trip); return s + x``: one
    block, and the exit test reads the stepped counter."""
    m = Module("t")
    f = Function(f"dowhile{trip}", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    loop, done = f.add_block("loop"), f.add_block("done")
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(I64, "i")
    s = b.phi(I64, "s")
    s2 = b.add(s, b.add(b.mul(i, b.const(I64, 3)), b.const(I64, 1)))
    i2 = b.add(i, b.const(I64, 1))
    b.cond_br(b.icmp("slt", i2, b.const(I64, trip)), loop, done)
    i.add_incoming(b.const(I64, 0), f.entry)
    i.add_incoming(i2, loop)
    s.add_incoming(b.const(I64, 0), f.entry)
    s.add_incoming(s2, loop)
    b.position_at_end(done)
    b.ret(b.add(s2, f.args[0]))
    verify(f)
    return f


def build_nested() -> Function:
    """``for (i = 0; i < 3; i++) for (j = 0; j < 2; j++) s += i * j + 1;
    return s + x``."""
    m = Module("t")
    f = Function("nested", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    oh, ih, ib, olatch, done = (f.add_block(n) for n in (
        "outer", "inner", "body", "outer.latch", "done"))
    b.br(oh)
    b.position_at_end(oh)
    i = b.phi(I64, "i")
    s = b.phi(I64, "s")
    b.cond_br(b.icmp("slt", i, b.const(I64, 3)), ih, done)
    b.position_at_end(ih)
    j = b.phi(I64, "j")
    t = b.phi(I64, "t")
    b.cond_br(b.icmp("slt", j, b.const(I64, 2)), ib, olatch)
    b.position_at_end(ib)
    t2 = b.add(t, b.add(b.mul(i, j), b.const(I64, 1)))
    j2 = b.add(j, b.const(I64, 1))
    b.br(ih)
    b.position_at_end(olatch)
    i2 = b.add(i, b.const(I64, 1))
    b.br(oh)
    i.add_incoming(b.const(I64, 0), f.entry)
    i.add_incoming(i2, olatch)
    s.add_incoming(b.const(I64, 0), f.entry)
    s.add_incoming(t, olatch)
    j.add_incoming(b.const(I64, 0), oh)
    j.add_incoming(j2, ib)
    t.add_incoming(s, oh)
    t.add_incoming(t2, ib)
    b.position_at_end(done)
    b.ret(b.add(s, f.args[0]))
    verify(f)
    return f


def _counted(trip: int, first: int = 0) -> int:
    return sum(i * 3 + 1 for i in range(max(trip, first)))


#: (builder, what it returns for x = 0, loops it holds)
HAND_BUILT = {
    "trip0": (lambda: build_counted_loop(0), 0, 1),
    "trip1": (lambda: build_counted_loop(1), _counted(1), 1),
    "trip4": (lambda: build_counted_loop(4), _counted(4), 1),
    "trip64": (lambda: build_counted_loop(unroll.MAX_TRIP),
               _counted(unroll.MAX_TRIP), 1),
    "exit-after-step": (lambda: build_exit_after_step(4), _counted(4), 1),
    "exit-after-step-once": (lambda: build_exit_after_step(0),
                             _counted(0, first=1), 1),
    "nested": (build_nested, sum(i * j + 1 for i in range(3)
                                 for j in range(2)), 2),
}


@pytest.mark.parametrize("case", HAND_BUILT)
def test_hand_built_loops_unroll_as_one_peel_at_a_time(case, spy):
    build, at_zero, loops = HAND_BUILT[case]
    new_func = build()
    assert len(find_natural_loops(new_func)) == loops
    new = spy.call(ONE_STEP_RUN, new_func)
    old = spy.call(per_peel_run, build())
    assert_same_unrolling([new], [old])
    assert not find_natural_loops(new_func)  # fully unrolled
    assert new.cleanups == loops
    for x in (0, 5, -7):
        got = Interpreter(new_func.module).run(new_func, [x])
        want = Interpreter(old.body.module).run(old.body, [x])
        assert got == want == (at_zero + x) & (2**64 - 1)


def test_the_peel_budget_counts_peels(spy, monkeypatch):
    """``MAX_TOTAL_PEELS`` still bounds the peels of one call: a loop the
    budget cuts short is left peeled as far as the per-peel unroller left
    it, and still a loop."""
    monkeypatch.setattr(unroll, "MAX_TOTAL_PEELS", 3)
    func = build_counted_loop(4)
    new = spy.call(ONE_STEP_RUN, func)
    old = spy.call(per_peel_run, build_counted_loop(4))
    assert new.peels == 3
    assert_same_unrolling([new], [old])
    assert len(find_natural_loops(func)) == 1
    for x in (0, 5):
        assert Interpreter(func.module).run(func, [x]) == _counted(4) + x


@pytest.mark.parametrize("case", HAND_BUILT)
def test_back_to_back_peels_keep_the_journal_exact(case):
    """Under the debug check every cleanup application and skip is
    verified, and a pass the journal calls idle is run on a copy with
    every instruction dirty: it must find nothing."""
    func = HAND_BUILT[case][0]()
    schedule.set_verify_after_each_pass(True)
    try:
        assert ONE_STEP_RUN(func)
    finally:
        schedule.set_verify_after_each_pass(False)
    verify(func)


# -- the journaled cleanup against the loop it replaced -----------------------


def parent_cleanup(func, passes, rounds) -> None:
    """The cleanup loop ``unroll.run`` ran after each peel before any
    scheduling: all four passes, every round, up to six rounds, each one
    walking the whole function (no journal while it runs)."""
    journal, func._changes = func._changes, None
    try:
        for _ in range(6):
            ch = simplifycfg.run(func)
            ch |= constprop.run(func)
            ch |= instcombine.run(func)
            ch |= dce.run(func)
            if not ch:
                break
    finally:
        func._changes = journal


@pytest.fixture
def applications(monkeypatch) -> Counter:
    """Counts every call of the four cleanup passes' ``run`` by module
    name, and constprop's and instcombine's rule evaluations under
    ``"rules"`` (not an application)."""
    counts: Counter = Counter()
    for mod in CLEANUP:
        def counted(*args, _real=mod.run, _name=mod.__name__, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, "run", counted)
    for cls, rule in list(constprop.RULES.items()):
        def evaluated(ins, _rule=rule):
            counts["rules"] += 1
            return _rule(ins)
        monkeypatch.setitem(constprop.RULES, cls, evaluated)
    real_simplify = instcombine._simplify

    def simplify(*args, **kwargs):
        counts["rules"] += 1
        return real_simplify(*args, **kwargs)
    monkeypatch.setattr(instcombine, "_simplify", simplify)
    return counts


def _apps(counts: Counter) -> int:
    return sum(n for name, n in counts.items() if name != "rules")


def _unroll(func: Function, oracle: bool, counts: Counter,
            monkeypatch) -> tuple[str, int, int]:
    """Printed IR after ``unroll.run``, the cleanup applications it made and
    their rule evaluations."""
    counts.clear()
    with monkeypatch.context() as mp:
        if oracle:
            mp.setattr(schedule, "settle", parent_cleanup)
        unroll.run(func)
    return print_function(func), _apps(counts), counts["rules"]


@pytest.mark.parametrize("trip", [0, 4])
def test_hand_built_loop_matches_the_old_cleanup(trip, applications,
                                                 monkeypatch):
    func = build_counted_loop(trip)
    new_ir, new_n, new_rules = _unroll(func, False, applications,
                                       monkeypatch)
    old_ir, old_n, old_rules = _unroll(build_counted_loop(trip), True,
                                       applications, monkeypatch)
    assert new_ir == old_ir
    assert not find_natural_loops(func)  # the peels ran
    assert new_n < old_n
    # one peel (trip 0) walks everything once either way; more peels walk
    # only what each one changed
    assert new_rules < old_rules if trip else new_rules == old_rules


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
        new = print_function(func), _apps(applications), applications["rules"]
        restore_function(func, before)
        func._name_counter = counter
        applications.clear()
        with monkeypatch.context() as mp:
            mp.setattr(schedule, "settle", parent_cleanup)
            assert real(func) == changed
        seen.append((new[0], print_function(func), new[1],
                     _apps(applications), new[2], applications["rules"]))
        applications.clear()
        return changed

    monkeypatch.setattr(unroll, "run", both_ways)
    ws = StencilWorkspace(JacobiSetup(sz=9, sweeps=1))
    M.prepare_kernel(ws, code, "llvm-fix", line=True)
    peeled = [s for s in seen if s[3]]
    assert peeled, "the fixated point loop should be unrolled"
    for new_ir, old_ir, new_n, old_n, _new_rules, _old_rules in seen:
        assert new_ir == old_ir
        assert new_n <= old_n
    assert sum(s[2] for s in seen) < sum(s[3] for s in seen)
    assert sum(s[4] for s in seen) < sum(s[5] for s in seen)
