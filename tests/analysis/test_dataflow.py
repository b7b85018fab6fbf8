"""Dataflow engine on hand-built CFGs: diamond, loop, unreachable, self-loop."""

import pytest

from repro.ir import Function, FunctionType, I1, I64, IRBuilder, Module, VOID
from repro.ir.values import Constant, Undef

from repro.analysis.dataflow import (
    BACKWARD,
    FORWARD,
    BlockProblem,
    BoolLattice,
    Lattice,
    SetLattice,
    ValueProblem,
    solve_block_problem,
    solve_value_problem,
)
from repro.ir.cfg import reachable_blocks, reverse_postorder


def _func(name="f", ret=I64, params=(I64,)):
    m = Module("t")
    f = Function(name, FunctionType(ret, tuple(params)))
    m.add_function(f)
    return f


class TraceProblem(BlockProblem):
    """Forward: which block names can appear on a path reaching this block."""

    direction = FORWARD

    def lattice(self):
        return SetLattice()

    def transfer(self, block, state):
        return frozenset(state) | {block.name}


class LiveNamesProblem(BlockProblem):
    """Backward: block names reachable *from* this block (trace, reversed)."""

    direction = BACKWARD

    def lattice(self):
        return SetLattice()

    def transfer(self, block, state):
        return frozenset(state) | {block.name}


def _diamond():
    f = _func()
    entry = f.add_block("entry")
    then = f.add_block("then")
    els = f.add_block("els")
    merge = f.add_block("merge")
    b = IRBuilder(entry)
    cond = b.icmp("eq", f.args[0], b.const(I64, 0))
    b.cond_br(cond, then, els)
    b.position_at_end(then)
    t = b.add(f.args[0], b.const(I64, 1))
    b.br(merge)
    b.position_at_end(els)
    e = b.add(f.args[0], b.const(I64, 2))
    b.br(merge)
    b.position_at_end(merge)
    phi = b.phi(I64)
    phi.add_incoming(t, then)
    phi.add_incoming(e, els)
    b.ret(phi)
    return f, (entry, then, els, merge), phi


def test_diamond_forward_trace():
    f, (entry, then, els, merge), _ = _diamond()
    states = solve_block_problem(f, TraceProblem())
    assert states.inp[merge] == {"entry", "then", "els"}
    assert states.out[merge] == {"entry", "then", "els", "merge"}
    assert states.inp[then] == {"entry"}
    assert states.inp[entry] == frozenset()


def test_diamond_backward():
    f, (entry, then, els, merge), _ = _diamond()
    states = solve_block_problem(f, LiveNamesProblem())
    # inp = state at block entry (what lies at/below it), out = at block exit
    assert states.inp[entry] == {"entry", "then", "els", "merge"}
    assert states.inp[merge] == {"merge"}
    assert states.out[entry] == {"then", "els", "merge"}


def test_diamond_rpo_and_preds():
    f, (entry, then, els, merge), _ = _diamond()
    rpo = reverse_postorder(f)
    order = {b: i for i, b in enumerate(rpo)}
    assert order[entry] == 0
    assert order[merge] == 3
    assert order[then] < order[merge] and order[els] < order[merge]
    preds = f.predecessor_map()
    assert set(preds[id(merge)]) == {then, els}
    assert preds[id(entry)] == []


def test_loop_fixpoint():
    f = _func()
    entry = f.add_block("entry")
    header = f.add_block("header")
    body = f.add_block("body")
    exit_ = f.add_block("exit")
    b = IRBuilder(entry)
    b.br(header)
    b.position_at_end(header)
    phi = b.phi(I64)
    cond = b.icmp("slt", phi, f.args[0])
    b.cond_br(cond, body, exit_)
    b.position_at_end(body)
    nxt = b.add(phi, b.const(I64, 1))
    b.br(header)
    phi.add_incoming(b.const(I64, 0), entry)
    phi.add_incoming(nxt, body)
    b.position_at_end(exit_)
    b.ret(phi)

    states = solve_block_problem(f, TraceProblem())
    # the back edge folds the body into the header's reaching set
    assert states.inp[header] == {"entry", "header", "body"}
    assert states.inp[exit_] == {"entry", "header", "body"}
    assert states.inp[body] == {"entry", "header", "body"}


def test_unreachable_block_excluded_but_visited():
    f = _func()
    entry = f.add_block("entry")
    dead = f.add_block("dead")
    b = IRBuilder(entry)
    b.ret(f.args[0])
    b.position_at_end(dead)
    b.ret(b.const(I64, 9))

    assert reachable_blocks(f) == {entry}
    rpo = reverse_postorder(f)
    assert rpo[-1] is dead  # appended after the reachable RPO
    states = solve_block_problem(f, TraceProblem())
    # dense solver still assigns the dead block a state (its own transfer
    # over bottom), it just never receives flow from the entry
    assert states.inp[dead] == frozenset()
    assert states.out[dead] == {"dead"}


def test_self_loop_entry_keeps_boundary():
    f = _func()
    entry = f.add_block("entry")
    exit_ = f.add_block("exit")
    b = IRBuilder(entry)
    cond = b.icmp("eq", f.args[0], b.const(I64, 0))
    b.cond_br(cond, entry, exit_)
    b.position_at_end(exit_)
    b.ret(f.args[0])

    class Boundary(TraceProblem):
        def boundary(self, func):
            return frozenset({"<args>"})

    states = solve_block_problem(f, Boundary())
    # the self edge must not wash out the entry boundary state
    assert "<args>" in states.inp[entry]
    assert states.inp[exit_] == {"<args>", "entry"}


def test_non_convergence_guard():
    f = _func()
    entry = f.add_block("entry")
    b = IRBuilder(entry)
    cond = b.icmp("eq", f.args[0], b.const(I64, 0))
    b.cond_br(cond, entry, entry)

    class Growing(BlockProblem):
        """Deliberately non-monotone-bounded: grows a counter forever."""

        def lattice(self):
            class L(Lattice):
                def bottom(self):
                    return 0

                def join(self, a, b):
                    return max(a, b)

            return L()

        def transfer(self, block, state):
            return state + 1

    with pytest.raises(RuntimeError, match="did not converge"):
        solve_block_problem(f, Growing(), max_iterations=50)


# -- sparse SSA solver ---------------------------------------------------------


class TaintToy(ValueProblem):
    def lattice(self):
        return BoolLattice()

    def initial(self, value):
        return isinstance(value, Undef)

    def transfer(self, ins, get):
        if ins.opcode == "load":
            return False
        return any(get(op) for op in ins.operands)


def test_sparse_taint_through_phi():
    f, (entry, then, els, merge), phi = _diamond()
    # poison the else-branch add with an undef operand
    els_add = els.instructions[0]
    els_add.operands[1] = Undef(I64)
    states = solve_value_problem(f, TaintToy())
    assert states.get(then.instructions[0]) is False
    assert states.get(els_add) is True
    assert states.get(phi) is True  # meet over phis: any tainted incoming


def test_sparse_clean_diamond():
    f, blocks, phi = _diamond()
    states = solve_value_problem(f, TaintToy())
    assert states.get(phi) is False


def test_sparse_widening_cuts_infinite_chain():
    f = _func()
    entry = f.add_block("entry")
    header = f.add_block("header")
    exit_ = f.add_block("exit")
    b = IRBuilder(entry)
    b.br(header)
    b.position_at_end(header)
    phi = b.phi(I64)
    nxt = b.add(phi, b.const(I64, 1))
    cond = b.icmp("slt", nxt, f.args[0])
    b.cond_br(cond, header, exit_)
    phi.add_incoming(b.const(I64, 0), entry)
    phi.add_incoming(nxt, header)
    b.position_at_end(exit_)
    b.ret(phi)

    TOP = "top"

    class Count(ValueProblem):
        """Max-of-constants domain with an infinite ascending chain."""

        def lattice(self):
            class L(Lattice):
                def bottom(self):
                    return 0

                def join(self, a, b):
                    if a == TOP or b == TOP:
                        return TOP
                    return max(a, b)

            return L()

        def initial(self, value):
            return getattr(value, "value", 0) if not isinstance(
                value, Undef) else 0

        def transfer(self, ins, get):
            if ins.opcode != "add":
                return 0
            vals = [get(op) for op in ins.operands]
            if TOP in vals:
                return TOP
            return sum(vals)

        def widen(self, old, new):
            return TOP

    states = solve_value_problem(f, Count(), widen_after=4)
    assert states.get(phi) == TOP  # terminated via widening, not divergence
