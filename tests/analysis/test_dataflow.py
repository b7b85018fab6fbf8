"""The sparse SSA dataflow solver on hand-built CFGs (a diamond, a loop),
and the diamond's reverse postorder and predecessors."""

from repro.ir import Function, FunctionType, I64, IRBuilder, Module
from repro.ir.values import Undef

from repro.analysis.dataflow import (
    BoolLattice,
    Lattice,
    ValueProblem,
    solve_value_problem,
)
from repro.ir.cfg import reverse_postorder


def _func(name="f", ret=I64, params=(I64,)):
    m = Module("t")
    f = Function(name, FunctionType(ret, tuple(params)))
    m.add_function(f)
    return f


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
