"""Generic lattice-based dataflow engine over the MiniLLVM CFG.

:func:`solve_value_problem` is a *sparse* SSA solver: one abstract value
per SSA value, propagated along def-use edges with meet-over-phis (a phi's
state is the join of its incoming values' states).  Because the IR is SSA,
a fact belongs to a value, not to a block boundary; the solver is the
engine behind the undef-use and memory-region checkers.

The solver takes a :class:`Lattice` — a bounded join-semilattice given by
``bottom()`` and ``join()``.  States must be comparable with ``==``; the
solver iterates to a fixpoint and relies on finite ascending chains, so
domains with infinite chains (intervals) must widen once a value has
changed ``widen_after`` times (:meth:`ValueProblem.widen`).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.ir import instructions as I
from repro.ir.cfg import reverse_postorder
from repro.ir.module import Function
from repro.ir.values import Value


class Lattice:
    """A bounded join-semilattice.

    Subclasses provide ``bottom`` (the least element, meaning "no
    information yet / unreached") and ``join`` (the least upper bound).
    """

    def bottom(self) -> object:
        raise NotImplementedError

    def join(self, a: object, b: object) -> object:
        raise NotImplementedError

    def join_all(self, states: Iterable[object]) -> object:
        out = self.bottom()
        for s in states:
            out = self.join(out, s)
        return out


class BoolLattice(Lattice):
    """Two-point lattice: False (bottom) -> True.  Taint-style facts."""

    def bottom(self) -> bool:
        return False

    def join(self, a: object, b: object) -> bool:
        return bool(a) or bool(b)


class ValueProblem:
    """A sparse SSA dataflow problem (forward along def-use edges).

    * ``initial(value)`` — the abstract state of a non-instruction value
      (arguments, constants, globals, undef);
    * ``transfer(ins, get)`` — the state of a non-phi instruction result,
      where ``get(operand)`` reads the current state of any operand;
    * phis take the meet (join) over their incoming values' states —
      override ``transfer_phi`` for path-sensitive variants;
    * ``widen(old, new)`` — called instead of plain replacement once a
      value changed state more than ``widen_after`` times, to cut infinite
      ascending chains (interval domains).  Default: keep ``new``.
    """

    def lattice(self) -> Lattice:
        raise NotImplementedError

    def initial(self, value: Value) -> object:
        return self.lattice().bottom()

    def transfer(self, ins: I.Instruction,
                 get: Callable[[Value], object]) -> object:
        raise NotImplementedError

    def transfer_phi(self, phi: I.Phi,
                     get: Callable[[Value], object]) -> object:
        lat = self.lattice()
        return lat.join_all(get(v) for v, _b in phi.incoming())

    def widen(self, old: object, new: object) -> object:
        return new


class ValueStates:
    """Solved per-SSA-value abstract states (id-keyed)."""

    def __init__(self, states: dict[int, object], problem: ValueProblem) -> None:
        self._states = states
        self._problem = problem

    def get(self, value: Value) -> object:
        if id(value) in self._states:
            return self._states[id(value)]
        return self._problem.initial(value)


def solve_value_problem(func: Function, problem: ValueProblem,
                        widen_after: int = 8) -> ValueStates:
    """Sparse forward propagation along def-use edges to a fixpoint."""
    states: dict[int, object] = {}
    users: dict[int, list[I.Instruction]] = {}
    instrs: list[I.Instruction] = []
    for blk in reverse_postorder(func):
        for ins in blk.instructions:
            instrs.append(ins)
            for op in ins.operands:
                users.setdefault(id(op), []).append(ins)

    def get(value: Value) -> object:
        if id(value) in states:
            return states[id(value)]
        return problem.initial(value)

    lat = problem.lattice()
    for ins in instrs:
        states[id(ins)] = lat.bottom()

    changes: dict[int, int] = {}
    work = list(instrs)
    queued = {id(i) for i in work}
    while work:
        ins = work.pop(0)
        queued.discard(id(ins))
        if isinstance(ins, I.Phi):
            new = problem.transfer_phi(ins, get)
        else:
            new = problem.transfer(ins, get)
        old = states[id(ins)]
        if new == old:
            continue
        n = changes.get(id(ins), 0) + 1
        changes[id(ins)] = n
        if n > widen_after:
            new = problem.widen(old, new)
            if new == old:
                continue
        states[id(ins)] = new
        for user in users.get(id(ins), ()):
            if id(user) not in queued:
                queued.add(id(user))
                work.append(user)
    return ValueStates(states, problem)
