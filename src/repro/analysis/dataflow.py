"""Generic lattice-based dataflow engine over the MiniLLVM CFG.

Two solver shapes cover the analyses this repo needs:

* :func:`solve_block_problem` — the classic dense worklist solver: one
  lattice state per basic-block boundary, forward or backward, join at
  control-flow merges.  Reaching definitions, liveness, available
  expressions all fit here.

* :func:`solve_value_problem` — a *sparse* SSA solver: one abstract value
  per SSA value, propagated along def-use edges with meet-over-phis (a
  phi's state is the join of its incoming values' states).  Because the IR
  is SSA, this converges in a fraction of the dense solver's work and is
  the engine behind the undef-use and memory-region checkers.

Both solvers take a :class:`Lattice` — a bounded join-semilattice given by
``bottom()`` and ``join()``.  States must be hashable-comparable with
``==``; the solvers iterate to a fixpoint and rely on finite ascending
chains, so domains with infinite chains (intervals) must widen via the
``widen_after`` hook of the sparse solver.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.ir import instructions as I
from repro.ir.cfg import reverse_postorder
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Value

FORWARD = "forward"
BACKWARD = "backward"


class Lattice:
    """A bounded join-semilattice.

    Subclasses provide ``bottom`` (the least element, meaning "no
    information yet / unreached") and ``join`` (the least upper bound).
    ``leq`` is derived; override it when a cheaper test exists.
    """

    def bottom(self) -> object:
        raise NotImplementedError

    def join(self, a: object, b: object) -> object:
        raise NotImplementedError

    def leq(self, a: object, b: object) -> bool:
        return self.join(a, b) == b

    def join_all(self, states: Iterable[object]) -> object:
        out = self.bottom()
        for s in states:
            out = self.join(out, s)
        return out


class SetLattice(Lattice):
    """Powerset lattice: bottom = empty set, join = union."""

    def bottom(self) -> frozenset:
        return frozenset()

    def join(self, a: object, b: object) -> frozenset:
        return frozenset(a) | frozenset(b)  # type: ignore[arg-type]

    def leq(self, a: object, b: object) -> bool:
        return frozenset(a) <= frozenset(b)  # type: ignore[arg-type]


class BoolLattice(Lattice):
    """Two-point lattice: False (bottom) -> True.  Taint-style facts."""

    def bottom(self) -> bool:
        return False

    def join(self, a: object, b: object) -> bool:
        return bool(a) or bool(b)


# -- dense (block-level) solver ------------------------------------------------


class BlockProblem:
    """A dense dataflow problem: per-block transfer over a lattice.

    ``direction`` is :data:`FORWARD` (in = join of predecessors' out) or
    :data:`BACKWARD` (out = join of successors' in).  ``boundary`` is the
    state at the entry (forward) / at every exit block (backward).
    """

    direction: str = FORWARD

    def lattice(self) -> Lattice:
        raise NotImplementedError

    def boundary(self, func: Function) -> object:
        return self.lattice().bottom()

    def transfer(self, block: BasicBlock, state: object) -> object:
        """The state after (forward) / before (backward) the block."""
        raise NotImplementedError


class BlockStates:
    """Solved per-block states: ``inp[block]`` and ``out[block]``."""

    def __init__(self, inp: dict[BasicBlock, object],
                 out: dict[BasicBlock, object]) -> None:
        self.inp = inp
        self.out = out


def solve_block_problem(func: Function, problem: BlockProblem,
                        max_iterations: int = 10_000) -> BlockStates:
    """Worklist iteration to the least fixpoint."""
    lat = problem.lattice()
    pred_ids = func.predecessor_map()
    preds = {b: pred_ids[id(b)] for b in func.blocks}
    succs = {b: b.successors() for b in func.blocks}
    forward = problem.direction == FORWARD
    edges_in, edges_out = (preds, succs) if forward else (succs, preds)

    inp: dict[BasicBlock, object] = {b: lat.bottom() for b in func.blocks}
    out: dict[BasicBlock, object] = {b: lat.bottom() for b in func.blocks}
    boundary = problem.boundary(func)
    if forward:
        if func.blocks:
            inp[func.entry] = boundary
    else:
        for b in func.blocks:
            if not b.successors():
                inp[b] = boundary

    order = reverse_postorder(func)
    if not forward:
        order = list(reversed(order))
    work: list[BasicBlock] = list(order)
    queued = {id(b) for b in work}
    steps = 0
    while work:
        steps += 1
        if steps > max_iterations:
            raise RuntimeError(
                f"dataflow did not converge in {max_iterations} steps "
                f"(@{func.name}: non-monotone transfer or unbounded lattice?)")
        blk = work.pop(0)
        queued.discard(id(blk))
        sources = edges_in[blk]
        if sources:
            joined = lat.join_all(out[p] for p in sources)
            if forward and blk is func.entry:
                # an entry with a back edge still starts from the boundary
                joined = lat.join(joined, boundary)
            inp[blk] = joined
        elif forward and blk is not func.entry:
            inp[blk] = lat.bottom()
        new_out = problem.transfer(blk, inp[blk])
        if new_out != out[blk]:
            out[blk] = new_out
            for s in edges_out[blk]:
                if id(s) not in queued:
                    queued.add(id(s))
                    work.append(s)
    if forward:
        return BlockStates(inp, out)
    # backward: "inp" is the state at block exit, "out" at block entry —
    # rename so callers always read inp=before, out=after in layout order
    return BlockStates(out, inp)


# -- sparse (SSA value-level) solver -------------------------------------------


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
