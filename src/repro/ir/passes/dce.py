"""Aggressive dead code elimination (ADCE-style mark & sweep).

Roots are side-effecting instructions (stores, real calls, terminators);
everything transitively reachable through operands is live.  Crucially this
kills *phi cycles*: register phi webs keep each other alive through loop
back-edges, and the paper relies on "these unused nodes will be removed by
the optimizer" (Sec. III-C).  The lifter closes with this sweep itself, so
what it hands on holds no dead IR.
"""

from __future__ import annotations

from repro.ir import instructions as I
from repro.ir.instructions import ERASE, INSERT, OPERAND
from repro.ir.module import Function
from repro.ir.passes.schedule import mark, since
from repro.ir.values import Value


#: the classes live by themselves (stores, terminators, and calls but a
#: pure intrinsic one), and the classes live only through a use
ROOTS = frozenset({I.Store, I.Br, I.Ret, I.Unreachable, I.Call})
NO_RULE = frozenset({I.BinOp, I.ICmp, I.FCmp, I.Select, I.Cast, I.Load,
                     I.Alloca, I.GEP, I.ExtractElement, I.InsertElement,
                     I.ShuffleVector, I.Phi})


def _is_root(ins: I.Instruction) -> bool:
    cls = type(ins)
    return cls in ROOTS and (cls is not I.Call or not I.is_dce_safe(ins))


def _candidates(events: list) -> list[I.Instruction]:
    """The instructions that may have died since the events began: those
    that lost a use, and those inserted.  At a clean point everything is
    live, and a path from a root to anything else runs through an edge
    that is still there unless the value at its end lost that use."""
    out: set[Value] = set()
    for e in events:
        tag = e[0]
        if tag == OPERAND:
            old = e[2]
            if type(old) is list:
                out.update(old)
            elif old is not None:
                out.add(old)
        elif tag == ERASE:
            out.update(e[1].operands)
        elif tag == INSERT:
            out.add(e[1])
    return [v for v in out
            if isinstance(v, I.Instruction) and v.block is not None]


def idle(func: Function) -> bool:
    """Every candidate (:func:`_candidates`) is shown, within
    :data:`_REACH` steps, to reach a root through its users."""
    s = since(func, "dce")
    if s is None:
        return False
    live: set[Value] = set()
    if not all(_reaches_root(v, live) for v in _candidates(s[0])):
        return False
    mark(func, "dce")  # clean here too: the next ask starts from now
    return True


#: how far up its users ``idle`` follows a value before it gives up and
#: lets the sweep decide
_REACH = 64


def _reaches_root(v: I.Instruction, live: set[Value]) -> bool:
    """Whether ``v`` is shown, within :data:`_REACH` steps, to be used
    transitively by a root (``live`` holds the values already shown to be,
    and gains the path)."""
    parent: dict[Value, Value | None] = {v: None}
    work = [v]
    for _ in range(_REACH):
        if not work:
            return False
        x = work.pop()
        if x in live or _is_root(x):
            while x is not None:  # the path to it is live too
                live.add(x)
                x = parent[x]
            return True
        for user, _i in x.uses:
            if user not in parent:
                parent[user] = x
                work.append(user)
    return False


def run(func: Function) -> bool:
    """Mark & sweep; returns True if anything was removed."""
    live: set[Value] = set()  # values hash by identity
    work: list[Value] = []
    for ins in func.instructions():
        if _is_root(ins):
            live.add(ins)
            work.extend(ins.operands)
    while work:
        v = work.pop()
        if v in live or not isinstance(v, I.Instruction):
            continue
        live.add(v)
        work.extend(v.operands)

    removed = False
    for blk in func.blocks:
        for ins in [i for i in blk.instructions if i not in live]:
            ins.erase()
            removed = True
    mark(func, "dce")
    if removed:
        func.bump_version()
    return removed
