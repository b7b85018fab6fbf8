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
from repro.ir.module import Function
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
    if removed:
        func.bump_version()
    return removed
