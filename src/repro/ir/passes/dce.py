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


def _is_root(ins: I.Instruction) -> bool:
    if ins.is_terminator or ins.opcode == "store":
        return True
    if isinstance(ins, I.Call):
        return not I.is_dce_safe(ins)
    return False


def run(func: Function) -> bool:
    """Mark & sweep; returns True if anything was removed."""
    live: set[int] = set()
    work: list[Value] = []
    for ins in func.instructions():
        if _is_root(ins):
            live.add(id(ins))
            work.extend(ins.operands)
    while work:
        v = work.pop()
        if not isinstance(v, I.Instruction) or id(v) in live:
            continue
        live.add(id(v))
        work.extend(v.operands)

    removed = False
    for blk in func.blocks:
        for ins in [i for i in blk.instructions
                    if id(i) not in live and not _is_root(i)]:
            ins.erase()
            removed = True
    if removed:
        func.bump_version()
    return removed
