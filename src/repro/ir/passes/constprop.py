"""Constant propagation, including loads from constant module globals.

The global-load folding is the engine of IR-level specialization (Sec. IV):
``fixation`` copies fixed memory into the module as a constant global, and
this pass turns loads at constant offsets into literal constants, which
unlocks branch folding and full unrolling downstream.
"""

from __future__ import annotations

from repro.ir import instructions as I
from repro.ir.module import Function, GlobalVariable
from repro.ir.passes import fold
from repro.ir.values import Constant, Value


def _global_and_offset(ptr: Value) -> tuple[GlobalVariable, int] | None:
    """Resolve a pointer expression to (global, constant byte offset)."""
    offset = 0
    seen = 0
    while seen < 64:
        seen += 1
        if isinstance(ptr, GlobalVariable):
            return ptr, offset
        if isinstance(ptr, I.GEP):
            idx = ptr.operands[1]
            if not isinstance(idx, Constant):
                return None
            offset += idx.signed * ptr.elem.size_bytes()
            ptr = ptr.operands[0]
            continue
        if isinstance(ptr, I.Cast) and ptr.opcode in ("bitcast", "inttoptr", "ptrtoint"):
            ptr = ptr.operands[0]
            continue
        if isinstance(ptr, I.BinOp) and ptr.opcode == "add":
            a, b = ptr.operands
            if isinstance(b, Constant):
                offset += b.signed
                ptr = a
                continue
            if isinstance(a, Constant):
                offset += a.signed
                ptr = b
                continue
            return None
        return None
    return None


def _fold_load(ins: I.Load) -> Value | None:
    resolved = _global_and_offset(ins.operands[0])
    return None if resolved is None else \
        fold.read_constant_global(*resolved, ins.type)


#: the rule of each class, found by ``type(ins)`` (the shared folds plus
#: loads from constant globals), and the classes skipped in one set test
RULES = {**fold.RULES, I.Load: _fold_load}
NO_RULE = fold.NO_RULE - {I.Load}


def run(func: Function) -> bool:
    """Fold constants to fixpoint; returns True on any change."""
    changed = False
    for _ in range(64):
        round_changed = False
        for blk in func.blocks:
            for ins in list(blk.instructions):
                cls = type(ins)
                if cls in NO_RULE:
                    continue
                repl = RULES[cls](ins)
                if repl is not None and repl is not ins:
                    func.replace_all_uses(ins, repl)
                    ins.erase()
                    round_changed = True
        changed |= round_changed
        if not round_changed:
            break
    if changed:
        func.bump_version()
    return changed
