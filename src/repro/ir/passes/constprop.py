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
from repro.ir.passes.schedule import Dirt, dirty_instructions, fixpoint
from repro.ir.values import Constant, ConstantFP, ConstantVector, Undef, Value


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


#: the classes whose rule can fire without a constant operand of their own
#: (through an address chain, on identical select arms, a same-type bitcast)
NEEDS_NO_CONSTANT = frozenset({I.Load, I.Select, I.Cast})
_CONSTANTS = (Constant, ConstantFP, ConstantVector, Undef)
#: the links of the two address chains: ``_global_and_offset`` (a load's
#: gep / bitcast / inttoptr / ptrtoint / constant-add chain) and
#: ``fold.resolve_const_pointer`` (a ptrtoint's bitcast / inttoptr / gep
#: chain)
_CHAIN = frozenset({I.GEP, I.Cast})

#: the most walks one application makes before it stops, dirty
ROUNDS = 64


def _visits(ins: I.Instruction) -> bool:
    """Whether a rule can fire on ``ins``: every other fold needs one of
    its operands to be a constant."""
    cls = type(ins)
    if cls in NO_RULE:
        return False
    return cls in NEEDS_NO_CONSTANT or any(
        isinstance(o, _CONSTANTS) for o in ins.operands)


def _wakes(ins: I.Instruction, new: tuple[Value, ...]) -> bool:
    """Whether new operands ``new`` can make a rule fire on ``ins`` that
    did not before: a constant, or any value for the rules above that need
    none (types survive a replacement, so nothing else moves)."""
    return type(ins) in NEEDS_NO_CONSTANT or any(
        isinstance(v, _CONSTANTS) for v in new)


def _link(v: Value) -> bool:
    return type(v) in _CHAIN or (type(v) is I.BinOp and v.opcode == "add")


def _reads(user: I.Instruction, v: I.Instruction) -> bool:
    """A load, or a link of an address chain, reads through a link."""
    return _link(v) and (type(user) is I.Load or _link(user))


DIRT = Dirt(NO_RULE, _visits, _wakes, _reads)


def idle(func: Function) -> bool:
    """No instruction a rule can fire on is dirty since the clean point."""
    return dirty_instructions(func, "constprop", DIRT) == set()


def _rule(ins: I.Instruction) -> Value | None:
    return RULES[type(ins)](ins)


def run(func: Function) -> bool:
    """Fold the dirty instructions to fixpoint; returns True on any change."""
    return fixpoint(func, "constprop", _rule, DIRT, ROUNDS)
