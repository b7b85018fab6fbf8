"""Per-block value numbering with store-to-load forwarding.

Deliberately *local*: redundancies across basic blocks survive, which is the
mechanism behind the paper's observation that the identity transformation of
the multi-block line kernel is slower than the original while the
single-block element kernel is not (Sec. VI-B: "missed optimizations across
basic blocks").
"""

from __future__ import annotations

from repro.ir import instructions as I
from repro.ir.module import Function
from repro.ir.values import Constant, ConstantFP, Value


def _value_key(v: Value) -> object:
    if isinstance(v, Constant):
        return ("const", v.type.bits, v.value)  # type: ignore[attr-defined]
    if isinstance(v, ConstantFP):
        return ("fconst", repr(v.type), v.value)
    return id(v)


def _expr_key(ins: I.Instruction) -> tuple | None:
    ops = tuple(_value_key(o) for o in ins.operands)
    if isinstance(ins, I.BinOp):
        if ins.opcode in ("add", "mul", "and", "or", "xor", "fadd", "fmul"):
            ops = tuple(sorted(ops, key=repr))  # commutative normalization
        return ("bin", ins.opcode, repr(ins.type), ops)
    if isinstance(ins, (I.ICmp, I.FCmp)):
        return ("cmp", ins.opcode, ins.pred, ops)
    if isinstance(ins, I.Cast):
        return ("cast", ins.opcode, repr(ins.type), ops)
    if isinstance(ins, I.GEP):
        return ("gep", repr(ins.elem), repr(ins.type), ops)
    if isinstance(ins, I.Select):
        return ("select", repr(ins.type), ops)
    if isinstance(ins, I.ExtractElement):
        return ("extract", repr(ins.type), ops)
    if isinstance(ins, I.InsertElement):
        return ("insert", repr(ins.type), ops)
    if isinstance(ins, I.ShuffleVector):
        return ("shuffle", ins.mask, repr(ins.type), ops)
    return None


def run(func: Function) -> bool:
    """Local CSE + load/store forwarding; returns True on any change."""
    changed = False
    for blk in func.blocks:
        available: dict[tuple, I.Instruction] = {}
        # memory state: generation counter + known (ptr, type) -> value
        known_mem: dict[tuple, Value] = {}
        for ins in list(blk.instructions):
            if isinstance(ins, I.Phi):
                continue
            if isinstance(ins, I.Store):
                val, ptr = ins.operands
                # a store invalidates everything (no alias analysis), then
                # records the stored value for exact-pointer forwarding
                known_mem.clear()
                known_mem[(id(ptr), repr(val.type))] = val
                continue
            if isinstance(ins, I.Call):
                known_mem.clear()
                continue
            if isinstance(ins, I.Load):
                key = (id(ins.operands[0]), repr(ins.type))
                prior = known_mem.get(key)
                if prior is not None and prior.type is ins.type:
                    func.replace_all_uses(ins, prior)
                    ins.erase()
                    changed = True
                else:
                    known_mem[key] = ins
                continue
            key2 = _expr_key(ins)
            if key2 is None:
                continue
            prior2 = available.get(key2)
            if prior2 is not None:
                func.replace_all_uses(ins, prior2)
                ins.erase()
                changed = True
            else:
                available[key2] = ins
    if changed:
        func.bump_version()
    return changed
