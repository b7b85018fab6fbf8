"""Per-block value numbering with store-to-load forwarding.

Deliberately *local*: redundancies across basic blocks survive, which is the
mechanism behind the paper's observation that the identity transformation of
the multi-block line kernel is slower than the original while the
single-block element kernel is not (Sec. VI-B: "missed optimizations across
basic blocks").
"""

from __future__ import annotations

from repro.arith import f32_to_bits, f64_to_bits
from repro.ir import instructions as I
from repro.ir.irtypes import DOUBLE, FLOAT
from repro.ir.module import BasicBlock, Function
from repro.ir.passes.schedule import dirty_blocks, mark
from repro.ir.values import Constant, ConstantFP, Value

#: a float constant is numbered by its bits: ``0.0 == -0.0`` as Python
#: floats, but ``x * 0.0`` and ``x * -0.0`` are different values
_FP_BITS = {DOUBLE: f64_to_bits, FLOAT: f32_to_bits}

#: the commutative opcodes, numbered by their operand *set*
_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})


def _value_key(v: Value) -> object:
    if isinstance(v, Constant):
        return ("const", v.type.bits, v.value)  # type: ignore[attr-defined]
    if isinstance(v, ConstantFP):
        return ("fconst", v.type, _FP_BITS[v.type](v.value))
    return id(v)


#: what identifies an expression besides its operands, by class (types are
#: interned, so a key holds the type object itself)
RULES = {
    I.BinOp: lambda ins: ("bin", ins.opcode, ins.type),
    I.ICmp: lambda ins: ("cmp", ins.opcode, ins.pred),
    I.FCmp: lambda ins: ("cmp", ins.opcode, ins.pred),
    I.Cast: lambda ins: ("cast", ins.opcode, ins.type),
    I.GEP: lambda ins: ("gep", ins.elem, ins.type),
    I.Select: lambda ins: ("select", ins.type),
    I.ExtractElement: lambda ins: ("extract", ins.type),
    I.InsertElement: lambda ins: ("insert", ins.type),
    I.ShuffleVector: lambda ins: ("shuffle", ins.mask, ins.type),
}

#: the memory classes the walk handles itself (forwarding and clobbers),
#: and the classes this pass skips in one set test
MEMORY = frozenset({I.Load, I.Store, I.Call})
NO_RULE = frozenset({I.Phi, I.Alloca, I.Br, I.Ret, I.Unreachable})


def idle(func: Function) -> bool:
    """No block changed since the last clean point."""
    return dirty_blocks(func, "gvn") == set()


def run(func: Function) -> bool:
    """Local CSE + load/store forwarding over the dirty blocks; returns
    True on any change.

    One walk per block brings the block to a fixpoint (a replacement's
    users later in the block are numbered after it), so a block nothing
    changed in since it was walked is skipped.  A replacement whose users
    sit in a block already walked leaves that block dirty for the next
    application, which is when a walk over every block would see it too.
    """
    dirty = dirty_blocks(func, "gvn")
    walked: set[BasicBlock] = set()
    left: set[BasicBlock] = set()
    changed = False

    def replace(ins: I.Instruction, prior: Value) -> None:
        here = ins.block
        for user, _i in ins.uses:
            ub = user.block
            if ub is here:
                continue  # later in the walk, or a phi
            if ub in walked:
                left.add(ub)
            elif dirty is not None:
                dirty.add(ub)
        func.replace_all_uses(ins, prior)
        ins.erase()

    for blk in func.blocks:
        if dirty is not None and blk not in dirty:
            continue
        walked.add(blk)
        available: dict[tuple, I.Instruction] = {}
        # memory state: generation counter + known (ptr, type) -> value
        known_mem: dict[tuple, Value] = {}
        for ins in list(blk.instructions):
            cls = type(ins)
            if cls in NO_RULE:
                continue
            if cls in MEMORY:
                if cls is I.Load:
                    key = (id(ins.operands[0]), ins.type)
                    prior = known_mem.get(key)
                    if prior is not None and prior.type is ins.type:
                        replace(ins, prior)
                        changed = True
                    else:
                        known_mem[key] = ins
                    continue
                # a store or call invalidates everything (no alias
                # analysis); a store then records the stored value for
                # exact-pointer forwarding
                known_mem.clear()
                if cls is I.Store:
                    val, ptr = ins.operands
                    known_mem[(id(ptr), val.type)] = val
                continue
            ops: object = tuple([_value_key(o) for o in ins.operands])
            if cls is I.BinOp and ins.opcode in _COMMUTATIVE:
                ops = frozenset(ops)  # two operands: the set is exact
            key2 = (RULES[cls](ins), ops)
            prior2 = available.get(key2)
            if prior2 is not None:
                replace(ins, prior2)
                changed = True
            else:
                available[key2] = ins
    mark(func, "gvn", left)
    if changed:
        func.bump_version()
    return changed
