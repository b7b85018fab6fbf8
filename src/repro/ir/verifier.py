"""IR verifier: the one list of what well-formed MiniLLVM means.

Every rule — names and parents, terminators, phi position, types, branch
targets, use lists, the cached predecessor map, Φ coverage, operands
defined nowhere, detached and unreachable definitions, definition order and
SSA dominance — is stated
once, in :func:`violations`, with one message and one severity.  Two
reporters read that walk: :func:`verify` raises :class:`IRError` at the
first error (the contract for "abort this compile", and what
``VERIFY_AFTER_EACH_PASS`` uses to bisect a stale use list or a missing
``bump_version`` to the pass that left it), and
``repro.analysis.check_strict_ssa`` collects every violation as a finding
for the lint CLI and the guard's pregate.  The CFG comes from
:mod:`repro.ir.cfg`; only the predecessor map is recomputed here, because
that recomputation is the check on the function's cached one.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple

from repro.errors import IRError
from repro.ir import instructions as I
from repro.ir.cfg import dominates, dominators, reachable_blocks
from repro.ir.irtypes import IntType, PointerType, VectorType
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module
from repro.ir.values import Constant, ConstantFP, ConstantVector, Undef, Value


class Violation(NamedTuple):
    """One broken rule.  Warnings are legal IR worth a lint line."""

    message: str
    block: BasicBlock | None = None
    ins: I.Instruction | None = None
    error: bool = True


#: where every instruction of a body sits: ``id(ins) -> (block, index)``
_Positions = dict[int, tuple[BasicBlock, int]]

#: the operands that need no definition inside the function
_CONSTANTS = (Constant, ConstantFP, Undef, GlobalVariable, Function)


def _is_constant_vector(v: Value) -> bool:
    return isinstance(v, ConstantVector) and all(
        isinstance(e, (Constant, ConstantFP)) for e in v.elements)


def verify(func: Function) -> None:
    """Raise IRError on any malformation."""
    for v in violations(func):
        if v.error:
            raise IRError(f"@{func.name}: {v.message}")


def violations(func: Function) -> Iterator[Violation]:
    """Every rule, in a fixed order.  Order and dominance are judged only
    on a body with no structural error: the CFG of a broken one means
    nothing."""
    pos: _Positions = {id(ins): (blk, i) for blk in func.blocks
                       for i, ins in enumerate(blk.instructions)}
    sound = True
    for v in _structure(func, pos):
        sound = sound and not v.error
        yield v
    if sound and func.blocks:
        yield from _dominance(func, pos)


def _structure(func: Function, pos: _Positions) -> Iterator[Violation]:
    if func.is_declaration:
        if func.blocks:
            yield Violation("declaration with a body")
        return
    if not func.blocks:
        yield Violation("no basic blocks")
        return

    names: set[str] = set()
    for blk in func.blocks:
        if blk.name in names:
            yield Violation(f"duplicate block name {blk.name}", blk)
        names.add(blk.name)
        if blk.function is not func:
            yield Violation(f"block {blk.name} has wrong parent", blk)

    block_set = set(func.blocks)
    reachable = reachable_blocks(func)

    for blk in func.blocks:
        if blk not in reachable:
            # legal, but in a lifted trace it usually means the lifter
            # emitted a side exit nothing jumps to
            yield Violation(f"unreachable block {blk.name}", blk, error=False)
        term = blk.terminator
        if term is None:
            yield Violation(f"block {blk.name} lacks a terminator", blk)
        seen_non_phi = False
        for ins in blk.instructions:
            if ins.is_terminator and ins is not term:
                yield Violation(f"terminator mid-block in {blk.name}", blk, ins)
            if isinstance(ins, I.Phi):
                if seen_non_phi:
                    yield Violation(f"phi after non-phi in {blk.name}", blk, ins)
            else:
                seen_non_phi = True
            if ins.block is not blk:
                yield Violation(
                    f"instruction parent mismatch in {blk.name}", blk, ins)
            msg = _type_error(func, ins)
            if msg is not None:
                yield Violation(msg, blk, ins)
        for succ in blk.successors():
            if succ not in block_set:
                yield Violation(f"branch from {blk.name} to foreign block "
                                f"{succ.name}", blk, term)

    for msg in _use_list_errors(func):
        yield Violation(msg)

    # a fresh predecessor map, once — and the function's cached one must
    # agree with it (an edge moved without bump_version otherwise)
    fresh: dict[int, set[BasicBlock]] = {id(b): set() for b in func.blocks}
    for blk in func.blocks:
        for succ in blk.successors():
            fresh.setdefault(id(succ), set()).add(blk)
    cached = func.predecessor_map()
    if any(set(cached.get(k, ())) != v for k, v in fresh.items()):
        yield Violation("stale predecessor map (CFG changed without "
                        "bump_version)")

    # phi incoming lists must match the predecessor set *exactly*: same
    # members, no duplicates, no value/block length skew, and never empty
    # (a zero-incoming phi has no defining edge — classic simplifycfg /
    # block-removal residue that a set comparison cannot see)
    for blk in func.blocks:
        preds = fresh[id(blk)]
        for phi in blk.phis():
            where = f"phi %{phi.name} in {blk.name}"
            if len(phi.operands) != len(phi.incoming_blocks):
                yield Violation(
                    f"{where} has {len(phi.operands)} value(s) for "
                    f"{len(phi.incoming_blocks)} incoming block(s)", blk, phi)
                continue
            if not phi.incoming_blocks:
                yield Violation(f"{where} has no incoming edges", blk, phi)
                continue
            if len({id(b) for b in phi.incoming_blocks}) != len(phi.incoming_blocks):
                dup = [b.name for b in phi.incoming_blocks
                       if phi.incoming_blocks.count(b) > 1]
                yield Violation(f"{where} lists incoming block(s) "
                                f"{sorted(set(dup))} more than once", blk, phi)
            inc = set(phi.incoming_blocks)
            if inc != preds:
                missing = sorted(b.name for b in preds - inc)
                extra = sorted(b.name for b in inc - preds)
                yield Violation(f"{where} incoming mismatch (missing "
                                f"{missing}, extra {extra})", blk, phi)

    # every operand is defined — an instruction of this function, one of
    # its arguments or a constant — and nothing reachable reads a definition
    # from an unreachable block (which dominates nothing reachable; once
    # DCE drops the block the use is detached)
    args = set(map(id, func.args))
    for blk in func.blocks:
        for ins in blk.instructions:
            for v in ins.operands:
                if not isinstance(v, I.Instruction):
                    if not (isinstance(v, _CONSTANTS) or id(v) in args
                            or _is_constant_vector(v)):
                        yield Violation(
                            f"operand {v.short()} of %{ins.name or ins.opcode}"
                            f" is defined nowhere", blk, ins)
                    continue
                if id(v) not in pos:
                    yield Violation(f"use of detached value %{v.name} in "
                                    f"%{ins.name or ins.opcode}", blk, ins)
                elif blk in reachable and pos[id(v)][0] not in reachable:
                    yield Violation(
                        f"reachable use of %{v.name} in {blk.name}, defined "
                        f"in unreachable block {pos[id(v)][0].name}", blk, ins)


def verify_use_lists(func: Function) -> None:
    """``v.uses`` must be exactly the operand slots that hold ``v``."""
    for msg in _use_list_errors(func):
        raise IRError(f"@{func.name}: {msg}")


def _use_list_errors(func: Function) -> Iterator[str]:
    """Every slot of the body must be listed by the value it holds; a value
    that then lists as many slots as the body gave it lists nothing else.
    Any other value is looked at slot by slot — an erased instruction still
    listed, a listed slot holding another value, a user from another
    function or module.  A fully detached body (an ``analysis.clone``
    snapshot) has no lists to check.
    """
    body = list(func.instructions())
    if body and all(ins.operands.user is None for ins in body):
        return
    slots: list[Value] = []  # what each operand slot of the body holds
    for ins in body:
        ops = ins.operands
        if type(ops) is not I.OperandList or ops.user is not ins:
            yield (f"use list: operands of %{ins.name or ins.opcode} "
                   f"are not tracked (detached or a plain list)")
            continue
        i = 0
        for v in ops:
            if (ins, i) not in v.uses:
                yield (f"use list: {v.short()} does not list operand "
                       f"{i} of %{ins.name or ins.opcode}")
            i += 1
        slots += ops
    held = Counter(map(id, slots))
    local: dict[int, Value] = {id(v): v for v in (*func.args, *body)}
    values = {id(v): v for v in slots} | local
    for k, v in values.items():
        if len(v.uses) == held[k]:
            continue
        # listed slots the body does not account for: stale, or elsewhere
        for user, i in v.uses:
            ops = user.operands
            if user.block is None or ops.user is not user:
                yield (f"use list: {v.short()} lists erased "
                       f"instruction %{user.name or user.opcode}")
            elif i >= len(ops) or ops[i] is not v:
                yield (f"use list: {v.short()} lists operand {i} of "
                       f"%{user.name or user.opcode}, which holds "
                       f"another value")
            elif id(user) in local:
                continue
            elif k in local:
                yield (f"use list: {v.short()} has a user outside the "
                       f"function (%{user.name or user.opcode})")
            else:
                home = user.block.function
                if home is None or home.module is not func.module:
                    yield (f"use list: {v.short()} is shared with another "
                           f"module (%{user.name or user.opcode})")


def _type_error(func: Function, ins: I.Instruction) -> str | None:
    """The type rule ``ins`` breaks, if any."""
    if isinstance(ins, I.BinOp):
        a, b = ins.operands
        if a.type is not b.type:
            return f"binop {ins.opcode} type mismatch {a.type} vs {b.type}"
        if ins.opcode in I.FP_BINOPS and not (a.type.is_float or a.type.is_vector):
            return f"{ins.opcode} on {a.type}"
        if ins.opcode in I.INT_BINOPS and not (a.type.is_integer or a.type.is_vector):
            return f"{ins.opcode} on {a.type}"
    elif isinstance(ins, (I.ICmp, I.FCmp)):
        a, b = ins.operands
        if a.type is not b.type:
            return f"cmp type mismatch {a.type} vs {b.type}"
    elif isinstance(ins, I.Cast):
        (a,) = ins.operands
        if not _CAST_RULES[ins.opcode](a.type, ins.type):
            return f"invalid {ins.opcode} {a.type} -> {ins.type}"
    elif isinstance(ins, I.Load):
        (p,) = ins.operands
        if not isinstance(p.type, PointerType):
            return f"load from {p.type}"
        if p.type.pointee is not ins.type:
            return f"load type {ins.type} != pointee {p.type.pointee}"
    elif isinstance(ins, I.Store):
        v, p = ins.operands
        if not isinstance(p.type, PointerType):
            return f"store to {p.type}"
        if p.type.pointee is not v.type:
            return f"store of {v.type} to {p.type}"
    elif isinstance(ins, I.GEP):
        p, idx = ins.operands
        if not isinstance(p.type, PointerType):
            return f"gep on {p.type}"
        if not isinstance(idx.type, IntType):
            return f"gep index {idx.type}"
    elif isinstance(ins, I.ExtractElement):
        v, idx = ins.operands
        if not isinstance(v.type, VectorType):
            return f"extractelement on {v.type}"
    elif isinstance(ins, I.InsertElement):
        v, x, idx = ins.operands
        if not isinstance(v.type, VectorType) or v.type.elem is not x.type:
            return f"insertelement {x.type} into {v.type}"
    elif isinstance(ins, I.ShuffleVector):
        a, b = ins.operands
        if a.type is not b.type:
            return "shufflevector operand mismatch"
        n = a.type.count * 2  # type: ignore[union-attr]
        if any(not 0 <= m < n for m in ins.mask):
            return "shufflevector mask out of range"
    elif isinstance(ins, I.Phi):
        for v, _b in ins.incoming():
            if v.type is not ins.type and not isinstance(v, Undef):
                return f"phi %{ins.name} incoming {v.type} != {ins.type}"
    elif isinstance(ins, I.Br) and ins.is_conditional:
        c = ins.operands[0]
        if not (isinstance(c.type, IntType) and c.type.bits == 1):
            return f"branch condition is {c.type}"
    elif isinstance(ins, I.Ret):
        want = func.ftype.ret
        if ins.value is None:
            if not want.is_void:
                return f"ret void from {want} function"
        elif ins.value.type is not want:
            return f"ret {ins.value.type}, expected {want}"
    return None


_CAST_RULES = {
    "trunc": lambda f, t: f.is_integer and t.is_integer and f.bits > t.bits,
    "zext": lambda f, t: f.is_integer and t.is_integer and f.bits < t.bits,
    "sext": lambda f, t: f.is_integer and t.is_integer and f.bits < t.bits,
    "bitcast": lambda f, t: f.size_bytes() == t.size_bytes(),
    "inttoptr": lambda f, t: f.is_integer and t.is_pointer,
    "ptrtoint": lambda f, t: f.is_pointer and t.is_integer,
    "sitofp": lambda f, t: f.is_integer and t.is_float,
    "uitofp": lambda f, t: f.is_integer and t.is_float,
    "fptosi": lambda f, t: f.is_float and t.is_integer,
    "fpext": lambda f, t: f.is_float and t.is_float,
    "fptrunc": lambda f, t: f.is_float and t.is_float,
}


def _dominance(func: Function, pos: _Positions) -> Iterator[Violation]:
    """Same-block order and SSA dominance of every reachable use; a phi
    uses its operands at the end of the incoming block."""
    idom = dominators(func)
    for blk in func.blocks:
        if blk not in idom:
            continue  # uses in unreachable code are ignored, like LLVM
        for i, ins in enumerate(blk.instructions):
            if isinstance(ins, I.Phi):
                uses = [(v, pred, len(pred.instructions))
                        for v, pred in ins.incoming()]
            else:
                uses = [(v, blk, i) for v in ins.operands]
            for v, use_block, use_index in uses:
                if not isinstance(v, I.Instruction):
                    continue
                def_block, def_index = pos[id(v)]
                if def_block is use_block:
                    if def_index >= use_index:
                        yield Violation(f"%{v.name} used before definition "
                                        f"in {use_block.name}", blk, ins)
                elif not dominates(idom, def_block, use_block):
                    yield Violation(
                        f"definition of %{v.name} ({def_block.name}) does "
                        f"not dominate use in {use_block.name}", blk, ins)


def verify_module(module: Module) -> None:
    """Verify every function in the module."""
    for func in module.functions.values():
        verify(func)
