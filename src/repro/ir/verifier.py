"""IR verifier: structural and type invariants, use lists, SSA dominance.

Run after lifting and after every pass in tests — the verifier is the main
defense against pass bugs.  Dominance uses networkx's immediate-dominators
on the CFG.  Use-list consistency (``Value.uses`` against the operand
slots that actually hold the value) and the cached predecessor map are
checked here too, so ``VERIFY_AFTER_EACH_PASS`` bisects a stale use list or
a missing ``bump_version`` to the pass that left it.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx

from repro.errors import IRError
from repro.ir import instructions as I
from repro.ir.irtypes import IntType, PointerType, VectorType
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module
from repro.ir.values import Argument, Constant, ConstantFP, Undef, Value


def _cfg(func: Function) -> nx.DiGraph:
    g = nx.DiGraph()
    for blk in func.blocks:
        g.add_node(blk)
        for succ in blk.successors():
            g.add_edge(blk, succ)
    return g


def verify(func: Function) -> None:
    """Raise IRError on any malformation."""
    if func.is_declaration:
        if func.blocks:
            raise IRError(f"@{func.name}: declaration with a body")
        return
    if not func.blocks:
        raise IRError(f"@{func.name}: no basic blocks")

    names: set[str] = set()
    for blk in func.blocks:
        if blk.name in names:
            raise IRError(f"@{func.name}: duplicate block name {blk.name}")
        names.add(blk.name)
        if blk.function is not func:
            raise IRError(f"@{func.name}: block {blk.name} has wrong parent")

    block_set = set(func.blocks)

    for blk in func.blocks:
        term = blk.terminator
        if term is None:
            raise IRError(f"@{func.name}: block {blk.name} lacks a terminator")
        seen_non_phi = False
        for ins in blk.instructions:
            if ins.is_terminator and ins is not term:
                raise IRError(f"@{func.name}: terminator mid-block in {blk.name}")
            if isinstance(ins, I.Phi):
                if seen_non_phi:
                    raise IRError(
                        f"@{func.name}: phi after non-phi in {blk.name}"
                    )
            else:
                seen_non_phi = True
            if ins.block is not blk:
                raise IRError(f"@{func.name}: instruction parent mismatch in {blk.name}")
            _check_types(func, ins)
        for succ in blk.successors():
            if succ not in block_set:
                raise IRError(
                    f"@{func.name}: branch from {blk.name} to foreign block {succ.name}"
                )

    verify_use_lists(func)

    # a fresh predecessor map, once — and the function's cached one must
    # agree with it (an edge moved without bump_version otherwise)
    fresh: dict[int, set[BasicBlock]] = {id(b): set() for b in func.blocks}
    for blk in func.blocks:
        for succ in blk.successors():
            fresh[id(succ)].add(blk)
    cached = func.predecessor_map()
    if any(set(cached.get(k, ())) != v for k, v in fresh.items()):
        raise IRError(f"@{func.name}: stale predecessor map (CFG changed "
                      f"without bump_version)")

    # phi incoming lists must match the predecessor set *exactly*: same
    # members, no duplicates, no value/block length skew, and never empty
    # (a zero-incoming phi has no defining edge — classic simplifycfg /
    # block-removal residue that a set comparison cannot see)
    for blk in func.blocks:
        preds = fresh[id(blk)]
        for phi in blk.phis():
            if len(phi.operands) != len(phi.incoming_blocks):
                raise IRError(
                    f"@{func.name}: phi %{phi.name} in {blk.name} has "
                    f"{len(phi.operands)} value(s) for "
                    f"{len(phi.incoming_blocks)} incoming block(s)"
                )
            if not phi.incoming_blocks:
                raise IRError(
                    f"@{func.name}: phi %{phi.name} in {blk.name} has no "
                    f"incoming edges"
                )
            if len({id(b) for b in phi.incoming_blocks}) != len(phi.incoming_blocks):
                dup = [b.name for b in phi.incoming_blocks
                       if phi.incoming_blocks.count(b) > 1]
                raise IRError(
                    f"@{func.name}: phi %{phi.name} in {blk.name} lists "
                    f"incoming block(s) {sorted(set(dup))} more than once"
                )
            inc = set(phi.incoming_blocks)
            if inc != preds:
                missing = {b.name for b in preds - inc}
                extra = {b.name for b in inc - preds}
                raise IRError(
                    f"@{func.name}: phi %{phi.name} in {blk.name} incoming "
                    f"mismatch (missing {missing or '{}'}, extra {extra or '{}'})"
                )

    _check_dominance(func)


def verify_use_lists(func: Function) -> None:
    """``v.uses`` must be exactly the operand slots that hold ``v``.

    Every slot of the body must be listed by the value it holds; a value
    that then lists as many slots as the body gave it lists nothing else.
    Any other value is looked at slot by slot — an erased instruction still
    listed, a listed slot holding another value, a user from another
    function or module.  A fully detached body (an ``analysis.clone``
    snapshot) has no lists to check.
    """
    body = list(func.instructions())
    if body and all(ins.operands.user is None for ins in body):
        return
    where = f"@{func.name}: use list"
    slots: list[Value] = []  # what each operand slot of the body holds
    for ins in body:
        ops = ins.operands
        if type(ops) is not I.OperandList or ops.user is not ins:
            raise IRError(f"{where}: operands of %{ins.name or ins.opcode} "
                          f"are not tracked (detached or a plain list)")
        i = 0
        for v in ops:
            if (ins, i) not in v.uses:
                raise IRError(f"{where}: {v.short()} does not list operand "
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
                raise IRError(f"{where}: {v.short()} lists erased "
                              f"instruction %{user.name or user.opcode}")
            if i >= len(ops) or ops[i] is not v:
                raise IRError(f"{where}: {v.short()} lists operand {i} of "
                              f"%{user.name or user.opcode}, which holds "
                              f"another value")
            if id(user) in local:
                continue
            home = user.block.function
            if k in local:
                raise IRError(f"{where}: {v.short()} has a user outside the "
                              f"function (%{user.name or user.opcode})")
            if home is None or home.module is not func.module:
                raise IRError(f"{where}: {v.short()} is shared with another "
                              f"module (%{user.name or user.opcode})")


def _check_types(func: Function, ins: I.Instruction) -> None:
    if isinstance(ins, I.BinOp):
        a, b = ins.operands
        if a.type is not b.type:
            raise IRError(f"@{func.name}: binop {ins.opcode} type mismatch "
                          f"{a.type} vs {b.type}")
        if ins.opcode in I.FP_BINOPS and not (a.type.is_float or a.type.is_vector):
            raise IRError(f"@{func.name}: {ins.opcode} on {a.type}")
        if ins.opcode in I.INT_BINOPS and not (a.type.is_integer or a.type.is_vector):
            raise IRError(f"@{func.name}: {ins.opcode} on {a.type}")
    elif isinstance(ins, (I.ICmp, I.FCmp)):
        a, b = ins.operands
        if a.type is not b.type:
            raise IRError(f"@{func.name}: cmp type mismatch {a.type} vs {b.type}")
    elif isinstance(ins, I.Cast):
        (a,) = ins.operands
        _check_cast(func, ins.opcode, a, ins)
    elif isinstance(ins, I.Load):
        (p,) = ins.operands
        if not isinstance(p.type, PointerType):
            raise IRError(f"@{func.name}: load from {p.type}")
        if p.type.pointee is not ins.type:
            raise IRError(f"@{func.name}: load type {ins.type} != pointee "
                          f"{p.type.pointee}")
    elif isinstance(ins, I.Store):
        v, p = ins.operands
        if not isinstance(p.type, PointerType):
            raise IRError(f"@{func.name}: store to {p.type}")
        if p.type.pointee is not v.type:
            raise IRError(f"@{func.name}: store of {v.type} to {p.type}")
    elif isinstance(ins, I.GEP):
        p, idx = ins.operands
        if not isinstance(p.type, PointerType):
            raise IRError(f"@{func.name}: gep on {p.type}")
        if not isinstance(idx.type, IntType):
            raise IRError(f"@{func.name}: gep index {idx.type}")
    elif isinstance(ins, I.ExtractElement):
        v, idx = ins.operands
        if not isinstance(v.type, VectorType):
            raise IRError(f"@{func.name}: extractelement on {v.type}")
    elif isinstance(ins, I.InsertElement):
        v, x, idx = ins.operands
        if not isinstance(v.type, VectorType) or v.type.elem is not x.type:
            raise IRError(f"@{func.name}: insertelement {x.type} into {v.type}")
    elif isinstance(ins, I.ShuffleVector):
        a, b = ins.operands
        if a.type is not b.type:
            raise IRError(f"@{func.name}: shufflevector operand mismatch")
        n = a.type.count * 2  # type: ignore[union-attr]
        if any(not 0 <= m < n for m in ins.mask):
            raise IRError(f"@{func.name}: shufflevector mask out of range")
    elif isinstance(ins, I.Phi):
        for v, _b in ins.incoming():
            if v.type is not ins.type and not isinstance(v, Undef):
                raise IRError(
                    f"@{func.name}: phi %{ins.name} incoming {v.type} != {ins.type}"
                )
    elif isinstance(ins, I.Br) and ins.is_conditional:
        c = ins.operands[0]
        if not (isinstance(c.type, IntType) and c.type.bits == 1):
            raise IRError(f"@{func.name}: branch condition is {c.type}")
    elif isinstance(ins, I.Ret):
        want = func.ftype.ret
        if ins.value is None:
            if not want.is_void:
                raise IRError(f"@{func.name}: ret void from {want} function")
        elif ins.value.type is not want:
            raise IRError(f"@{func.name}: ret {ins.value.type}, expected {want}")


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


def _check_cast(func: Function, opcode: str, a: Value, ins: I.Instruction) -> None:
    rule = _CAST_RULES[opcode]
    ok = rule(a.type, ins.type)
    if not ok:
        raise IRError(f"@{func.name}: invalid {opcode} {a.type} -> {ins.type}")


def _check_dominance(func: Function) -> None:
    g = _cfg(func)
    entry = func.entry
    reachable = set(nx.descendants(g, entry)) | {entry}
    idom = nx.immediate_dominators(g, entry)

    def dominates(a: BasicBlock, b: BasicBlock) -> bool:
        while True:
            if a is b:
                return True
            parent = idom.get(b)
            if parent is None or parent is b:
                return a is b
            b = parent

    # position index for same-block ordering
    pos: dict[int, tuple[BasicBlock, int]] = {}
    for blk in func.blocks:
        for i, ins in enumerate(blk.instructions):
            pos[id(ins)] = (blk, i)

    for blk in func.blocks:
        if blk not in reachable:
            continue
        for i, ins in enumerate(blk.instructions):
            if isinstance(ins, I.Phi):
                for v, pred in ins.incoming():
                    _check_use_dominance(func, v, pred, len(pred.instructions),
                                         pos, dominates, reachable, ins)
                continue
            for v in ins.operands:
                _check_use_dominance(func, v, blk, i, pos, dominates, reachable, ins)


def _check_use_dominance(func, v, use_block, use_index, pos, dominates,
                         reachable, user) -> None:
    from repro.ir.instructions import Instruction
    if not isinstance(v, Instruction):
        return  # constants, args, globals, undef always dominate
    if id(v) not in pos:
        raise IRError(
            f"@{func.name}: use of detached value %{v.name} in %{user.name or user.opcode}"
        )
    def_block, def_index = pos[id(v)]
    if def_block not in reachable:
        return  # uses in unreachable code are ignored, like LLVM
    if def_block is use_block:
        if def_index >= use_index:
            raise IRError(
                f"@{func.name}: %{v.name} used before definition in "
                f"{use_block.name}"
            )
    elif not dominates(def_block, use_block):
        raise IRError(
            f"@{func.name}: definition of %{v.name} ({def_block.name}) does "
            f"not dominate use in {use_block.name}"
        )


def verify_module(module: Module) -> None:
    """Verify every function in the module."""
    for func in module.functions.values():
        verify(func)
