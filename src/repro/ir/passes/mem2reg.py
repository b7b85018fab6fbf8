"""SROA + mem2reg: promote alloca slots (the lifter's virtual stack) to SSA.

The lifter materializes the guest stack as one byte-array ``alloca``
(Sec. III-F); push/pop/rbp-relative accesses become loads/stores at
constant offsets from it.  This pass splits the alloca into fixed-offset
slots and builds SSA form for each (classic iterated-dominance-frontier phi
placement + renaming), which is what lets the rest of the pipeline see
through spilled values.

A slot is promotable when every access is a load/store of the full slot
width at a constant offset; any escaping use of a derived pointer (calls,
non-constant arithmetic, overlapping accesses) demotes the whole alloca.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir import instructions as I
from repro.ir.cfg import dominance_frontiers, dominators
from repro.ir.irtypes import DoubleType, FloatType, IntType, PointerType, Type
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Constant, Undef, Value


@dataclass
class _Access:
    ins: I.Instruction  # Load or Store
    offset: int
    type: Type

    @property
    def size(self) -> int:
        return self.type.size_bytes()


def _collect(func: Function, alloca: I.Alloca) -> list[_Access] | None:
    """All accesses through the alloca in function order, or None if it
    escapes.

    Pointers *and* integers derived from the alloca by constant offsets are
    tracked — the lifter's rsp handling round-trips the stack pointer
    through ptrtoint/add/inttoptr (push/pop, Sec. III-F), and promotion
    must see through that.  The web is walked along ``uses`` from the
    alloca; every user either extends it, is an access, or is an escape.
    """
    accesses: list[_Access] = []
    work: list[tuple[Value, int]] = [(alloca, 0)]
    while work:
        v, offset = work.pop()
        for ins, oi in v.uses:
            if isinstance(ins, I.GEP) and oi == 0:
                idx = ins.operands[1]
                if not isinstance(idx, Constant):
                    return None
                work.append((ins, offset + idx.signed * ins.elem.size_bytes()))
            elif isinstance(ins, I.Cast) \
                    and ins.opcode in ("bitcast", "ptrtoint", "inttoptr"):
                work.append((ins, offset))
            elif isinstance(ins, I.BinOp) and ins.opcode in ("add", "sub") \
                    and isinstance(ins.type, IntType) \
                    and isinstance(ins.operands[1 - oi], Constant) \
                    and (oi == 0 or ins.opcode == "add"):
                delta = ins.operands[1 - oi].signed
                work.append((ins, offset - delta
                             if ins.opcode == "sub" else offset + delta))
            elif isinstance(ins, I.Load):
                accesses.append(_Access(ins, offset, ins.type))
            elif isinstance(ins, I.Store) and oi == 1:
                accesses.append(_Access(ins, offset, ins.operands[0].type))
            else:
                return None  # escapes (stored address, call arg, phi, ...)
    # slots are promoted, and their phis and casts named, in access order
    position = {id(ins): n for n, ins in enumerate(func.instructions())}
    accesses.sort(key=lambda a: position[id(a.ins)])
    return accesses


def _slot_layout(accesses: list[_Access]) -> dict[tuple[int, int], list[_Access]] | None:
    """Group accesses into (offset, size) slots; None if ranges overlap."""
    slots: dict[tuple[int, int], list[_Access]] = {}
    for a in accesses:
        slots.setdefault((a.offset, a.size), []).append(a)
    ranges = sorted(slots)
    for (o1, s1), (o2, s2) in zip(ranges, ranges[1:]):
        if o1 + s1 > o2:
            return None  # partial overlap
    return slots


def _canonical_type(accesses: list[_Access]) -> Type:
    size = accesses[0].size
    types = {repr(a.type) for a in accesses}
    if len(types) == 1:
        return accesses[0].type
    return IntType(size * 8)


def _cast_to(builder_block: BasicBlock, before: I.Instruction, v: Value,
             to: Type, func: Function) -> Value:
    """Insert a cast of ``v`` to ``to`` before ``before`` if needed."""
    if v.type is to:
        return v
    src = v.type
    if isinstance(v, Undef):
        return Undef(to)
    if src.is_pointer and isinstance(to, IntType):
        op = "ptrtoint"
    elif isinstance(src, IntType) and to.is_pointer:
        op = "inttoptr"
    else:
        op = "bitcast"
    cast = I.Cast(op, v, to)
    cast.name = func.next_name("m2r")
    idx = builder_block.instructions.index(before)
    builder_block.insert(idx, cast)
    return cast


def promote(func: Function) -> bool:
    """Promote every eligible entry-block alloca; returns True on change."""
    changed = False
    entry = func.entry
    dom = None  # computed at the first slot: promotion leaves the CFG alone
    for alloca in [i for i in entry.instructions if isinstance(i, I.Alloca)]:
        accesses = _collect(func, alloca)
        if accesses is None:
            continue
        slots = _slot_layout(accesses)
        if slots is None:
            continue
        for accs in slots.values():
            if dom is None:
                dom = _dominance(func)
            _promote_slot(func, accs, _canonical_type(accs), *dom)
            changed = True
        # the alloca and derived pointers die in DCE once loads/stores vanish
    return changed


def _dominance(func: Function) -> tuple[dict[BasicBlock, set[BasicBlock]],
                                        dict[BasicBlock, list[BasicBlock]]]:
    """Dominance frontiers and dominator-tree children, for every slot of
    one :func:`promote` run.  Children are in ``idom`` key order (reverse
    postorder); renaming follows it, so it is part of the pass's output."""
    idom = dominators(func)
    children: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in func.blocks}
    for b, d in idom.items():
        if b is not d:
            children[d].append(b)
    return dominance_frontiers(func, idom), children


def _promote_slot(func: Function, accesses: list[_Access], ctype: Type,
                  df: dict[BasicBlock, set[BasicBlock]],
                  children: dict[BasicBlock, list[BasicBlock]]) -> None:
    """Standard SSA construction for one memory slot."""
    stores = [a.ins for a in accesses if isinstance(a.ins, I.Store)]
    loads = [a.ins for a in accesses if isinstance(a.ins, I.Load)]
    def_blocks = {s.block for s in stores if s.block is not None}

    # phi placement at iterated dominance frontier
    phi_blocks: set[BasicBlock] = set()
    work = list(def_blocks)
    while work:
        b = work.pop()
        for f in df.get(b, ()):
            if f not in phi_blocks:
                phi_blocks.add(f)
                if f not in def_blocks:
                    work.append(f)

    phis: dict[BasicBlock, I.Phi] = {}
    for b in phi_blocks:
        phi = I.Phi(ctype, func.next_name("m2rphi"))
        b.insert(0, phi)
        phis[b] = phi

    load_set = {id(ld) for ld in loads}
    store_set = {id(st) for st in stores}
    replacements: dict[int, Value] = {}

    # renaming via dominator-tree DFS
    def rename(block: BasicBlock, incoming: Value) -> None:
        current = incoming
        if block in phis:
            current = phis[block]
        for ins in list(block.instructions):
            if id(ins) in load_set:
                replacements[id(ins)] = current
            elif id(ins) in store_set:
                current = ins.operands[0]
        for succ in block.successors():
            phi = phis.get(succ)
            if phi is not None:
                val = current
                phi.operands.append(val)
                phi.incoming_blocks.append(block)
        for child in children.get(block, ()):
            rename(child, current)

    import sys
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(func.blocks) * 8 + 1000))
    try:
        rename(func.entry, Undef(ctype))
    finally:
        sys.setrecursionlimit(old_limit)

    # resolve replacement chains: a load's replacement may itself be a load
    # of this slot (store of a loaded value) that is about to be removed
    def resolve(val: Value) -> Value:
        seen = 0
        while id(val) in load_set and id(val) in replacements and seen < 64:
            val = replacements[id(val)]
            seen += 1
        return val

    # apply replacements with type adaptation
    for ld in loads:
        val = resolve(replacements.get(id(ld), Undef(ctype)))
        blk = ld.block
        assert blk is not None
        if val.type is not ld.type:
            val = _cast_to(blk, ld, val, ld.type, func)
        func.replace_all_uses(ld, val)
        ld.erase()
    for st in stores:
        st.erase()

    # adapt phi incoming types (mixed-type slots store canonical ints)
    for b, phi in phis.items():
        phi.operands = [resolve(v) for v in phi.operands]
        for i, (v, pred) in enumerate(list(zip(phi.operands, phi.incoming_blocks))):
            if v.type is not ctype and not isinstance(v, Undef):
                term = pred.instructions[-1]
                cast = _cast_to(pred, term, v, ctype, func)
                phi.operands[i] = cast
            elif isinstance(v, Undef) and v.type is not ctype:
                phi.operands[i] = Undef(ctype)


def run(func: Function) -> bool:
    changed = promote(func)
    if changed:
        func.bump_version()
    return changed
