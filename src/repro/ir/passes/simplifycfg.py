"""CFG simplification: constant branches, block merging, trivial phis."""

from __future__ import annotations

from repro.ir import instructions as I
from repro.ir.cfg import dominates, dominators, reachable_blocks
from repro.ir.instructions import ERASE, INSERT, OPERAND
from repro.ir.module import BasicBlock, Function
from repro.ir.passes.schedule import mark, moved, reshaped, since
from repro.ir.values import Constant, Undef, Value


def _fold_constant_branches(func: Function) -> bool:
    changed = False
    for blk in func.blocks:
        term = blk.terminator
        if isinstance(term, I.Br) and term.is_conditional:
            cond = term.operands[0]
            if isinstance(cond, Constant):
                taken = term.targets[0] if cond.value else term.targets[1]
                dead = term.targets[1] if cond.value else term.targets[0]
                if dead is not taken:
                    for phi in dead.phis():
                        phi.remove_incoming(blk)
            elif term.targets[0] is term.targets[1]:
                taken = term.targets[0]
            else:
                continue
            term.erase()  # the condition loses this use
            blk.append(I.Br(None, taken))
            changed = True
    return changed


def _remove_unreachable(func: Function) -> bool:
    reachable = reachable_blocks(func)
    dead = [b for b in func.blocks if b not in reachable]
    for blk in dead:
        func.remove_block(blk)
    return bool(dead)


def _simplify_phis(func: Function) -> bool:
    """Remove single-incoming and all-same-value phis.

    Folding ``phi [X, A], [undef, B]`` to X is only legal when X dominates
    the phi (LLVM has the same restriction) — checked lazily.
    """
    changed = False
    idom = None
    for blk in func.blocks:
        for phi in blk.phis():
            distinct: list[Value] = []
            seen: set[int] = set()
            saw_undef = False
            for v in phi.operands:
                if v is phi:
                    continue
                if isinstance(v, Undef):
                    saw_undef = True
                    continue
                if id(v) not in seen:
                    seen.add(id(v))
                    distinct.append(v)
            if len(distinct) == 1:
                repl = distinct[0]
                if saw_undef and isinstance(repl, I.Instruction):
                    if idom is None:
                        idom = dominators(func)
                    def_blk = repl.block
                    if def_blk is None or def_blk not in idom or blk not in idom \
                            or def_blk is blk \
                            or not dominates(idom, def_blk, blk):
                        continue
            elif len(distinct) == 0 and phi.incoming_blocks:
                repl = Undef(phi.type)
            else:
                continue
            func.replace_all_uses(phi, repl)
            phi.erase()
            changed = True
    return changed


def _merge_straight_line(func: Function) -> bool:
    """Merge B into A when A->B is the only edge in both directions."""
    changed = False
    # one map for the whole sweep, patched after each merge: a merge moves
    # b's out-edges to a and changes no other block's predecessors
    preds = {k: list(v) for k, v in func.predecessor_map().items()}
    at = 0
    while at < len(func.blocks):
        a = func.blocks[at]
        term = a.terminator
        b = term.targets[0] \
            if isinstance(term, I.Br) and not term.is_conditional else None
        if b is None or b is a or b is func.entry or len(preds[id(b)]) != 1:
            at += 1
            continue
        # single predecessor: phis are trivial, resolve them first
        for phi in b.phis():
            v = phi.incoming_for(a)
            assert v is not None
            func.replace_all_uses(phi, v)
            phi.erase()
        term.erase()  # drop the br
        for ins in b.instructions:
            ins.block = a
            a.instructions.append(ins)
        moved(func, a)
        # phis in b's successors now flow from a
        for succ in b.successors():
            for phi in succ.phis():
                for i, ib in enumerate(phi.incoming_blocks):
                    if ib is b:
                        phi.incoming_blocks[i] = a
            into = preds[id(succ)]
            if b in into:  # once per block, however many edges
                into[into.index(b)] = a
        if func.blocks.index(b) < at:
            at -= 1
        func.blocks.remove(b)
        changed = True  # and look at a again: it now ends in b's terminator
    if changed:
        func.bump_version()  # blocks went away: the predecessor map is stale
    return changed


def _thread_trivial_jumps(func: Function) -> bool:
    """Retarget edges through empty forwarding blocks (only a br)."""
    changed = False
    forward: dict[int, BasicBlock] = {}
    for b in func.blocks:
        if len(b.instructions) == 1:
            t = b.terminator
            if isinstance(t, I.Br) and not t.is_conditional and not b.phis():
                target = t.targets[0]
                if not target.phis() and target is not b:
                    forward[id(b)] = target

    def final(b: BasicBlock) -> BasicBlock:
        seen = set()
        while id(b) in forward and id(b) not in seen:
            seen.add(id(b))
            b = forward[id(b)]
        return b

    for b in func.blocks:
        term = b.terminator
        if isinstance(term, I.Br):
            new_targets = [final(t) for t in term.targets]
            if any(n is not o for n, o in zip(new_targets, term.targets)):
                reshaped(func, [b, *term.targets, *new_targets])
                term.targets = new_targets
                changed = True
    if changed:
        func.bump_version()  # edges moved: the predecessor map is stale
    return changed


#: the classes whose insertion or erasure changes a block's edges
_TERMINATORS = frozenset({I.Br, I.Ret, I.Unreachable})
_SHAPE = _TERMINATORS | {I.Phi}


def _reads(e: tuple, func: Function) -> bool:
    """Whether a simplification may fire again after journal event ``e``:
    a phi left with one incoming value, a branch left on a constant, an
    edge, terminator or phi added or removed, instructions moved between
    blocks, or an erase that left a block holding only its branch."""
    tag = e[0]
    if tag == OPERAND:
        ins = e[1]
        if ins.block is None:
            return False
        if type(ins) is I.Phi:
            return len({id(v) for v in ins.operands
                        if v is not ins and not isinstance(v, Undef)}) <= 1
        return type(ins) is I.Br and ins.is_conditional \
            and isinstance(ins.operands[0], Constant)
    if tag == INSERT:
        return type(e[1]) in _SHAPE
    if tag == ERASE:
        ins, blk = e[1], e[2]
        return type(ins) in _TERMINATORS or blk.function is func and (
            len(blk.instructions) == 1
            or type(ins) is I.Phi and not blk.phis())
    return True  # MOVE, RESHAPE


#: the most rounds one application makes before it stops, dirty
ROUNDS = 16


def idle(func: Function) -> bool:
    """Nothing changed since the last clean point that a simplification
    reads."""
    s = since(func, "simplifycfg")
    if s is None or any(_reads(e, func) for e in s[0]):
        return False
    mark(func, "simplifycfg")  # clean here too: the next ask starts from now
    return True


def run(func: Function) -> bool:
    """Run all CFG simplifications to a local fixpoint."""
    changed = False
    for _ in range(ROUNDS):
        round_changed = False
        round_changed |= _fold_constant_branches(func)
        round_changed |= _thread_trivial_jumps(func)
        round_changed |= _remove_unreachable(func)
        round_changed |= _simplify_phis(func)
        round_changed |= _merge_straight_line(func)
        changed |= round_changed
        if not round_changed:
            mark(func, "simplifycfg")
            break
    if changed:
        func.bump_version()
    return changed
