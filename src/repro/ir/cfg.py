"""What the CFG of a MiniLLVM function looks like — the one place that says.

Reachability, reverse postorder, immediate dominators, dominance
frontiers, natural loops and cyclicity, over ``BasicBlock.successors()``
and ``Function.predecessor_map()``; standard library only.  The verifier,
the passes and the dataflow engine all read the CFG through this module.

Nothing here is cached: ``Function.version`` moves on every instruction
insertion, so a version-keyed dominator tree would not survive the phi
inserts of the pass that asked for it.  A pass that needs the tree for a
whole run computes it once and hands it down (``mem2reg.promote``).
"""

from __future__ import annotations

from repro.ir.module import BasicBlock, Function


def _postorder(func: Function) -> list[BasicBlock]:
    """The blocks reachable from the entry, in DFS postorder (successors
    in branch-target order; iterative — lifted CFGs can be deep chains)."""
    if not func.blocks:
        return []
    entry = func.entry
    seen = {id(entry)}
    order: list[BasicBlock] = []
    stack = [(entry, iter(entry.successors()))]
    while stack:
        blk, succs = stack[-1]
        for s in succs:
            if id(s) not in seen:
                seen.add(id(s))
                stack.append((s, iter(s.successors())))
                break
        else:
            order.append(blk)
            stack.pop()
    return order


def reachable_blocks(func: Function) -> set[BasicBlock]:
    """Blocks reachable from the entry."""
    return set(_postorder(func))


def reverse_postorder(func: Function) -> list[BasicBlock]:
    """Reverse postorder from the entry (unreachable blocks appended last,
    in layout order, so a walk over it still visits them)."""
    rpo = _postorder(func)[::-1]
    seen = set(rpo)
    rpo += [blk for blk in func.blocks if blk not in seen]
    return rpo


def dominators(func: Function) -> dict[BasicBlock, BasicBlock]:
    """Immediate dominators (Cooper–Harvey–Kennedy).

    The keys are exactly the reachable blocks, in reverse postorder, and
    the entry maps to itself: ``b in idom`` is how callers ask "reachable",
    and ``mem2reg`` builds its dominator-tree child lists in key order.
    """
    rpo = _postorder(func)[::-1]
    number = {blk: n for n, blk in enumerate(rpo)}
    preds = func.predecessor_map()
    entry = rpo[0]
    idom = {entry: entry}
    changed = True
    while changed:
        changed = False
        for blk in rpo[1:]:
            new = None
            for p in preds[id(blk)]:
                if p not in idom:
                    continue  # unreachable, or not yet reached this sweep
                if new is None:
                    new = p
                    continue
                while p is not new:  # intersect: the later one climbs
                    while number[p] > number[new]:
                        p = idom[p]
                    while number[new] > number[p]:
                        new = idom[new]
            if idom.get(blk) is not new:
                idom[blk] = new
                changed = True
    return idom


def dominates(idom: dict[BasicBlock, BasicBlock], a: BasicBlock,
              b: BasicBlock) -> bool:
    """``a`` dominates ``b`` (reflexive; an unreachable ``b`` is dominated
    by itself only)."""
    while True:
        if a is b:
            return True
        parent = idom.get(b)
        if parent is None or parent is b:
            return False
        b = parent


def dominance_frontiers(
    func: Function, idom: dict[BasicBlock, BasicBlock] | None = None
) -> dict[BasicBlock, set[BasicBlock]]:
    """Cooper/Harvey/Kennedy dominance frontier computation."""
    if idom is None:
        idom = dominators(func)
    df: dict[BasicBlock, set[BasicBlock]] = {b: set() for b in func.blocks}
    preds = func.predecessor_map()
    for b in func.blocks:
        if b not in idom:
            continue  # unreachable
        if len(preds[id(b)]) >= 2:
            for p in preds[id(b)]:
                if p not in idom:
                    continue
                runner = p
                while runner is not idom[b]:
                    df[runner].add(b)
                    nxt = idom.get(runner)
                    if nxt is None or nxt is runner:
                        break
                    runner = nxt
    return df


class NaturalLoop:
    """A natural loop: header + body blocks + single latch."""

    def __init__(self, header: BasicBlock, latch: BasicBlock,
                 blocks: set[BasicBlock]) -> None:
        self.header = header
        self.latch = latch
        self.blocks = blocks

    def exits(self) -> list[tuple[BasicBlock, BasicBlock]]:
        """(from-block, to-block) edges leaving the loop."""
        out = []
        for b in self.blocks:
            for s in b.successors():
                if s not in self.blocks:
                    out.append((b, s))
        return out

    def __repr__(self) -> str:
        return f"<loop header={self.header.name} blocks={len(self.blocks)}>"


def find_natural_loops(func: Function) -> list[NaturalLoop]:
    """Back-edge based natural loop discovery (innermost first)."""
    idom = dominators(func)
    loops: list[NaturalLoop] = []
    for blk in func.blocks:
        if blk not in idom:
            continue
        for succ in blk.successors():
            if succ in idom and dominates(idom, succ, blk):
                # back edge blk -> succ
                header, latch = succ, blk
                body = {header, latch}
                work = [latch]
                preds = func.predecessor_map()
                while work:
                    b = work.pop()
                    if b is header:
                        continue
                    for p in preds.get(id(b), ()):
                        if p not in body:
                            body.add(p)
                            work.append(p)
                loops.append(NaturalLoop(header, latch, body))
    loops.sort(key=lambda lp: len(lp.blocks))
    return loops


def has_cycle(func: Function) -> bool:
    """True when the CFG has any cycle (conservative: unreachable blocks
    participate)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {id(b): WHITE for b in func.blocks}
    for root in func.blocks:
        if color[id(root)] != WHITE:
            continue
        stack = [(root, iter(root.successors()))]
        color[id(root)] = GRAY
        while stack:
            node, it = stack[-1]
            adv = False
            for succ in it:
                c = color.get(id(succ), BLACK)
                if c == GRAY:
                    return True
                if c == WHITE:
                    color[id(succ)] = GRAY
                    stack.append((succ, iter(succ.successors())))
                    adv = True
                    break
            if not adv:
                color[id(node)] = BLACK
                stack.pop()
    return False
