"""CFG analysis utilities shared by passes: dominators, frontiers, loops."""

from __future__ import annotations

import networkx as nx

from repro.ir.module import BasicBlock, Function


def cfg_graph(func: Function) -> nx.DiGraph:
    g = nx.DiGraph()
    for blk in func.blocks:
        g.add_node(blk)
        for succ in blk.successors():
            g.add_edge(blk, succ)
    return g


def dominators(func: Function) -> dict[BasicBlock, BasicBlock]:
    """Immediate dominators (entry maps to itself)."""
    return nx.immediate_dominators(cfg_graph(func), func.entry)


def dominates(idom: dict[BasicBlock, BasicBlock], a: BasicBlock,
              b: BasicBlock) -> bool:
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
