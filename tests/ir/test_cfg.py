"""``repro.ir.cfg`` against the definitions, on random CFGs.

Up to 12 blocks, each ending in ``ret``, ``br`` or a two-way ``br`` whose
targets are drawn freely: self-loops, unreachable blocks, both targets
equal and irreducible shapes all occur.  The oracle is reachability by
plain BFS — *a* dominates *b* iff *b* cannot be reached from the entry once
*a* is removed — so nothing here shares code with what it checks.
``REPRO_CFG_EXAMPLES`` scales the example count (CI raises it).  Three
one-line mutants of the implementation must each fail the property.
"""

from __future__ import annotations

import inspect
import os
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import I1, VOID, Function, FunctionType, IRBuilder, Module
from repro.ir import cfg

EXAMPLES = int(os.environ.get("REPRO_CFG_EXAMPLES", "200"))

#: one entry per block: the indices its terminator branches to
shapes = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=2), min_size=n, max_size=n))


def build(shape: list[list[int]]) -> Function:
    f = Function("f", FunctionType(VOID, (I1,)))
    Module("cfg").add_function(f)
    blocks = [f.add_block(f"b{i}") for i in range(len(shape))]
    for blk, targets in zip(blocks, shape):
        b = IRBuilder(blk)
        if not targets:
            b.ret()
        elif len(targets) == 1:
            b.br(blocks[targets[0]])
        else:
            b.cond_br(f.args[0], blocks[targets[0]], blocks[targets[1]])
    return f


def bfs(func: Function, start, without=None) -> set:
    """Blocks reachable from ``start`` when ``without`` is removed."""
    if start is without:
        return set()
    seen, work = {start}, [start]
    while work:
        for s in work.pop().successors():
            if s is not without and s not in seen:
                seen.add(s)
                work.append(s)
    return seen


def check(func: Function, dominators=cfg.dominators,
          dominance_frontiers=cfg.dominance_frontiers) -> None:
    entry, blocks = func.entry, func.blocks
    reachable = bfs(func, entry)
    assert cfg.reachable_blocks(func) == reachable

    rpo = cfg.reverse_postorder(func)
    at = {blk: n for n, blk in enumerate(rpo)}
    assert len(rpo) == len(blocks) and set(rpo) == set(blocks)
    assert rpo[0] is entry and set(rpo[:len(reachable)]) == reachable
    assert rpo[len(reachable):] == [b for b in blocks if b not in reachable]
    cyclic = any(b in bfs(func, s) for b in blocks for s in b.successors())
    assert cfg.has_cycle(func) == cyclic
    for blk in reachable - {entry}:  # its DFS parent comes first
        assert any(at[p] < at[blk] for p in func.predecessors(blk))
    if not cyclic:  # then it is a topological order
        assert all(at[b] < at[s] for b in reachable for s in b.successors())

    # a dominates b: by definition, and as the tree says
    dom = {(a, b) for b in reachable for a in reachable
           if a is b or b not in bfs(func, entry, without=a)}
    idom = dominators(func)
    assert set(idom) == reachable and idom[entry] is entry
    for a in blocks:
        for b in blocks:
            assert cfg.dominates(idom, a, b) == ((a, b) in dom or a is b)

    # b is in DF(a): a dominates a predecessor of b, not strictly b itself.
    # The entry is left out: like LLVM's it is never a merge point here,
    # and the computation gives a back edge into it no frontier.
    df = dominance_frontiers(func, idom)
    assert set(df) == set(blocks)
    for a in blocks:
        want = {b for b in reachable - {entry}
                if (a is b or (a, b) not in dom)
                and any((a, p) in dom for p in func.predecessors(b))}
        assert df[a] - {entry} == want, (a, df[a], want)

    loops = cfg.find_natural_loops(func)
    assert [len(lp.blocks) for lp in loops] == sorted(
        len(lp.blocks) for lp in loops)
    for lp in loops:
        assert lp.header in lp.latch.successors()
        assert (lp.header, lp.latch) in dom
        assert {lp.header, lp.latch} <= lp.blocks
    back_edges = {(b, s) for b in reachable for s in b.successors()
                  if (s, b) in dom}
    assert {(lp.latch, lp.header) for lp in loops} == back_edges


@settings(max_examples=EXAMPLES, deadline=None)
@given(shapes)
def test_cfg_analyses_match_their_definitions(shape):
    check(build(shape))


def test_irreducible_and_self_loop_by_hand():
    # entry -> a | b, a <-> b (two entries into one cycle), b -> b, dead -> a
    f = build([[1, 2], [2], [1, 2], [1]])
    entry, a, b, dead = f.blocks
    check(f)
    assert cfg.dominators(f) == {entry: entry, a: entry, b: entry}
    assert [lp.header for lp in cfg.find_natural_loops(f)] == [b]  # b -> b
    assert cfg.dominance_frontiers(f)[a] == {b}
    assert cfg.dominance_frontiers(f)[dead] == set()


# -- mutants: each must fail the property ------------------------------------------


def mutate(fn, *edits: tuple[str, str]):
    """``fn`` recompiled from its source with each ``old`` -> ``new``."""
    src = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        assert src.count(old) == 1, old
        src = src.replace(old, new)
    scope = dict(vars(cfg))
    exec(src, scope)
    return scope[fn.__name__]


MUTANTS = {
    "intersect climbs in lockstep, not by RPO number": {
        "dominators": mutate(
            cfg.dominators,
            ("while number[p] > number[new]:", "if True:"),
            ("while number[new] > number[p]:", "if True:"),
            ("while changed:", "for _sweep in range(64):"))},
    "frontier runner stops one block early": {
        "dominance_frontiers": mutate(
            cfg.dominance_frontiers,
            ("while runner is not idom[b]:",
             "while idom[runner] is not idom[b]:"))},
    "idom keyed for unreachable blocks": {
        "dominators": mutate(
            cfg.dominators,
            ("idom = {entry: entry}",
             "idom = dict.fromkeys(func.blocks, entry)"))},
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_the_property(name):
    prop = settings(max_examples=500, deadline=None, database=None,
                    derandomize=True, report_multiple_bugs=False)(
        given(shapes)(lambda shape: check(build(shape), **MUTANTS[name])))
    with pytest.raises((AssertionError, KeyError)):
        prop()
