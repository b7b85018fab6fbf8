"""Full loop unrolling for constant trip counts (by iterated peeling).

After IR-level fixation (Sec. IV) the stencil descriptor is a constant
global, so ``s->ps`` folds to 4 and the point loop has a known trip count.
This pass peels one iteration at a time — clone the loop body, enter the
clone, fold, repeat — which composes with constprop/simplifycfg instead of
needing its own expression evaluator.  DBrew achieves the same effect at
the binary level by emulating the loop with known values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir import instructions as I
from repro.ir.cfg import NaturalLoop, find_natural_loops
from repro.ir.module import Function, clone_region
from repro.ir.passes import constprop, dce, instcombine, schedule, simplifycfg
from repro.ir.semantics import icmp_fn
from repro.ir.values import Constant, Value

MAX_TRIP = 64
MAX_LOOP_INSTRS = 250
MAX_TOTAL_PEELS = 512

#: the passes that clean up after each peel, and the most rounds of them
_CLEANUP = (simplifycfg, constprop, instcombine, dce)
CLEANUP_ROUNDS = 6


@dataclass
class _LoopInfo:
    loop: NaturalLoop
    trip_count: int


def _analyze(func: Function, loop: NaturalLoop) -> _LoopInfo | None:
    header = loop.header
    latch = loop.latch
    term = header.terminator
    if not (isinstance(term, I.Br) and term.is_conditional):
        return None
    cond = term.operands[0]
    if not isinstance(cond, I.ICmp):
        return None
    then_in = term.targets[0] in loop.blocks
    else_in = term.targets[1] in loop.blocks
    if then_in == else_in:
        return None

    size = sum(len(b.instructions) for b in loop.blocks)
    if size > MAX_LOOP_INSTRS:
        return None

    # find the induction phi
    for phi in header.phis():
        init: Value | None = None
        step_ins: I.BinOp | None = None
        for v, b in phi.incoming():
            if b in loop.blocks:
                if isinstance(v, I.BinOp) and v.opcode in ("add", "sub"):
                    a, s = v.operands
                    if a is phi and isinstance(s, Constant):
                        step_ins = v
            else:
                init = v
        if init is None or step_ins is None or not isinstance(init, Constant):
            continue
        step = step_ins.operands[1].signed  # type: ignore[attr-defined]
        if step_ins.opcode == "sub":
            step = -step
        # comparison must involve phi or step result and a constant
        a, b = cond.operands
        if a in (phi, step_ins) and isinstance(b, Constant):
            pred = cond.pred
            cmp_on_next = a is step_ins
            bound = b
        elif b in (phi, step_ins) and isinstance(a, Constant):
            # normalize: constant on the right by swapping predicate
            swap = {"slt": "sgt", "sgt": "slt", "sle": "sge", "sge": "sle",
                    "ult": "ugt", "ugt": "ult", "ule": "uge", "uge": "ule",
                    "eq": "eq", "ne": "ne"}
            pred = swap[cond.pred]
            cmp_on_next = b is step_ins
            bound = a
        else:
            continue

        bits = phi.type.bits  # type: ignore[attr-defined]
        holds_for = icmp_fn(pred, phi.type)
        i = init.value
        trip = None
        for count in range(MAX_TRIP + 1):
            iv = (i + step) & ((1 << bits) - 1) if cmp_on_next else i
            holds = holds_for(iv, bound.value)
            in_loop = holds if then_in else not holds
            if not in_loop:
                trip = count
                break
            i = (i + step) & ((1 << bits) - 1)
        if trip is None:
            return None
        if not _safe_external_uses(func, loop):
            return None
        return _LoopInfo(loop, trip)
    return None


def _safe_external_uses(func: Function, loop: NaturalLoop) -> bool:
    """Ensure loop-defined values reach the outside only through phis in
    dedicated exit blocks, inserting LCSSA phis where possible."""
    defined: dict[int, I.Instruction] = {
        id(i): i for b in loop.blocks for i in b.instructions
    }
    exits = loop.exits()
    exit_blocks = {e for _f, e in exits}

    # values with direct (non-phi-in-exit-block) external uses
    pending: list[tuple[I.Instruction, I.Instruction]] = []  # (user, value)
    for blk in func.blocks:
        if blk in loop.blocks:
            continue
        for ins in blk.instructions:
            for op in ins.operands:
                if id(op) not in defined:
                    continue
                if isinstance(ins, I.Phi) and blk in exit_blocks:
                    continue  # already merged at the boundary
                pending.append((ins, defined[id(op)]))
    if not pending:
        return True

    # LCSSA conversion needs a single dedicated exit block
    if len(exit_blocks) != 1:
        return False
    (exit_block,) = exit_blocks
    preds = func.predecessors(exit_block)
    if any(p not in loop.blocks for p in preds):
        return False

    for value in {id(v): v for _u, v in pending}.values():
        # the value must dominate every exiting predecessor; loop header
        # instructions always do, others we check conservatively
        if value.block is not loop.header:
            return False
        phi = I.Phi(value.type, func.next_name("lcssa"))
        for p in preds:
            phi.operands.append(value)
            phi.incoming_blocks.append(p)
        exit_block.insert(0, phi)
        for blk in func.blocks:
            if blk in loop.blocks:
                continue
            for ins in blk.instructions:
                if ins is phi:
                    continue
                ins.replace_operand(value, phi)
    return True


def _peel_once(func: Function, loop: NaturalLoop) -> None:
    """Clone the loop once ahead of itself and enter the clone."""
    header, latch = loop.header, loop.latch
    outside_preds = [p for p in func.predecessors(header) if p not in loop.blocks]

    vmap: dict[int, Value] = {}
    order = [b for b in func.blocks if b in loop.blocks]
    clones = clone_region(
        order, func, vmap=vmap, attached=True,
        name_block=lambda blk: func.next_name(f"peel.{blk.name}"),
        name_value=lambda: func.next_name("pl"))
    bmap = {id(blk): nb for blk, nb in zip(order, clones)}

    cloned_header = bmap[id(header)]
    cloned_latch = bmap[id(latch)]

    # cloned latch loops into the *original* header (not the clone)
    term = cloned_latch.instructions[-1]
    if isinstance(term, I.Br):
        term.targets = [header if t is cloned_header else t for t in term.targets]

    # cloned header phis keep only outside-pred incomings
    for phi in list(cloned_header.phis()):
        for b in list(phi.incoming_blocks):
            if b in (cloned_latch, latch):
                phi.remove_incoming(b)

    # original header phis: drop outside incomings, add cloned-latch incoming
    for phi in header.phis():
        latch_value = phi.incoming_for(latch)
        assert latch_value is not None
        cloned_value = vmap.get(id(latch_value), latch_value)
        for b in outside_preds:
            phi.remove_incoming(b)
        phi.add_incoming(cloned_value, cloned_latch)

    # outside predecessors enter the clone; the exits gain predecessors
    schedule.reshaped(func, [header, *outside_preds, *(
        s for b in order for s in b.successors() if s not in loop.blocks)])
    for p in outside_preds:
        pterm = p.instructions[-1]
        if isinstance(pterm, I.Br):
            pterm.replace_target(header, cloned_header)

    # exit blocks gain the cloned exit edges: extend their phis
    for b in order:
        nb = bmap[id(b)]
        for succ in b.successors():
            if succ in loop.blocks:
                continue
            for phi in succ.phis():
                v = phi.incoming_for(b)
                if v is not None:
                    phi.add_incoming(vmap.get(id(v), v), nb)

    at = func.blocks.index(header)
    func.blocks[at:at] = clones
    func.bump_version()  # new blocks and edges: the predecessor map is stale


def idle(func: Function) -> bool:
    """Nothing changed since an application that found no loop to peel."""
    return schedule.quiet(func, "unroll")


def run(func: Function) -> bool:
    """Fully unroll all constant-trip loops within budget."""
    changed = False
    with schedule.journaled(func):
        for _ in range(MAX_TOTAL_PEELS):
            candidate: _LoopInfo | None = None
            for loop in find_natural_loops(func):
                info = _analyze(func, loop)
                if info is not None and info.trip_count <= MAX_TRIP:
                    candidate = info
                    break
            if candidate is None:
                schedule.mark(func, "unroll")
                break
            # peeling is semantics-preserving for any trip count; for trip
            # 0 the peeled header's condition folds constant and the loop
            # dies
            _peel_once(func, candidate.loop)
            # cleanup to fixpoint: phi simplification exposes constants
            # that constprop folds, which re-enables the next trip-count
            # analysis; the cleanup passes walk only what the peel changed
            schedule.settle(func, _CLEANUP, rounds=CLEANUP_ROUNDS)
            changed = True
    if changed:
        func.bump_version()
    return changed
