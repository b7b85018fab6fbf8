"""Function inlining (always-inline + small-function heuristic).

Section IV relies on this: parameter fixation builds a tiny wrapper that
calls the original function with constants and marks the callee
``alwaysinline``; inlining then exposes the constants to the rest of the
pipeline.
"""

from __future__ import annotations

from repro.ir import instructions as I
from repro.ir.module import BasicBlock, Function, clone_region
from repro.ir.passes.schedule import forget, mark, quiet
from repro.ir.values import Undef, Value

#: instruction-count threshold for inlining functions not marked always_inline
SMALL_FUNCTION_THRESHOLD = 40


def _should_inline(callee: Function) -> bool:
    if callee.is_declaration or not callee.blocks:
        return False
    if callee.always_inline:
        return not _is_recursive(callee)
    size = sum(len(b.instructions) for b in callee.blocks)
    return size <= SMALL_FUNCTION_THRESHOLD and not _is_recursive(callee)


def _is_recursive(func: Function) -> bool:
    for ins in func.instructions():
        if isinstance(ins, I.Call) and not ins.intrinsic and \
                ins.callee is func:
            return True
    return False


def inline_call(caller: Function, call: I.Call) -> bool:
    """Inline one call site; returns True on success."""
    callee = call.callee
    if isinstance(callee, str):
        return False
    block = call.block
    assert block is not None and isinstance(callee, Function)

    if not any(isinstance(b.terminator, I.Ret) for b in callee.blocks):
        return False  # no return -> diverging callee; keep the call
    # the callee's body in the caller's namespace, formals bound to actuals
    clones = clone_region(
        callee.blocks, caller, attached=True,
        vmap={id(formal): actual
              for formal, actual in zip(callee.args, call.operands)},
        name_block=lambda blk: caller.next_name(f"inl.{blk.name}"),
        name_value=lambda: caller.next_name("inl"))
    rets: list[tuple[BasicBlock, Value | None]] = [
        (cb, cb.terminator.value) for cb in clones
        if isinstance(cb.terminator, I.Ret)]

    # split the block at the call
    idx = block.instructions.index(call)
    cont = BasicBlock(caller.next_name(f"{block.name}.cont"))
    cont.function = caller
    cont.instructions = block.instructions[idx + 1:]
    for ins in cont.instructions:
        ins.block = cont
    del block.instructions[idx + 1:]  # the call stays until its uses are gone

    # successors' phis must now refer to cont instead of block
    for succ_blk in cont.successors():
        for phi in succ_blk.phis():
            for i, b in enumerate(phi.incoming_blocks):
                if b is block:
                    phi.incoming_blocks[i] = cont

    at = caller.blocks.index(block) + 1
    caller.blocks[at:at] = clones + [cont]

    # rets -> jump to cont; merge return values with a phi if needed
    ret_value: Value | None
    if len(rets) == 1:
        rb, ret_value = rets[0]
        rb.terminator.erase()
        rb.append(I.Br(None, cont))
    else:
        phi: I.Phi | None = None
        if not call.type.is_void:
            phi = I.Phi(call.type, caller.next_name("retphi"))
        for rb, rv in rets:
            rb.terminator.erase()
            rb.append(I.Br(None, cont))
            if phi is not None:
                phi.operands.append(rv if rv is not None else Undef(call.type))
                phi.incoming_blocks.append(rb)
        if phi is not None:
            cont.insert(0, phi)
            ret_value = phi
        else:
            ret_value = None

    if not call.type.is_void:
        if len(rets) == 1:
            rv = rets[0][1]
            caller.replace_all_uses(call, rv if rv is not None else Undef(call.type))
        else:
            assert ret_value is not None
            # avoid self-reference through the phi
            for i, op in enumerate(ret_value.operands):
                if op is call:
                    ret_value.operands[i] = Undef(call.type)
            caller.replace_all_uses(call, ret_value)

    # the call becomes the entry into the cloned body
    call.erase()
    block.append(I.Br(None, clones[0]))

    # move cloned allocas into the caller entry block
    for cb in clones:
        for ins in list(cb.instructions):
            if isinstance(ins, I.Alloca):
                cb.instructions.remove(ins)  # moved, not erased
                caller.entry.insert(caller.entry.first_non_phi(), ins)
    return True


#: the most call sites one application inlines
MAX_SITES = 8


def idle(func: Function) -> bool:
    """Nothing changed since an application that left no site to inline."""
    return quiet(func, "inline")


def run(func: Function) -> bool:
    """Inline eligible call sites (one pass); returns True on change."""
    changed = False
    for _ in range(MAX_SITES):
        site = None
        for ins in func.instructions():
            if isinstance(ins, I.Call) and not ins.intrinsic \
                    and isinstance(ins.callee, Function) \
                    and ins.callee is not func and _should_inline(ins.callee):
                site = ins
                break
        if site is None or not inline_call(func, site):
            mark(func, "inline")  # nothing left that inlines
            break
        # a split block and moved allocas are changes no event describes
        forget(func)
        changed = True
    if changed:
        func.bump_version()
    return changed
