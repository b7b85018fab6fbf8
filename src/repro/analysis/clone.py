"""Function body cloning for snapshot / rollback / differential replay.

The per-pass validator needs (a) a pre-pass snapshot it can interpret
against the post-pass function, and (b) the ability to roll the function
back when a pass is rejected — *in place*, because callers (module tables,
cache entries, the pipeline driver) hold the Function object itself.

The twin produced by :func:`clone_function` shares the original's
``Argument`` objects (so the interpreter binds the same formals for both
bodies) and all external values (constants, globals, called functions);
only blocks and instructions are duplicated.  It is deliberately *not*
registered in any module, and it is *detached*: its instructions appear in
no ``Value.uses`` (see :mod:`repro.ir.values`), so the shared values never
list a snapshot as a user and taking one costs no use-list work.  A
detached body can be interpreted and compared, not transformed;
:func:`restore_function` is what attaches it.
"""

from __future__ import annotations

from repro.ir import instructions as I
from repro.ir.module import Function, clone_region
from repro.ir.values import Argument, Constant, ConstantFP, ConstantVector, Undef


def clone_function(func: Function, name: str | None = None) -> Function:
    """An unregistered, detached twin of ``func`` sharing args and
    external values."""
    twin = Function(name or f"{func.name}.snapshot", func.ftype)
    twin.args = func.args  # shared formals: bodies are interchangeable
    twin.module = func.module  # for global placement; not in module.functions
    twin.always_inline = func.always_inline
    twin.is_declaration = func.is_declaration
    twin._name_counter = func._name_counter

    twin.blocks = clone_region(func.blocks, twin, vmap={}, attached=False,
                               name_block=lambda blk: blk.name)
    return twin


def restore_function(func: Function, snapshot: Function) -> None:
    """Replace ``func``'s body with a snapshot's blocks, in place.

    The snapshot must come from :func:`clone_function` on the same
    function (shared args); after this call the snapshot must not be used
    again — its blocks now belong to ``func``.  The rejected body leaves
    every use list and the snapshot's body enters them.
    """
    for ins in func.instructions():
        ins.detach()
    func.blocks = snapshot.blocks
    for blk in func.blocks:
        blk.function = func
        for ins in blk.instructions:
            ins.attach()
    snapshot.blocks = []
    # rollback is a mutation: any cached derived state (interpreter traces)
    # keyed by the pre-rollback version must be invalidated
    func.bump_version()


def _operand_key(op: object, pos: dict[int, tuple[int, int]],
                 bpos: dict[int, int]) -> object:
    """Position-based structural key for one operand (ignores names)."""
    if isinstance(op, I.Instruction):
        return ("ins", pos.get(id(op)))
    if isinstance(op, Constant):
        return ("c", id(op.type), op.value)
    if isinstance(op, ConstantFP):
        return ("cf", id(op.type), repr(op.value))
    if isinstance(op, ConstantVector):
        return ("cv", id(op.type),
                tuple(_operand_key(e, pos, bpos) for e in op.elements))
    if isinstance(op, Undef):
        return ("undef", id(op.type))
    if isinstance(op, Argument):
        return ("arg", op.index)
    # globals, functions: identity (shared between the twins)
    return ("ext", id(op))


def _positions(func: Function) -> tuple[dict[int, tuple[int, int]],
                                        dict[int, int]]:
    pos: dict[int, tuple[int, int]] = {}
    bpos = {id(blk): i for i, blk in enumerate(func.blocks)}
    for bi, blk in enumerate(func.blocks):
        for ii, ins in enumerate(blk.instructions):
            pos[id(ins)] = (bi, ii)
    return pos, bpos


def _instruction_key(ins: I.Instruction, pos: dict[int, tuple[int, int]],
                     bpos: dict[int, int]) -> tuple:
    """When two instructions are the same, up to position: opcode, type,
    operands and payload.  Equality and fingerprinting both read this."""
    extra: tuple = ()
    if isinstance(ins, (I.ICmp, I.FCmp)):
        extra = ("pred", ins.pred)
    elif isinstance(ins, I.GEP):
        extra = ("elem", id(ins.elem))
    elif isinstance(ins, I.ShuffleVector):
        extra = ("mask", tuple(ins.mask))
    elif isinstance(ins, I.Alloca):
        extra = ("alloca", ins.size, ins.align)
    elif isinstance(ins, (I.Load, I.Store)):
        extra = ("align", ins.align)
    elif isinstance(ins, I.Call):
        extra = ("callee", ins.callee_name)
    elif isinstance(ins, I.Br):
        extra = ("targets", tuple(bpos.get(id(t)) for t in ins.targets))
    if isinstance(ins, I.Phi):
        extra = ("incoming",
                 tuple(bpos.get(id(t)) for t in ins.incoming_blocks))
    return (ins.opcode, id(ins.type),
            tuple(_operand_key(op, pos, bpos) for op in ins.operands), extra)


def function_fingerprint(func: Function) -> tuple:
    """A hashable structural key — the :func:`_instruction_key` of every
    position, so two bodies are :func:`functions_structurally_equal` iff
    their fingerprints are equal (within one process: external values key
    by object identity).

    Cheap (one body walk, no interpretation); the validator uses it to
    re-validate a memoized baseline before trusting it.
    """
    pos, bpos = _positions(func)
    return tuple(
        tuple(_instruction_key(ins, pos, bpos) for ins in blk.instructions)
        for blk in func.blocks)


def functions_structurally_equal(a: Function, b: Function) -> bool:
    """Structural (position-based) equality of two function bodies: the
    same :func:`_instruction_key` at every position, names ignored.

    Used to detect passes that mutate a function while reporting "no
    change" — a silent miscompile the validator must still examine.
    """
    if [len(blk.instructions) for blk in a.blocks] \
            != [len(blk.instructions) for blk in b.blocks]:
        return False
    at_a, at_b = _positions(a), _positions(b)
    return all(_instruction_key(x, *at_a) == _instruction_key(y, *at_b)
               for x, y in zip(a.instructions(), b.instructions()))
