"""InstCombine: algebraic peepholes and facet-cast elimination.

The cast patterns here are the ones the lifter's register model depends on
(Sec. III-C): extractelement-of-bitcast-of-insertelement chains from SSE
facet tracking, trunc/zext round-trips from GPR facet access, and shuffle
identities.  The *absence* of one pattern is deliberate: the sign/overflow
bit-arithmetic encoding of signed comparisons (Fig. 6b) is NOT reduced to
``icmp slt`` — LLVM 3.7 could not do it either, which is why the paper
introduces the flag cache.
"""

from __future__ import annotations

from repro.ir import instructions as I
from repro.ir.irtypes import IntType, VectorType
from repro.ir.module import Function
from repro.ir.passes import fold
from repro.ir.values import Constant, ConstantFP, Value


def _const(v: Value, value: int | None = None) -> bool:
    return isinstance(v, Constant) and (value is None or v.value == value % (1 << v.type.bits))  # type: ignore[attr-defined]


def _fmul_const_factor(v: Value) -> tuple[Value, Value] | None:
    """Match fmul(C, x) in either operand order; returns (C, x)."""
    if isinstance(v, I.BinOp) and v.opcode == "fmul":
        a, b = v.operands
        if isinstance(a, ConstantFP):
            return a, b
        if isinstance(b, ConstantFP):
            return b, a
    return None


def _simplify(ins: I.Instruction, fast_math: bool = False) -> Value | None:
    """Return a simpler existing value, or None (``ins`` is not NO_RULE)."""
    folded = fold.try_fold(ins)
    if folded is None and fast_math and type(ins) is I.BinOp:
        folded = _fast_math(ins)
    if folded is not None:
        return folded
    return RULES[type(ins)](ins)


def _fast_math(ins: I.BinOp) -> Value | None:
    """The folds only ``-ffast-math`` allows."""
    a, b = ins.operands
    op = ins.opcode
    if op == "fadd":
        if isinstance(b, ConstantFP) and b.value == 0.0:
            return a
        if isinstance(a, ConstantFP) and a.value == 0.0:
            return b
        # reassociation: C*x + C*y -> C*(x + y)  (LLVM's -ffast-math
        # reassociate pass; this is what lets flat-structure fixation
        # reach the hard-coded stencil, Sec. VI-A)
        fa = _fmul_const_factor(a)
        fb = _fmul_const_factor(b)
        if fa is not None and fb is not None and fa[0].value == fb[0].value:
            s = _install_before(ins, I.BinOp("fadd", fa[1], fb[1]))
            return _install_before(ins, I.BinOp("fmul", fa[0], s))
    if op == "fmul":
        if isinstance(b, ConstantFP) and b.value == 1.0:
            return a
        if isinstance(a, ConstantFP) and a.value == 1.0:
            return b
    return None


def _binop(ins: I.BinOp) -> Value | None:
    a, b = ins.operands
    op = ins.opcode
    if op in ("add", "or", "xor") and _const(b, 0):
        return a
    if op in ("add", "or", "xor") and _const(a, 0):
        return b
    if op == "sub" and _const(b, 0):
        return a
    if op == "sub" and a is b and isinstance(ins.type, IntType):
        return Constant(ins.type, 0)
    if op == "mul" and _const(b, 1):
        return a
    if op == "mul" and _const(a, 1):
        return b
    if op == "mul" and (_const(a, 0) or _const(b, 0)) and isinstance(ins.type, IntType):
        return Constant(ins.type, 0)
    if op == "and":
        if _const(b, 0) or _const(a, 0):
            return Constant(ins.type, 0) if isinstance(ins.type, IntType) else None
        mask = ins.type.mask if isinstance(ins.type, IntType) else None
        if mask is not None and isinstance(b, Constant) and b.value == mask:
            return a
        if mask is not None and isinstance(a, Constant) and a.value == mask:
            return b
        if a is b:
            return a
    if op == "or" and a is b:
        return a
    if op == "xor" and a is b and isinstance(ins.type, IntType):
        return Constant(ins.type, 0)
    if op in ("shl", "lshr", "ashr") and _const(b, 0):
        return a
    return None


def _cast(ins: I.Cast) -> Value | None:
    (v,) = ins.operands
    op = ins.opcode
    if op == "bitcast":
        if v.type is ins.type:
            return v
        if isinstance(v, I.Cast) and v.opcode == "bitcast":
            inner = v.operands[0]
            if inner.type is ins.type:
                return inner
    if op == "trunc" and isinstance(v, I.Cast) and v.opcode in ("zext", "sext"):
        inner = v.operands[0]
        if inner.type is ins.type:
            return inner
    # zext/sext(trunc(x)) to the original width would be and(x, mask): left
    # alone to keep the patterns to exact, lossless round trips
    if op == "inttoptr" and isinstance(v, I.Cast) and v.opcode == "ptrtoint":
        inner = v.operands[0]
        if inner.type is ins.type:
            return inner
    if op == "ptrtoint" and isinstance(v, I.Cast) and v.opcode == "inttoptr":
        inner = v.operands[0]
        if inner.type is ins.type:
            return inner
    return None


def _extract(ins: I.ExtractElement) -> Value | None:
    vec, idx = ins.operands
    if not isinstance(idx, Constant):
        return None
    i = idx.value
    src: Value = vec
    # look through bitcasts between same-shape vector types
    while isinstance(src, I.Cast) and src.opcode == "bitcast" \
            and isinstance(src.operands[0].type, VectorType) \
            and src.operands[0].type is not None \
            and src.operands[0].type == src.type:
        src = src.operands[0]
    while isinstance(src, I.InsertElement):
        v2, val, idx2 = src.operands
        if isinstance(idx2, Constant):
            if idx2.value == i:
                if val.type is ins.type:
                    return val
                return None
            src = v2
            continue
        return None
    if isinstance(src, I.ShuffleVector):
        a, b = src.operands
        m = src.mask[i]
        n = a.type.count  # type: ignore[union-attr]
        inner = a if m < n else b
        # rewrite as extract from the shuffle source
        new = I.ExtractElement(inner, Constant(idx.type, m % n))
        return _install_before(ins, new)
    return None


def _shuffle(ins: I.ShuffleVector) -> Value | None:
    a, b = ins.operands
    n = a.type.count  # type: ignore[union-attr]
    if ins.type is a.type and tuple(ins.mask) == tuple(range(n)):
        return a
    if ins.type is b.type and tuple(ins.mask) == tuple(range(n, 2 * n)):
        return b
    return None


def _icmp(ins: I.ICmp) -> Value | None:
    a, b = ins.operands
    # icmp eq/ne (sub x, y), 0  ->  icmp eq/ne x, y   (zero-flag pattern;
    # LLVM recognizes this one, unlike the signed-lt bit arithmetic)
    if ins.pred in ("eq", "ne") and _const(b, 0) and isinstance(a, I.BinOp) \
            and a.opcode == "sub":
        new = I.ICmp(ins.pred, a.operands[0], a.operands[1])
        return _install_before(ins, new)
    return None


def _gep(ins: I.GEP) -> Value | None:
    base, idx = ins.operands
    if _const(idx, 0) and base.type is ins.type:
        return base
    # gep(gep(p, c1), c2) with identical element type -> gep(p, c1+c2)
    if isinstance(base, I.GEP) and base.elem is ins.elem \
            and isinstance(idx, Constant) and isinstance(base.operands[1], Constant):
        c = idx.signed + base.operands[1].signed  # type: ignore[attr-defined]
        new = I.GEP(base.operands[0], Constant(idx.type, c), elem=ins.elem)
        return _install_before(ins, new)
    return None


def _select(ins: I.Select) -> Value | None:
    c, a, b = ins.operands
    if a is b:
        return a
    return None


def _install_before(anchor: I.Instruction, new: I.Instruction) -> I.Instruction:
    """Insert ``new`` right before ``anchor`` in its block."""
    blk = anchor.block
    assert blk is not None
    new.name = blk.function.next_name() if blk.function else "t"
    idx = blk.instructions.index(anchor)
    blk.insert(idx, new)
    return new


#: the peephole of each class, found by ``type(ins)`` after the shared
#: fold (an fcmp or insertelement has none), and the classes skipped in
#: one set test (a shuffle has peepholes)
RULES = {
    I.BinOp: _binop, I.ICmp: _icmp, I.Select: _select, I.Cast: _cast,
    I.GEP: _gep, I.ExtractElement: _extract, I.ShuffleVector: _shuffle,
    I.FCmp: lambda ins: None, I.InsertElement: lambda ins: None,
}
NO_RULE = fold.NO_RULE - {I.ShuffleVector}


def run(func: Function, fast_math: bool = False) -> bool:
    """Apply peepholes to fixpoint; returns True on any change."""
    changed = False
    for _ in range(32):
        round_changed = False
        for blk in func.blocks:
            for ins in list(blk.instructions):
                if type(ins) in NO_RULE:
                    continue
                repl = _simplify(ins, fast_math)
                if repl is not None and repl is not ins:
                    func.replace_all_uses(ins, repl)
                    ins.erase()
                    round_changed = True
        changed |= round_changed
        if not round_changed:
            break
    if changed:
        func.bump_version()
    return changed
