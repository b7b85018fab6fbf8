"""IR loop vectorizer with the paper's metadata gate (Sec. VI-B).

The paper observes that LLVM refuses to vectorize lifted loops: "the loop
analysis passes of LLVM consider vectorization as non-beneficial for this
loop ... we assume that missing meta-information leads to this missed
optimization".  The mechanism modeled here: binary-lifted loads/stores carry
small alignment (alignment is unknowable from bytes), and the cost model
rates an all-unaligned vector loop as non-beneficial — unless the user
forces it (``-force-vector-width=2``), in which case the loop is vectorized
with unaligned accesses and *no alignment peeling*, which is why the paper
measures it ~23% slower than GCC's natively vectorized loop.

Returns a :class:`VectorizeReport` so tests and benchmarks can assert on
the refusal reason, not just the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir import instructions as I
from repro.ir.builder import IRBuilder
from repro.ir.cfg import NaturalLoop, find_natural_loops
from repro.ir.irtypes import DOUBLE, I8, I64, IntType, PointerType, V2F64, ptr
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Constant, ConstantFP, ConstantVector, Value


@dataclass
class VectorizeReport:
    vectorized: bool
    reason: str


@dataclass
class _Stride:
    """A unit-stride f64 access: address = base + (ivar + extra)*8 + disp."""

    base: Value
    disp: int
    extra: Optional[Value]  # loop-invariant index component


@dataclass
class _Candidate:
    header: BasicBlock
    body: BasicBlock
    ivar: I.Phi
    step_ins: I.BinOp
    limit: Value
    exit_block: BasicBlock
    loads: dict[int, tuple[I.Load, _Stride]]
    store: I.Store
    store_stride: _Stride
    float_chain: list[I.Instruction]
    aligned: bool


def run(func: Function, *, force_vector_width: int = 0) -> VectorizeReport:
    """Try to vectorize one innermost f64 loop."""
    for loop in find_natural_loops(func):
        cand = _analyze(func, loop)
        if cand is None:
            continue
        if not cand.aligned and force_vector_width != 2:
            return VectorizeReport(
                False,
                "not beneficial: memory accesses have unknown alignment "
                "(no metadata at binary level); use force_vector_width=2",
            )
        if force_vector_width not in (0, 2):
            return VectorizeReport(False, f"unsupported width {force_vector_width}")
        _transform(func, loop, cand)
        func.bump_version()
        return VectorizeReport(True, "vectorized with width 2 (unaligned accesses)")
    return VectorizeReport(False, "no vectorizable loop found")


class _Unvectorizable(Exception):
    pass


def _analyze(func: Function, loop: NaturalLoop) -> _Candidate | None:
    if len(loop.blocks) != 2 or loop.header is loop.latch:
        return None
    header, body = loop.header, loop.latch
    term = header.terminator
    if not (isinstance(term, I.Br) and term.is_conditional):
        return None
    cond = term.operands[0]
    if not isinstance(cond, I.ICmp):
        return None
    # normalize: continue-into-body predicate must be ivar < limit
    if cond.pred == "slt" and term.targets[0] is body:
        pass
    elif cond.pred == "sge" and term.targets[1] is body:
        pass
    else:
        return None

    ivar: I.Phi | None = None
    step_ins: I.BinOp | None = None
    for phi in header.phis():
        for v, b in phi.incoming():
            if b is body and isinstance(v, I.BinOp) and v.opcode == "add" \
                    and v.operands[0] is phi and isinstance(v.operands[1], Constant) \
                    and v.operands[1].value == 1:
                ivar, step_ins = phi, v
    if ivar is None or step_ins is None:
        return None
    if cond.operands[0] is not ivar:
        return None
    if len(header.phis()) != 1:
        return None  # loop-carried accumulators need reduction support
    limit = cond.operands[1]

    def invariant(v: Value) -> bool:
        if not isinstance(v, I.Instruction):
            return True
        return v.block not in loop.blocks

    loads: dict[int, tuple[I.Load, _Stride]] = {}
    store: I.Store | None = None
    store_stride: _Stride | None = None
    float_chain: list[I.Instruction] = []
    aligned = True
    for ins in body.instructions[:-1]:
        if isinstance(ins, I.Load):
            if ins.type is not DOUBLE:
                return None
            stride = _strided_addr(ins.operands[0], ivar, invariant)
            if stride is None:
                return None
            aligned &= ins.align >= 16
            loads[id(ins)] = (ins, stride)
            float_chain.append(ins)
        elif isinstance(ins, I.Store):
            if store is not None or ins.operands[0].type is not DOUBLE:
                return None
            store_stride = _strided_addr(ins.operands[1], ivar, invariant)
            if store_stride is None:
                return None
            aligned &= ins.align >= 16
            store = ins
        elif isinstance(ins, I.BinOp) and ins.opcode in ("fadd", "fsub", "fmul"):
            float_chain.append(ins)
        elif isinstance(ins, I.BinOp) and isinstance(ins.type, IntType):
            continue  # address arithmetic; recomputed by the vector body
        elif isinstance(ins, (I.GEP, I.Cast)):
            continue
        elif ins is step_ins:
            continue
        else:
            return None
    if store is None or store_stride is None:
        return None
    # the stored value's dataflow must close over loads/chain/constants
    chain_ids = {id(c) for c in float_chain}
    for ins in float_chain + [store]:
        operands = ins.operands[:1] if isinstance(ins, I.Store) else (
            [] if isinstance(ins, I.Load) else ins.operands
        )
        for op in operands:
            if id(op) in chain_ids or isinstance(op, ConstantFP):
                continue
            return None
    exit_block = term.targets[1] if term.targets[0] is body else term.targets[0]
    return _Candidate(header, body, ivar, step_ins, limit, exit_block,
                      loads, store, store_stride, float_chain, aligned)


def _strided_addr(ptr_v: Value, ivar: Value, invariant) -> _Stride | None:
    """Match base + (ivar [+ inv]) * 8 + const."""
    v = ptr_v
    if isinstance(v, I.Cast) and v.opcode == "bitcast":
        v = v.operands[0]
    if not isinstance(v, I.GEP):
        return None
    base, idx = v.operands
    size = v.elem.size_bytes()
    # peel casts off the base until an invariant value is found (the lifter
    # re-materializes inttoptr per block, inside the loop)
    for _ in range(4):
        if invariant(base):
            break
        if isinstance(base, I.Cast) and base.opcode in ("inttoptr", "bitcast"):
            base = base.operands[0]
        else:
            return None
    if not invariant(base):
        return None
    disp = 0
    scale = size

    def peel_adds(e: Value, mult: int) -> Value:
        nonlocal disp
        for _ in range(8):
            if isinstance(e, I.BinOp) and e.opcode == "add" \
                    and isinstance(e.operands[1], Constant):
                disp += e.operands[1].signed * mult  # type: ignore[attr-defined]
                e = e.operands[0]
            elif isinstance(e, I.BinOp) and e.opcode == "add" \
                    and isinstance(e.operands[0], Constant):
                disp += e.operands[0].signed * mult  # type: ignore[attr-defined]
                e = e.operands[1]
            else:
                return e
        return e

    idx = peel_adds(idx, size)
    if size == 1:
        if isinstance(idx, I.BinOp) and idx.opcode == "mul" \
                and isinstance(idx.operands[1], Constant) \
                and idx.operands[1].value == 8:  # type: ignore[attr-defined]
            idx = idx.operands[0]
        elif isinstance(idx, I.BinOp) and idx.opcode == "shl" \
                and isinstance(idx.operands[1], Constant) \
                and idx.operands[1].value == 3:  # type: ignore[attr-defined]
            idx = idx.operands[0]
        else:
            return None
        idx = peel_adds(idx, 8)
    elif size != 8:
        return None

    if idx is ivar:
        return _Stride(base, disp, None)
    if isinstance(idx, I.BinOp) and idx.opcode == "add":
        a, b = idx.operands
        if a is ivar and invariant(b):
            return _Stride(base, disp, b)
        if b is ivar and invariant(a):
            return _Stride(base, disp, a)
    return None


def _transform(func: Function, loop: NaturalLoop, cand: _Candidate) -> None:
    """Rewrite the loop to process two elements per iteration.

    No alignment peeling (forced mode has no alignment facts): the vector
    loop runs while ``i + 1 < limit`` with unaligned accesses; the original
    scalar loop remains as the remainder.
    """
    header, body, ivar = cand.header, cand.body, cand.ivar

    vheader = func.add_block(func.next_name("vec.head"))
    vbody = func.add_block(func.next_name("vec.body"))

    for blk in func.blocks:
        if blk in loop.blocks or blk in (vheader, vbody):
            continue
        t = blk.terminator
        if isinstance(t, I.Br):
            t.replace_target(header, vheader)

    b = IRBuilder(vheader)
    vi = I.Phi(ivar.type, func.next_name("vi"))
    vheader.insert(0, vi)
    ip1 = b.add(vi, Constant(ivar.type, 1))
    vcond = b.icmp("slt", ip1, cand.limit)
    b.cond_br(vcond, vbody, header)

    b = IRBuilder(vbody)
    vmap: dict[int, Value] = {}

    def vec_addr(stride: _Stride) -> Value:
        idx: Value = vi
        if stride.extra is not None:
            idx = b.add(vi, stride.extra)
        byte_off = b.mul(idx, Constant(I64, 8))
        if stride.disp:
            byte_off = b.add(byte_off, Constant(I64, stride.disp))
        base = stride.base
        if not (isinstance(base.type, PointerType) and base.type.pointee is I8):
            if base.type.is_pointer:
                base = b.bitcast(base, ptr(I8))
            else:
                base = b.inttoptr(base, ptr(I8))
        p = b.gep(base, byte_off)
        return b.bitcast(p, ptr(V2F64))

    def vec_operand(v: Value) -> Value:
        mapped = vmap.get(id(v))
        if mapped is not None:
            return mapped
        if isinstance(v, ConstantFP):
            return ConstantVector(V2F64, (v, v))
        raise _Unvectorizable(f"stored value depends on scalar {v!r}")

    for ins in cand.float_chain:
        if isinstance(ins, I.Load):
            _ld, stride = cand.loads[id(ins)]
            vmap[id(ins)] = b.load(vec_addr(stride), align=1)
        else:
            a = vec_operand(ins.operands[0])
            c = vec_operand(ins.operands[1])
            vmap[id(ins)] = b.binop(ins.opcode, a, c)
    b.store(vec_operand(cand.store.operands[0]), vec_addr(cand.store_stride), align=1)
    vi2 = b.add(vi, Constant(ivar.type, 2))
    b.br(vheader)

    entry_pairs = [(v, blk) for v, blk in ivar.incoming() if blk not in loop.blocks]
    for v, blk in entry_pairs:
        vi.operands.append(v)
        vi.incoming_blocks.append(blk)
        ivar.remove_incoming(blk)
    vi.operands.append(vi2)
    vi.incoming_blocks.append(vbody)
    ivar.add_incoming(vi, vheader)
