"""Undef-use detector (lifter-soundness lint).

Unwritten guest registers lift to ``undef`` (Sec. III-C), and that is fine
*as long as nothing observable consumes them* — "these unused nodes will be
removed by the optimizer".  A lifter or pass bug that routes an undef (or a
value computed from one) into a store, a branch condition, a memory address
or the return value is a real miscompile: the JIT will materialize garbage.

The checker is a taint analysis on the sparse SSA engine: ``undef`` is
tainted, taint propagates through computation and across phi joins
(a value is *maybe-undef* if any path can produce undef), and findings are
raised at observable sinks only.  ``select`` merges like a phi; a load's
*result* is clean (memory contents are defined by the machine model) but a
load *address* must not be tainted.

Taint is **byte-granular**: the abstract state of a value is a bitmask with
one bit per byte that may be undef.  The lifter demands this — SSE facets
round-trip through ``i128`` phis, and idioms like ``movsd`` + ``unpcklpd``
insert a loaded double into lane 0 of an xmm whose *upper* lane is undef,
then splat lane 0 over both lanes.  The result is fully defined, which only
a representation tracking insertelement / shufflevector / bitcast at byte
precision can see; whole-value taint would flag every vectorized store.

One deliberate exception: storing a tainted *value* through a pointer that
derives from an ``alloca`` is benign — the lifter spills callee-saved
registers (undef at entry) to the virtual stack in every prologue, and
function-local scratch is only observable through a later load, whose
result the machine model defines.  Tainted store *addresses* are always
flagged, alloca-based or not.
"""

from __future__ import annotations

from typing import Callable

from repro.ir import instructions as I
from repro.ir.cfg import reachable_blocks
from repro.ir.module import Function
from repro.ir.values import Undef, Value

from repro.analysis.dataflow import (
    BoolLattice, Lattice, ValueProblem, solve_value_problem,
)
from repro.analysis.findings import ERROR, Finding
from repro.ir.values import Constant

CHECKER = "undef-use"


def _nbytes(t) -> int:
    """Byte width of a type (at least one byte, so i1 taints as a byte)."""
    try:
        return max(t.size_bytes(), 1)
    except Exception:
        return 1


def _full(t) -> int:
    return (1 << _nbytes(t)) - 1


class _MaskLattice(Lattice):
    """Bitmask of maybe-undef bytes; join is bitwise or."""

    def bottom(self) -> int:
        return 0

    def join(self, a: int, b: int) -> int:
        return a | b


class _AllocaBased(ValueProblem):
    """May the value point into an ``alloca``'d region?  (join = or)"""

    def lattice(self) -> BoolLattice:
        return BoolLattice()

    def initial(self, value: Value) -> bool:
        return False

    def transfer(self, ins: I.Instruction,
                 get: Callable[[Value], bool]) -> bool:
        if isinstance(ins, I.Alloca):
            return True
        if isinstance(ins, (I.GEP, I.Cast, I.Select)):
            return any(get(op) for op in ins.operands)
        if isinstance(ins, I.BinOp) and ins.opcode in ("add", "sub"):
            return any(get(op) for op in ins.operands)
        return False


class _TaintProblem(ValueProblem):
    def lattice(self) -> _MaskLattice:
        return _MaskLattice()

    def initial(self, value: Value) -> int:
        return _full(value.type) if isinstance(value, Undef) else 0

    def transfer(self, ins: I.Instruction,
                 get: Callable[[Value], int]) -> int:
        if isinstance(ins, (I.Load, I.Call, I.Alloca)):
            # results come from memory / callee / allocator — defined even
            # when an operand is tainted (the *operand* use is the sink)
            return 0
        if isinstance(ins, I.InsertElement):
            vec, val, idx = ins.operands
            es = _nbytes(ins.type.elem)
            if isinstance(idx, Constant):
                lane = (1 << es) - 1 << (idx.value * es)
                return (get(vec) & ~lane) | (get(val) << (idx.value * es))
            # unknown lane: a clean insert cannot add taint, a tainted one
            # could land anywhere
            return get(vec) | (_full(ins.type) if get(val) else 0)
        if isinstance(ins, I.ExtractElement):
            vec, idx = ins.operands
            es = _nbytes(ins.type)
            if isinstance(idx, Constant):
                return (get(vec) >> (idx.value * es)) & ((1 << es) - 1)
            return _full(ins.type) if get(vec) else 0
        if isinstance(ins, I.ShuffleVector):
            a, b = ins.operands
            es = _nbytes(ins.type.elem)
            n = a.type.count
            lane = (1 << es) - 1
            out = 0
            for i, src in enumerate(ins.mask):
                m = get(a) >> (src * es) if src < n else get(b) >> ((src - n) * es)
                out |= (m & lane) << (i * es)
            return out
        if isinstance(ins, I.Cast):
            m = get(ins.operands[0])
            if ins.opcode in ("bitcast", "inttoptr", "ptrtoint"):
                return m & _full(ins.type)  # same-size reinterpretation
            if ins.opcode == "trunc":
                return m & _full(ins.type)
            if ins.opcode == "zext":
                return m  # high bytes become defined zeros
            return _full(ins.type) if m else 0
        if isinstance(ins, I.Select):
            _cond, a, b = ins.operands
            base = get(a) | get(b)
            return _full(ins.type) if get(_cond) else base
        if any(get(op) for op in ins.operands):
            return _full(ins.type)
        return 0


def _sinks(ins: I.Instruction) -> list[tuple[Value, str]]:
    """(operand, role) pairs whose taint is an observable miscompile."""
    out: list[tuple[Value, str]] = []
    if isinstance(ins, I.Store):
        out.append((ins.operands[0], "stored value"))
        out.append((ins.operands[1], "store address"))
    elif isinstance(ins, I.Load):
        out.append((ins.operands[0], "load address"))
    elif isinstance(ins, I.Br) and ins.is_conditional:
        out.append((ins.operands[0], "branch condition"))
    elif isinstance(ins, I.Ret) and ins.value is not None:
        out.append((ins.value, "return value"))
    elif isinstance(ins, I.Call):
        for i, op in enumerate(ins.operands):
            out.append((op, f"call argument {i}"))
    return out


def check_undef_uses(func: Function) -> list[Finding]:
    """Report maybe-undef values reaching observable sinks."""
    if func.is_declaration or not func.blocks:
        return []
    states = solve_value_problem(func, _TaintProblem())
    local = solve_value_problem(func, _AllocaBased())
    reachable = reachable_blocks(func)
    findings: list[Finding] = []
    for blk in func.blocks:
        if blk not in reachable:
            continue  # dead code cannot misbehave at runtime
        for ins in blk.instructions:
            for op, role in _sinks(ins):
                if (role == "stored value"
                        and local.get(ins.operands[1])):
                    continue  # spill to function-local scratch: benign
                if states.get(op):
                    findings.append(Finding(
                        checker=CHECKER, function=func.name,
                        severity=ERROR, block=blk.name,
                        instruction=repr(ins).strip(),
                        message=f"possibly-undef value used as {role}",
                    ))
    return findings
