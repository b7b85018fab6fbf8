"""Memory-region bounds checker for specialized code.

``lift.fixation`` clones fixed memory regions into the module as
:class:`~repro.ir.module.GlobalVariable` rodata (Sec. IV).  Every load or
store whose address is derived from such a region must land inside the
cloned bytes — an out-of-region access in specialized code means the
rewriter baked in an address the original program never touched, which is
how "lightweight" rewriters silently corrupt neighbouring state.

The checker runs an interval analysis on the sparse SSA solver.  Abstract
states (plain tuples, so lattice equality is ``==``):

* ``None`` — bottom, unreached;
* ``("int", lo, hi)`` — a signed integer in ``[lo, hi]`` (``None``
  endpoint = unbounded on that side);
* ``("ptr", region, lo, hi)`` — a pointer ``region + off`` with byte
  offset ``off`` in ``[lo, hi]``;
* ``TOP`` — anything (arguments, loaded values, foreign pointers).

Only *provably bounded* pointer intervals are compared against the
region's initializer size, so the checker reports **zero findings** when
it cannot decide: loop indices widen to unbounded, unknown bases are TOP.
That keeps the lint false-positive-free on the clean corpus while still
catching the interesting case — post-O3 specialized code, where constant
propagation has folded indices to literals and bounds are exact.
"""

from __future__ import annotations

from typing import Callable

from repro.ir import instructions as I
from repro.ir.cfg import reachable_blocks
from repro.ir.irtypes import FunctionType, VoidType
from repro.ir.module import Function, GlobalVariable
from repro.ir.values import Constant, Value

from repro.analysis.dataflow import (
    Lattice, ValueProblem, solve_value_problem,
)
from repro.analysis.findings import ERROR, Finding

CHECKER = "mem-region"

TOP = ("top",)


def _iv_join(al: int | None, ah: int | None,
             bl: int | None, bh: int | None) -> tuple[int | None, int | None]:
    lo = None if al is None or bl is None else min(al, bl)
    hi = None if ah is None or bh is None else max(ah, bh)
    return lo, hi


def _iv_add(al, ah, bl, bh):
    lo = None if al is None or bl is None else al + bl
    hi = None if ah is None or bh is None else ah + bh
    return lo, hi


def _iv_sub(al, ah, bl, bh):
    lo = None if al is None or bh is None else al - bh
    hi = None if ah is None or bl is None else ah - bl
    return lo, hi


def _iv_mul(al, ah, bl, bh):
    if None in (al, ah, bl, bh):
        return None, None
    prods = (al * bl, al * bh, ah * bl, ah * bh)
    return min(prods), max(prods)


def _iv_scale(lo, hi, k: int):
    """Interval times a non-negative constant scale factor."""
    slo = None if lo is None else lo * k
    shi = None if hi is None else hi * k
    return slo, shi


class _RegionLattice(Lattice):
    def bottom(self) -> object:
        return None

    def join(self, a: object, b: object) -> object:
        if a is None:
            return b
        if b is None:
            return a
        if a == b:
            return a
        if a == TOP or b == TOP:
            return TOP
        ka, kb = a[0], b[0]  # type: ignore[index]
        if ka == "int" and kb == "int":
            lo, hi = _iv_join(a[1], a[2], b[1], b[2])  # type: ignore[index]
            return ("int", lo, hi)
        if ka == "ptr" and kb == "ptr" and a[1] is b[1]:  # type: ignore[index]
            lo, hi = _iv_join(a[2], a[3], b[2], b[3])  # type: ignore[index]
            return ("ptr", a[1], lo, hi)  # type: ignore[index]
        return TOP


class _RegionProblem(ValueProblem):
    def lattice(self) -> _RegionLattice:
        return _RegionLattice()

    def initial(self, value: Value) -> object:
        if isinstance(value, Constant):
            s = value.signed
            return ("int", s, s)
        if isinstance(value, GlobalVariable):
            return ("ptr", value, 0, 0)
        return TOP

    def widen(self, old: object, new: object) -> object:
        """Unstable endpoints go straight to unbounded (no finding)."""
        if (old is None or new is None or old == TOP or new == TOP
                or old[0] != new[0]):  # type: ignore[index]
            return TOP
        if old[0] == "ptr":  # type: ignore[index]
            if old[1] is not new[1]:  # type: ignore[index]
                return TOP
            lo = old[2] if old[2] == new[2] else None  # type: ignore[index]
            hi = old[3] if old[3] == new[3] else None  # type: ignore[index]
            return ("ptr", old[1], lo, hi)  # type: ignore[index]
        lo = old[1] if old[1] == new[1] else None  # type: ignore[index]
        hi = old[2] if old[2] == new[2] else None  # type: ignore[index]
        return ("int", lo, hi)

    def transfer(self, ins: I.Instruction,
                 get: Callable[[Value], object]) -> object:
        if isinstance(ins, I.GEP):
            ptr, idx = get(ins.operands[0]), get(ins.operands[1])
            if ptr is None or idx is None:
                return None  # operand unreached yet
            if ptr == TOP or ptr[0] != "ptr":  # type: ignore[index]
                return TOP
            if idx == TOP or idx[0] != "int":  # type: ignore[index]
                off_lo = off_hi = None
            else:
                off_lo, off_hi = _iv_scale(idx[1], idx[2],  # type: ignore[index]
                                           ins.elem.size_bytes())
            lo, hi = _iv_add(ptr[2], ptr[3], off_lo, off_hi)  # type: ignore[index]
            return ("ptr", ptr[1], lo, hi)  # type: ignore[index]
        if isinstance(ins, I.BinOp):
            return self._binop(ins, get)
        if isinstance(ins, I.Cast):
            return self._cast(ins, get)
        if isinstance(ins, I.Select):
            return self.lattice().join(get(ins.operands[1]),
                                       get(ins.operands[2]))
        # loads, calls, compares, vector ops: unknown
        return TOP

    def _binop(self, ins: I.BinOp, get: Callable[[Value], object]) -> object:
        a, b = get(ins.operands[0]), get(ins.operands[1])
        if a is None or b is None:
            return None
        if a == TOP or b == TOP:
            return TOP
        ka, kb = a[0], b[0]  # type: ignore[index]
        if ins.opcode == "add":
            if ka == "int" and kb == "int":
                return ("int", *_iv_add(a[1], a[2], b[1], b[2]))  # type: ignore[index]
            if ka == "ptr" and kb == "int":
                return ("ptr", a[1], *_iv_add(a[2], a[3], b[1], b[2]))  # type: ignore[index]
            if ka == "int" and kb == "ptr":
                return ("ptr", b[1], *_iv_add(b[2], b[3], a[1], a[2]))  # type: ignore[index]
            return TOP
        if ins.opcode == "sub":
            if ka == "int" and kb == "int":
                return ("int", *_iv_sub(a[1], a[2], b[1], b[2]))  # type: ignore[index]
            if ka == "ptr" and kb == "int":
                return ("ptr", a[1], *_iv_sub(a[2], a[3], b[1], b[2]))  # type: ignore[index]
            return TOP
        if ins.opcode == "mul" and ka == "int" and kb == "int":
            return ("int", *_iv_mul(a[1], a[2], b[1], b[2]))  # type: ignore[index]
        return TOP

    def _cast(self, ins: I.Cast, get: Callable[[Value], object]) -> object:
        v = get(ins.operands[0])
        if v is None or v == TOP:
            return v if v is None else TOP
        if ins.opcode in ("bitcast", "inttoptr", "ptrtoint", "sext"):
            return v  # value-preserving for our signed-interval view
        if ins.opcode == "zext":
            if v[0] == "int" and v[1] is not None and v[1] >= 0:  # type: ignore[index]
                return v
            return TOP
        return TOP


def _access_size(ins: I.Instruction) -> int | None:
    t = ins.type if isinstance(ins, I.Load) else ins.operands[0].type
    if isinstance(t, (VoidType, FunctionType)):
        return None
    try:
        return t.size_bytes()
    except (TypeError, NotImplementedError):
        return None


def check_memory_regions(func: Function) -> list[Finding]:
    """Flag loads/stores provably able to escape their cloned region."""
    if func.is_declaration or not func.blocks:
        return []
    states = solve_value_problem(func, _RegionProblem())
    reachable = reachable_blocks(func)
    findings: list[Finding] = []
    for blk in func.blocks:
        if blk not in reachable:
            continue
        for ins in blk.instructions:
            if not isinstance(ins, (I.Load, I.Store)):
                continue
            ptr = ins.operands[0] if isinstance(ins, I.Load) else ins.operands[1]
            st = states.get(ptr)
            if st is None or st == TOP or st[0] != "ptr":  # type: ignore[index]
                continue
            region, lo, hi = st[1], st[2], st[3]  # type: ignore[index]
            if not isinstance(region, GlobalVariable):
                continue
            if lo is None or hi is None:
                continue  # widened / unbounded: cannot prove anything
            size = _access_size(ins)
            if size is None:
                continue
            limit = len(region.initializer)
            if lo < 0 or hi + size > limit:
                what = "load" if isinstance(ins, I.Load) else "store"
                findings.append(Finding(
                    checker=CHECKER, function=func.name,
                    severity=ERROR, block=blk.name,
                    instruction=repr(ins).strip(),
                    message=(
                        f"{what} of {size} byte(s) at @{region.name}"
                        f"[{lo}..{hi}] may escape region of {limit} bytes"),
                ))
    return findings
