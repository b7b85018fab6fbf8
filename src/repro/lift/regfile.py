"""SSA register state with facet caching (Sec. III-C, Fig. 4).

Each architectural register is canonically an integer SSA value — i64 for
GPRs, i128 for SSE registers — plus a cache of *facets*: the same bits
viewed as a narrower integer, a pointer, a scalar double, or a vector.
Reading a facet materializes the conversion instructions once per block and
caches the result; writing a facet merges into the canonical value per the
hardware rules (32-bit writes zero the upper half, 8/16-bit writes are
preserved-merge, SSE scalar ops preserve the upper lane, ``movq`` zeroes it).

The facet cache is an ablation knob: the paper found that without it "the
LLVM optimizer is not able to eliminate the casts between the accessed
facets and the integer representation".

A flag slot holds either its i1 value or, until something reads it, the
*recipe* of the instruction that wrote it (``lift.flags.FlagRecipe``):
:meth:`RegFile.read_flag` is where a recipe is turned into instructions.
Nothing else may read ``RegState.flags`` for a value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.ir import instructions as I
from repro.ir.builder import IRBuilder
from repro.ir.irtypes import (
    DOUBLE, FLOAT, I1 as I1_TYPE, I8, I16, I32, I64, I128, PointerType,
    Type, V2F64, V4F32, V2I64, V4I32, ptr,
)
from repro.ir.module import BasicBlock
from repro.ir.values import Constant, Undef, Value
from repro.obs import metrics as _metrics

if TYPE_CHECKING:
    from repro.lift.flags import FlagRecipe

#: GPR facets
F_I64, F_I32, F_I16, F_I8, F_I8H, F_PTR = "i64", "i32", "i16", "i8", "i8h", "ptr"
#: SSE facets
F_I128, F_F64, F_F32, F_V2F64, F_V4F32, F_V2I64, F_V4I32 = (
    "i128", "f64", "f32", "v2f64", "v4f32", "v2i64", "v4i32"
)

_SSE_VEC_TYPE = {F_V2F64: V2F64, F_V4F32: V4F32, F_V2I64: V2I64, F_V4I32: V4I32}

I8P = ptr(I8)


@dataclass
class RegState:
    """Register/flag values at one program point of one block."""

    gpr: list[Value]
    xmm: list[Value]
    flags: dict[str, Value | FlagRecipe]
    gpr_facets: list[dict[str, Value]] = field(default_factory=list)
    xmm_facets: list[dict[str, Value]] = field(default_factory=list)

    @classmethod
    def fresh(cls) -> "RegState":
        return cls(
            gpr=[Undef(I64) for _ in range(16)],
            xmm=[Undef(I128) for _ in range(16)],
            flags={f: Undef(I1_TYPE) for f in "oszapc"},
            gpr_facets=[{} for _ in range(16)],
            xmm_facets=[{} for _ in range(16)],
        )

    def copy(self) -> "RegState":
        return RegState(
            gpr=list(self.gpr),
            xmm=list(self.xmm),
            flags=dict(self.flags),
            gpr_facets=[dict(d) for d in self.gpr_facets],
            xmm_facets=[dict(d) for d in self.xmm_facets],
        )


#: facet-cache effectiveness (Sec. III-C): a hit reuses an already-built
#: facet value, a miss materializes a fresh trunc/bitcast/inttoptr
_FACET_HITS = _metrics.counter("lift.facet_cache.hits")
_FACET_MISSES = _metrics.counter("lift.facet_cache.misses")


class RegFile:
    """Facet-aware access to a RegState through an IRBuilder."""

    def __init__(self, state: RegState, builder: IRBuilder,
                 facet_cache: bool = True) -> None:
        self.state = state
        self.b = builder
        self.facet_cache = facet_cache

    # -- GPR reads ------------------------------------------------------------

    def _gpr_cached(self, index: int, facet: str) -> Value | None:
        if not self.facet_cache:
            return None
        v = self.state.gpr_facets[index].get(facet)
        if v is not None:
            _FACET_HITS.value += 1
        else:
            _FACET_MISSES.value += 1
        return v

    def _gpr_cache(self, index: int, facet: str, value: Value) -> None:
        if self.facet_cache:
            self.state.gpr_facets[index][facet] = value

    def read_gpr(self, index: int, size: int, high8: bool = False) -> Value:
        """Integer facet of a GPR (Fig. 4a: trunc, plus shift for high8)."""
        if high8:
            cached = self._gpr_cached(index, F_I8H)
            if cached is not None:
                return cached
            shifted = self.b.lshr(self.state.gpr[index], Constant(I64, 8))
            v = self.b.trunc(shifted, I8)
            self._gpr_cache(index, F_I8H, v)
            return v
        if size == 8:
            return self.state.gpr[index]
        facet, ty = {4: (F_I32, I32), 2: (F_I16, I16), 1: (F_I8, I8)}[size]
        cached = self._gpr_cached(index, facet)
        if cached is not None:
            return cached
        v = self.b.trunc(self.state.gpr[index], ty)
        self._gpr_cache(index, facet, v)
        return v

    def read_gpr_ptr(self, index: int) -> Value:
        """Pointer facet of a GPR (i8*), materializing inttoptr on demand."""
        cached = self._gpr_cached(index, F_PTR)
        if cached is not None:
            return cached
        v = self.b.inttoptr(self.state.gpr[index], I8P)
        self._gpr_cache(index, F_PTR, v)
        return v

    # -- GPR writes -----------------------------------------------------------

    def write_gpr(self, index: int, value: Value, size: int,
                  high8: bool = False, ptr_facet: Value | None = None) -> None:
        """Write an integer facet per hardware width rules (Fig. 4a)."""
        st = self.state
        if high8:
            ext = self.b.zext(value, I64)
            shifted = self.b.shl(ext, Constant(I64, 8))
            keep = self.b.and_(st.gpr[index], Constant(I64, ~0xFF00))
            st.gpr[index] = self.b.or_(keep, shifted)
            st.gpr_facets[index] = {F_I8H: value}
            return
        if size == 8:
            st.gpr[index] = value
            st.gpr_facets[index] = {}
            if ptr_facet is not None:
                self._gpr_cache(index, F_PTR, ptr_facet)
            return
        if size == 4:
            st.gpr[index] = self.b.zext(value, I64)  # upper half zeroed
            st.gpr_facets[index] = {F_I32: value}
            return
        # 8/16-bit writes preserve the untouched part via masking
        mask = (1 << (size * 8)) - 1
        ext = self.b.zext(value, I64)
        keep = self.b.and_(st.gpr[index], Constant(I64, ~mask))
        st.gpr[index] = self.b.or_(keep, ext)
        st.gpr_facets[index] = {F_I16 if size == 2 else F_I8: value}

    def write_gpr_both(self, index: int, int_value: Value, ptr_value: Value) -> None:
        """lea/add dual write: integer and pointer facet together."""
        self.state.gpr[index] = int_value
        self.state.gpr_facets[index] = {}
        self._gpr_cache(index, F_PTR, ptr_value)

    # -- SSE reads ---------------------------------------------------------------

    def _xmm_cached(self, index: int, facet: str) -> Value | None:
        if not self.facet_cache:
            return None
        v = self.state.xmm_facets[index].get(facet)
        if v is not None:
            _FACET_HITS.value += 1
        else:
            _FACET_MISSES.value += 1
        return v

    def _xmm_cache(self, index: int, facet: str, value: Value) -> None:
        if self.facet_cache:
            self.state.xmm_facets[index][facet] = value

    def read_xmm_vector(self, index: int, facet: str) -> Value:
        """Vector facet via bitcast (Fig. 4c)."""
        cached = self._xmm_cached(index, facet)
        if cached is not None:
            return cached
        v = self.b.bitcast(self.state.xmm[index], _SSE_VEC_TYPE[facet])
        self._xmm_cache(index, facet, v)
        return v

    def read_xmm_f64(self, index: int) -> Value:
        """Scalar double facet via extractelement (Fig. 4b — *not* trunc,
        so the optimizer can track the element's provenance)."""
        cached = self._xmm_cached(index, F_F64)
        if cached is not None:
            return cached
        vec = self.read_xmm_vector(index, F_V2F64)
        v = self.b.extractelement(vec, 0)
        self._xmm_cache(index, F_F64, v)
        return v

    def read_xmm_f64_lane(self, index: int, lane: int) -> Value:
        if lane == 0:
            return self.read_xmm_f64(index)
        vec = self.read_xmm_vector(index, F_V2F64)
        return self.b.extractelement(vec, lane)

    def read_xmm_i64(self, index: int) -> Value:
        """Low 64 bits of an SSE register as an integer."""
        v = self.b.trunc(self.state.xmm[index], I64)
        return v

    def read_xmm_i128(self, index: int) -> Value:
        return self.state.xmm[index]

    # -- SSE writes -----------------------------------------------------------

    def _set_xmm(self, index: int, canonical: Value,
                 facets: dict[str, Value]) -> None:
        self.state.xmm[index] = canonical
        self.state.xmm_facets[index] = dict(facets) if self.facet_cache else {}

    def write_xmm_i128(self, index: int, value: Value,
                       facets: dict[str, Value] | None = None) -> None:
        self._set_xmm(index, value, facets or {})

    def write_xmm_vector(self, index: int, facet: str, value: Value) -> None:
        canonical = self.b.bitcast(value, I128)
        self._set_xmm(index, canonical, {facet: value})
        if facet == F_V2F64:
            pass  # f64 facet will extract lazily from the cached vector

    def write_xmm_f64_low_preserve(self, index: int, value: Value) -> None:
        """Scalar write preserving the upper lane (most SSE scalar ops)."""
        vec = self.read_xmm_vector(index, F_V2F64)
        merged = self.b.insertelement(vec, value, 0)
        canonical = self.b.bitcast(merged, I128)
        self._set_xmm(index, canonical, {F_V2F64: merged, F_F64: value})

    def write_xmm_f64_zero_rest(self, index: int, value: Value) -> None:
        """Scalar write zeroing the upper lane (movsd-from-memory, movq).

        Modeled with insertelement into a zeroinitializer, which the paper
        prefers over integer zero-extension because "the LLVM optimizer has
        problems handling mixed integer and vector operations".
        """
        merged = self.b.insertelement(_zero_vector(), value, 0)
        canonical = self.b.bitcast(merged, I128)
        self._set_xmm(index, canonical, {F_V2F64: merged, F_F64: value})

    def write_xmm_i64_zero_rest(self, index: int, value: Value) -> None:
        """movq r64 -> xmm: zero-extend into the 128-bit register."""
        canonical = self.b.zext(value, I128)
        self._set_xmm(index, canonical, {})

    # -- flags -----------------------------------------------------------------

    def read_flag(self, name: str) -> Value:
        v = self.state.flags[name]
        if not isinstance(v, Value):
            v = self.state.flags[name] = v.force(name)
        return v

    def write_flag(self, name: str, value: Value | FlagRecipe) -> None:
        self.state.flags[name] = value


def scratch_builder(block: BasicBlock) -> IRBuilder:
    """A builder on an empty twin of ``block`` (same function, so names come
    from the same counter).  The lifter only appends while it walks a guest
    block; what has to land *inside* a block afterwards — a flag forced at
    its writer, a facet materialised before a terminator — is built here and
    moved over by :func:`splice`."""
    twin = BasicBlock(block.name)
    twin.function = block.function
    return IRBuilder(twin)


def splice(block: BasicBlock, at: int, built: IRBuilder) -> list[I.Instruction]:
    """Move what ``built`` (a :func:`scratch_builder`) holds to
    ``block.instructions[at:at]``; returns the moved instructions."""
    assert built.block is not None
    new = built.block.instructions
    for ins in new:
        ins.block = block
    block.instructions[at:at] = new
    return new


def _zero_vector() -> Value:
    """<2 x double> zeroinitializer."""
    from repro.ir.values import ConstantFP, ConstantVector

    return ConstantVector(V2F64, (ConstantFP(DOUBLE, 0.0), ConstantFP(DOUBLE, 0.0)))
