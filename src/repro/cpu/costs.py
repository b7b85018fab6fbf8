"""Cycle cost model for the simulator.

The model is a serialized latency/throughput hybrid: every instruction has a
base cost, memory reads/writes add fixed penalties, taken branches add a
redirect penalty, and 16-byte accesses that are not 16-byte aligned pay an
unaligned penalty (the mechanism behind the paper's "LLVM-forced
vectorization is 23% slower than GCC's aligned loops" observation).

Absolute cycle counts are *not* meant to match Haswell; only the relative
ordering of code variants matters for the reproduction (see DESIGN.md §2).
The default numbers are loosely Agner-Fog-shaped for Haswell.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.x86 import isa
from repro.x86.instr import Instruction, Mem

#: default per-mnemonic base cost in cycles
_BASE_COSTS: dict[str, float] = {
    # integer
    "mov": 1, "movzx": 1, "movsx": 1, "movsxd": 1, "lea": 1,
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1, "cmp": 1, "test": 1,
    "adc": 1, "sbb": 1, "inc": 1, "dec": 1, "neg": 1, "not": 1,
    "shl": 1, "shr": 1, "sar": 1, "rol": 1, "ror": 1,
    "imul": 3, "mul": 3, "idiv": 25, "div": 25, "cqo": 1, "cdq": 1,
    "push": 1, "pop": 1, "leave": 2, "nop": 0.25,
    # control
    "jmp": 1, "call": 3, "ret": 2,
    # SSE moves / logic
    "movsd": 1, "movss": 1, "movapd": 1, "movaps": 1, "movupd": 1,
    "movups": 1, "movq": 1, "movd": 1, "movlpd": 1, "movhpd": 1,
    "pxor": 1, "por": 1, "pand": 1, "pandn": 1,
    "xorpd": 1, "xorps": 1, "andpd": 1, "andps": 1, "orpd": 1, "orps": 1,
    "unpcklpd": 1, "unpckhpd": 1, "unpcklps": 1, "unpckhps": 1,
    "shufpd": 1, "pshufd": 1,
    # SSE arithmetic (scalar and packed cost the same -> packed does 2x work)
    "addsd": 3, "subsd": 3, "mulsd": 5, "divsd": 20, "sqrtsd": 20,
    "minsd": 3, "maxsd": 3,
    "addss": 3, "subss": 3, "mulss": 5, "divss": 14, "sqrtss": 14,
    "addpd": 3, "subpd": 3, "mulpd": 5, "divpd": 28, "sqrtpd": 28,
    "minpd": 3, "maxpd": 3, "haddpd": 5,
    "addps": 3, "subps": 3, "mulps": 5, "divps": 14,
    "paddq": 1, "paddd": 1, "paddw": 1, "paddb": 1, "psubq": 1, "psubd": 1,
    "pcmpeqd": 1, "pcmpeqb": 1, "pmuludq": 5,
    # conversions / compares
    "cvtsi2sd": 4, "cvtsi2ss": 4, "cvttsd2si": 4, "cvtsd2si": 4,
    "cvttss2si": 4, "cvtss2si": 4, "cvtsd2ss": 4, "cvtss2sd": 2,
    "ucomisd": 2, "comisd": 2, "ucomiss": 2, "comiss": 2,
    "int3": 0, "ud2": 0, "syscall": 100,
}
for _m in isa.CC_NAMES:
    _BASE_COSTS[f"j{_m}"] = 1
    _BASE_COSTS[f"cmov{_m}"] = 1
    _BASE_COSTS[f"set{_m}"] = 1


@dataclass(frozen=True)
class CostModel:
    """Parameterized cycle cost model.

    ``base`` may be partially overridden via :meth:`with_overrides`, which
    the ablation benchmarks use to test the sensitivity of the reproduced
    figures to individual cost assumptions.
    """

    base: dict[str, float] = field(default_factory=lambda: dict(_BASE_COSTS))
    load_penalty: float = 3.0
    store_penalty: float = 1.0
    taken_branch_penalty: float = 1.0
    unaligned16_penalty: float = 2.0
    clock_ghz: float = 3.5
    #: calibration from *serialized* simulated cycles to Haswell wall time:
    #: a 4-wide out-of-order core overlaps most of the latencies this model
    #: adds up.  The single constant is fitted so the hard-coded element
    #: kernel lands at the paper's 10.54s; it rescales the seconds axis only
    #: and cancels out of every ratio the reproduction argues about.
    effective_parallelism: float = 47.0

    def with_overrides(self, **kwargs: float) -> "CostModel":
        """Return a copy with scalar parameters replaced."""
        return replace(self, **kwargs)

    def with_base(self, overrides: dict[str, float]) -> "CostModel":
        """Return a copy with per-mnemonic base costs replaced."""
        merged = dict(self.base)
        merged.update(overrides)
        return replace(self, base=merged)

    def static_cost(self, ins: Instruction) -> float:
        """Cycles every dynamic instance of ``ins`` pays: base cost plus
        the load/store penalty of its memory operand or stack access."""
        cost = self.base.get(ins.mnemonic)
        if cost is None:
            cost = 1.0
        mem = next((o for o in ins.operands if isinstance(o, Mem)), None)
        if mem is not None and ins.mnemonic != "lea":
            is_store = ins.operands and ins.operands[0] is mem
            cost += self.store_penalty if is_store else self.load_penalty
        if ins.mnemonic in ("push", "pop", "call", "ret"):
            cost += self.store_penalty if ins.mnemonic in ("push", "call") else self.load_penalty
        return cost

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert simulated cycles to calibrated wall seconds."""
        return cycles / (self.clock_ghz * 1e9 * self.effective_parallelism)


#: the default model used by the benchmark harness
HASWELL = CostModel()
