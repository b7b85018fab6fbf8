"""Architectural CPU state: GPRs, SSE registers, RFLAGS, RIP.

Registers are stored exactly as the paper's lifter models them (Sec. III-C):
GPRs as 64-bit unsigned ints, SSE registers as 128-bit unsigned ints, and
the six status flags as individual booleans.  Facet access (al/ah/eax/...)
is implemented here once and reused by the interpreter and by DBrew's
emulator meta-state.
"""

from __future__ import annotations

MASK8 = 0xFF
MASK16 = 0xFFFF
MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
MASK128 = (1 << 128) - 1


class CPUState:
    """Mutable architectural state."""

    __slots__ = ("gpr", "xmm", "rip", "cf", "zf", "sf", "of", "pf", "af",
                 "taken", "unaligned16")

    def __init__(self) -> None:
        self.gpr: list[int] = [0] * 16
        self.xmm: list[int] = [0] * 16
        self.rip: int = 0
        self.cf = self.zf = self.sf = self.of = self.pf = self.af = False
        #: event counters for the cost model, bumped by the instruction
        #: semantics: conditional branches taken, and accesses through a
        #: 16-byte memory operand at a misaligned address
        self.taken = 0
        self.unaligned16 = 0

    # -- GPR facets ----------------------------------------------------------

    def read_gp(self, index: int, size: int, high8: bool = False) -> int:
        v = self.gpr[index]
        if high8:
            return (v >> 8) & MASK8
        if size == 8:
            return v
        return v & ((1 << (size * 8)) - 1)

    def write_gp(self, index: int, value: int, size: int, high8: bool = False) -> None:
        if high8:
            self.gpr[index] = (self.gpr[index] & ~0xFF00) | ((value & MASK8) << 8)
        elif size == 8:
            self.gpr[index] = value & MASK64
        elif size == 4:
            # 32-bit writes zero the upper half (Fig. 4a)
            self.gpr[index] = value & MASK32
        else:
            mask = (1 << (size * 8)) - 1
            self.gpr[index] = (self.gpr[index] & ~mask) | (value & mask)

    # -- flags ---------------------------------------------------------------

    def flag(self, name: str) -> bool:
        return bool(getattr(self, name + "f"))

    def set_flag(self, name: str, value: bool) -> None:
        setattr(self, name + "f", bool(value))

    def flags_byte(self) -> str:
        """Debug rendering like 'osz.p.'."""
        return "".join(
            n if self.flag(n) else "."
            for n in ("o", "s", "z", "a", "p", "c")
        )
