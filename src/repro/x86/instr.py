"""Operand and instruction model for the x86-64 subset.

Three operand kinds cover the supported ISA subset:

* :class:`Reg` — a view of a GPR (1/2/4/8 bytes, optionally high-byte) or an
  SSE register (16 bytes);
* :class:`Imm` — an immediate with an explicit encoded width;
* :class:`Mem` — ``[base + index*scale + disp]`` with an access size; the
  special form without base and index is 32-bit absolute addressing, and
  ``riprel=True`` marks RIP-relative addressing.

Instances are immutable so they can be shared freely between the decoder
cache, DBrew's emulator, and the lifter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from repro.x86 import registers


@dataclass(frozen=True)
class Reg:
    """A register operand: an access-width view of an architectural register."""

    kind: str  # 'gp' or 'xmm'
    index: int
    size: int  # access width in bytes: 1/2/4/8 for gp, 4/8/16 for xmm
    high8: bool = False

    def __post_init__(self) -> None:
        if self.kind == "gp":
            if self.size not in (1, 2, 4, 8):
                raise ValueError(f"bad GPR size {self.size}")
            if self.high8 and (self.size != 1 or self.index >= 4):
                raise ValueError("high8 only valid for al..bl positions")
        elif self.kind == "xmm":
            if self.size not in (4, 8, 16):
                raise ValueError(f"bad XMM size {self.size}")
        else:
            raise ValueError(f"bad register kind {self.kind}")
        if not 0 <= self.index < 16:
            raise ValueError(f"bad register index {self.index}")

    @property
    def name(self) -> str:
        if self.kind == "xmm":
            return registers.xmm_name(self.index)
        return registers.gp_name(self.index, self.size, self.high8)

    def with_size(self, size: int) -> "Reg":
        """The same architectural register viewed at a different width."""
        return replace(self, size=size, high8=False)

    def __repr__(self) -> str:  # compact, used heavily in test diffs
        return f"Reg({self.name})"


def gp(index: int, size: int = 8, high8: bool = False) -> Reg:
    """Construct a GPR operand (defaults to the 64-bit view)."""
    return Reg("gp", index, size, high8)


def xmm(index: int, size: int = 16) -> Reg:
    """Construct an SSE register operand (defaults to the full 128-bit view)."""
    return Reg("xmm", index, size)


@dataclass(frozen=True)
class Imm:
    """An immediate operand.

    ``value`` is stored as a Python int (signed interpretation left to the
    consumer); ``size`` is the width the encoder must use in bytes.  A size
    of 0 lets the encoder pick the smallest legal encoding.
    """

    value: int
    size: int = field(default=0, compare=False)

    def __repr__(self) -> str:
        return f"Imm({self.value:#x})" if abs(self.value) > 9 else f"Imm({self.value})"


@dataclass(frozen=True)
class Mem:
    """A memory operand ``seg:[base + index*scale + disp]``.

    ``size`` is the access width in bytes.  ``riprel`` marks RIP-relative
    addressing where ``disp`` holds the *absolute target address* (the
    encoder converts it to a relative displacement; keeping the absolute
    address makes rewriting relocations explicit).  ``seg`` is ``''`` or
    one of ``'fs'``/``'gs'`` — the paper maps those to IR address spaces
    257/256 respectively.
    """

    size: int
    base: Reg | None = None
    index: Reg | None = None
    scale: int = 1
    disp: int = 0
    riprel: bool = False
    seg: str = ""

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"bad scale {self.scale}")
        if self.index is None and self.scale != 1:
            object.__setattr__(self, "scale", 1)  # scale is meaningless without index
        if self.index is not None and self.index.index == registers.RSP:
            raise ValueError("rsp cannot be an index register")
        if self.riprel and (self.base is not None or self.index is not None):
            raise ValueError("RIP-relative addressing takes no registers")
        if self.seg not in ("", "fs", "gs"):
            raise ValueError(f"bad segment override {self.seg!r}")

    @property
    def is_absolute(self) -> bool:
        """True for bare ``[disp32]`` absolute addressing."""
        return self.base is None and self.index is None and not self.riprel


Operand = Union[Reg, Imm, Mem]


@dataclass(frozen=True)
class Instruction:
    """One decoded or to-be-encoded instruction.

    ``addr`` and ``length`` are filled in by the decoder (and by
    :func:`repro.x86.asm.assemble_full`); for hand-built instructions
    they stay 0 until encoding assigns them.
    """

    mnemonic: str
    operands: tuple[Operand, ...] = ()
    addr: int = 0
    length: int = 0
    raw: bytes = field(default=b"", compare=False)
    #: where :func:`repro.x86.effects.effects_of` keeps its record
    _effects: object = field(default=None, init=False, repr=False,
                             compare=False)

    def __repr__(self) -> str:
        ops = ", ".join(repr(o) for o in self.operands)
        return f"<{self.mnemonic} {ops}>" if ops else f"<{self.mnemonic}>"

    @property
    def end(self) -> int:
        """Address of the next sequential instruction."""
        return self.addr + self.length


def make(mnemonic: str, *operands: Operand) -> Instruction:
    """Convenience constructor used by code generators."""
    return Instruction(mnemonic, tuple(operands))
