"""Three-address code (TAC): the shared pre-allocation representation.

Virtual registers are typed by class: ``'i'`` (64-bit integer/pointer),
``'f'`` (IEEE double), ``'v'`` (128-bit vector of 2 doubles).  Narrower C
integer types exist only at loads/stores and explicit ``ext`` instructions;
everything in registers is 64-bit, mirroring how compilers actually use
x86-64.

Instruction set (op -> semantics):

====================  =========================================================
``li dst, imm``        integer constant
``lf dst, fimm``       double constant (materialized from the rodata pool)
``mov dst, a``         copy (same class)
``add/sub/mul/and/or/xor/shl/shr/sar dst, a, b``  b may be an int immediate
``div/rem dst, a, b``  signed 64-bit division
``neg/not dst, a``     unary integer
``ext dst, a, width, signed``  extend from width bytes to 64
``setcc dst, cc, a, b, signed``  compare -> 0/1
``br cc, a, b, signed, lt, lf``  integer compare & branch
``fbr cc, a, b, lt, lf``         double compare & branch (ucomisd semantics)
``jmp label``
``load dst, addr, width, signed``   integer load
``store addr, a, width``            integer store
``fload dst, addr`` / ``fstore addr, a``   double load/store
``lea dst, addr``      address computation
``fadd/fsub/fmul/fdiv dst, a, b``  double arithmetic
``fneg dst, a``        double negation
``i2f dst, a`` / ``f2i dst, a``    conversions (f2i truncates)
``call dst?, name, iargs, fargs``  direct call (SysV)
``ret a?``             return
``frame dst, slot``    address of a frame object (locals with storage)
``vload dst, addr, aligned`` / ``vstore addr, a, aligned``  2xf64 vector
``vadd/vsub/vmul dst, a, b``  lane-wise vector arithmetic
``vbroadcast dst, a``  f64 -> both lanes
``vlow dst, a``        vector low lane -> f64
``vhigh dst, a``       vector high lane -> f64
``vhadd dst, a``       horizontal sum of lanes -> f64
``vxor/vand/vor dst, a, b``   bitwise 128-bit ops
``vinsert0/vinsert1 dst, a, b``  insert f64 ``b`` into lane of vector ``a``
``vshuf dst, a, b, imm``  shufpd-style lane select
``cmp a, b``           integer compare (sets flags for following cmov)
``cmov dst, cc, a``    conditional move (dst also read!)
``fsetcc dst, cc, a, b``  double compare -> 0/1 (ucomisd semantics)
``bits2f dst, a`` / ``f2bits dst, a``  raw i64 <-> f64 register moves
====================  =========================================================

The ``cmp``+``cmov`` pair must stay adjacent (only register moves in
between); the emitters guarantee any spill reloads they insert are
flag-preserving ``mov``s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union


@dataclass(frozen=True)
class VReg:
    """A typed virtual register."""

    id: int
    cls: str  # 'i', 'f', 'v'

    def __repr__(self) -> str:
        return f"%{self.cls}{self.id}"


#: operand that may be a virtual register or an integer immediate
IntOperand = Union[VReg, int]


@dataclass(frozen=True)
class TAddr:
    """Memory address: base + index*scale + disp."""

    base: Optional[VReg] = None
    index: Optional[VReg] = None
    scale: int = 1
    disp: int = 0

    def regs(self) -> list[VReg]:
        out = []
        if self.base is not None:
            out.append(self.base)
        if self.index is not None:
            out.append(self.index)
        return out

    def __repr__(self) -> str:
        parts = []
        if self.base:
            parts.append(repr(self.base))
        if self.index:
            parts.append(f"{repr(self.index)}*{self.scale}")
        if self.disp:
            parts.append(f"{self.disp:+#x}")
        return "[" + "+".join(parts) + "]"


@dataclass
class TInstr:
    """One TAC instruction (fields used depend on ``op``)."""

    op: str
    dst: Optional[VReg] = None
    a: Optional[IntOperand] = None
    b: Optional[IntOperand] = None
    addr: Optional[TAddr] = None
    width: int = 8
    signed: bool = True
    cc: str = ""
    imm: int = 0
    fimm: float = 0.0
    labels: tuple[str, ...] = ()
    func: str = ""
    iargs: tuple[VReg, ...] = ()
    fargs: tuple[VReg, ...] = ()
    slot: int = -1
    aligned: bool = False

    def uses(self) -> list[VReg]:
        """Virtual registers read by this instruction."""
        out: list[VReg] = []
        for v in (self.a, self.b):
            if isinstance(v, VReg):
                out.append(v)
        if self.addr is not None:
            out.extend(self.addr.regs())
        out.extend(self.iargs)
        out.extend(self.fargs)
        if self.op == "cmov" and self.dst is not None:
            out.append(self.dst)  # read-modify-write destination
        return out

    def defs(self) -> list[VReg]:
        """Virtual registers written by this instruction."""
        return [self.dst] if self.dst is not None else []

    @property
    def is_terminator(self) -> bool:
        return self.op in ("jmp", "br", "fbr", "ret")

    def successor_labels(self) -> tuple[str, ...]:
        return self.labels if self.op in ("jmp", "br", "fbr") else ()

    def __repr__(self) -> str:  # debugging aid
        parts = [self.op]
        if self.dst is not None:
            parts.append(f"{self.dst!r} <-")
        if self.cc:
            parts.append(self.cc)
        for v in (self.a, self.b):
            if v is not None:
                parts.append(repr(v))
        if self.addr is not None:
            parts.append(repr(self.addr))
        if self.op == "li":
            parts.append(str(self.imm))
        if self.op == "lf":
            parts.append(str(self.fimm))
        if self.labels:
            parts.append("->" + ",".join(self.labels))
        if self.func:
            parts.append(f"@{self.func}({', '.join(map(repr, self.iargs + self.fargs))})")
        return " ".join(parts)


@dataclass
class TBlock:
    """A labeled basic block; the last instruction must be a terminator."""

    label: str
    instrs: list[TInstr] = field(default_factory=list)

    @property
    def terminator(self) -> TInstr:
        return self.instrs[-1]


@dataclass
class TFunc:
    """A function in TAC form plus its frame objects."""

    name: str
    blocks: list[TBlock] = field(default_factory=list)
    ret_cls: Optional[str] = None  # 'i', 'f', or None for void
    #: SysV incoming parameters in order, with their vreg homes
    iparams: tuple[VReg, ...] = ()
    fparams: tuple[VReg, ...] = ()
    #: frame objects: slot id -> (size, align)
    frame_objects: dict[int, tuple[int, int]] = field(default_factory=dict)
    _next_vreg: int = 0
    _next_slot: int = 0
    _next_label: int = 0

    def new_vreg(self, cls: str) -> VReg:
        self._next_vreg += 1
        return VReg(self._next_vreg, cls)

    def new_slot(self, size: int, align: int = 8) -> int:
        self._next_slot += 1
        self.frame_objects[self._next_slot] = (size, align)
        return self._next_slot

    def new_label(self, hint: str = "L") -> str:
        self._next_label += 1
        return f".{hint}{self._next_label}"

    def block(self, label: str) -> TBlock:
        blk = TBlock(label)
        self.blocks.append(blk)
        return blk

    def block_map(self) -> dict[str, TBlock]:
        return {b.label: b for b in self.blocks}

    def instructions(self) -> Iterable[TInstr]:
        for blk in self.blocks:
            yield from blk.instrs


#: condition-code inversion map shared by optimizers and emitters
INVERT_CC = {
    "e": "ne", "ne": "e", "l": "ge", "ge": "l", "le": "g", "g": "le",
    "b": "ae", "ae": "b", "be": "a", "a": "be",
}

#: swap-operand map: cc' such that (a cc b) == (b cc' a)
SWAP_CC = {
    "e": "e", "ne": "ne", "l": "g", "g": "l", "le": "ge", "ge": "le",
    "b": "a", "a": "b", "be": "ae", "ae": "be",
}
