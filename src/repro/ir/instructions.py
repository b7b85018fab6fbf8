"""MiniLLVM instructions.

Instructions are values (SSA).  Operands live in ``self.operands`` so
passes can rewrite them uniformly; instruction-specific payload (predicates,
types, incoming blocks, shuffle masks) lives in dedicated attributes.

``operands`` is an :class:`OperandList`: a ``list`` whose mutators keep the
``uses`` of the values it holds exact (see :mod:`repro.ir.values`), behind a
property whose setter does the same for ``ins.operands = [...]`` — no write
to an operand can bypass the use lists.  :meth:`Instruction.erase` is the
one way to remove an instruction.
"""

from __future__ import annotations

import functools
from copy import deepcopy
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.errors import IRError
from repro.ir.irtypes import (
    DOUBLE, FLOAT, I1, IntType, PointerType, Type, VectorType, VOID,
)
from repro.ir.values import Value, state_slots

if TYPE_CHECKING:
    from repro.ir.module import BasicBlock, Function

INT_BINOPS = frozenset({
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
})
FP_BINOPS = frozenset({"fadd", "fsub", "fmul", "fdiv"})
ICMP_PREDS = frozenset({
    "eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge",
})
FCMP_PREDS = frozenset({
    "oeq", "one", "olt", "ole", "ogt", "oge", "ord", "uno",
    "ueq", "une", "ult", "ule", "ugt", "uge",
})
CAST_OPS = frozenset({
    "trunc", "zext", "sext", "bitcast", "inttoptr", "ptrtoint",
    "sitofp", "fptosi", "fpext", "fptrunc", "uitofp",
})


class OperandList(list):
    """The operand slots of one instruction.

    Reads, iteration and unpacking are ``list``'s own; every mutator keeps
    the invariant *slot ``i`` holds ``v``  ⇔  ``(user, i) in v.uses``*.
    ``user`` is the owning instruction, or ``None`` while the list is
    *detached* (a snapshot twin, an erased instruction, a body being
    unpickled): a detached list registers nothing and mutates like a plain
    list.
    """

    __slots__ = ("user",)

    def __deepcopy__(self, memo: dict) -> "OperandList":
        # detached, like an unpickled list: the owning Function attaches
        return _operand_list([deepcopy(v, memo) for v in self], None)

    def register(self, start: int = 0) -> None:
        """Enter slots ``start..`` into the use lists of their values."""
        user = self.user
        for i, v in enumerate(self[start:] if start else self, start):
            v.uses[user, i] = None

    def drop(self, start: int = 0) -> None:
        """Take slots ``start..`` out of the use lists of their values."""
        user = self.user
        for i, v in enumerate(self[start:] if start else self, start):
            del v.uses[user, i]

    def _mutate(self, start: int, op: Callable, *args: object) -> object:
        """Run a ``list`` mutator that may move slots ``start..``."""
        if self.user is None:
            return op(self, *args)
        self.drop(start)
        try:
            return op(self, *args)
        finally:
            self.register(start)

    def _index(self, i: object) -> int:
        """First slot a mutation at ``i`` can move (0 for slices)."""
        if not isinstance(i, int):
            return 0
        return max(i + len(self), 0) if i < 0 else min(i, len(self))

    def __setitem__(self, i, value) -> None:
        user = self.user
        if user is None or not isinstance(i, int):
            self._mutate(0, list.__setitem__, i, value)
            return
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("operand index out of range")
        del self[i].uses[user, i]
        list.__setitem__(self, i, value)
        value.uses[user, i] = None

    def append(self, value: Value) -> None:
        user = self.user
        if user is not None:
            value.uses[user, len(self)] = None
        list.append(self, value)

    def __delitem__(self, i) -> None:
        self._mutate(self._index(i), list.__delitem__, i)

    def pop(self, i: int = -1) -> Value:
        return self._mutate(self._index(i), list.pop, i)

    def insert(self, i: int, value: Value) -> None:
        self._mutate(self._index(i), list.insert, i, value)

    def extend(self, values: Iterable[Value]) -> None:
        self._mutate(len(self), list.extend, values)

    def remove(self, value: Value) -> None:
        self._mutate(0, list.remove, value)

    def clear(self) -> None:
        self._mutate(0, list.clear)

    def reverse(self) -> None:
        self._mutate(0, list.reverse)

    def sort(self, **kw) -> None:
        self._mutate(0, lambda s: list.sort(s, **kw))

    def __iadd__(self, values):
        self.extend(values)
        return self

    def __imul__(self, n):
        self._mutate(0, list.__imul__, n)
        return self


def _operand_list(values: Iterable[Value],
                  user: "Instruction | None") -> OperandList:
    ops = OperandList(values)
    ops.user = user
    return ops


@functools.cache
def _payload_slots(cls: type) -> tuple[str, ...]:
    """What :meth:`Instruction.copy` carries over."""
    return tuple(s for s in state_slots(cls)
                 if s not in ("_operands", "block"))


class Instruction(Value):
    """Base instruction; also an SSA value (possibly of void type)."""

    __slots__ = ("opcode", "_operands", "block", "probe")

    def __init__(self, opcode: str, type_: Type, operands: Sequence[Value],
                 name: str = "") -> None:
        # Value.__init__, inlined: one call less per lifted instruction
        self.type = type_
        self.name = name
        self.uses = {}
        self.opcode = opcode
        ops = self._operands = OperandList(operands)
        ops.user = self
        i = 0
        for v in ops:  # ops.register(), without the call
            v.uses[self, i] = None
            i += 1
        self.block: Optional["BasicBlock"] = None
        #: instrumentation tag: ``None`` for program instructions, a
        #: ``(kind, site)`` pair for probe instructions injected by
        #: ``repro.instrument`` — the marker ``strip_instrumentation``
        #: inverts on and the probe-ops pregate reasons about
        self.probe: Optional[tuple] = None

    @property
    def operands(self) -> OperandList:
        return self._operands

    @operands.setter
    def operands(self, values: Iterable[Value]) -> None:
        # ``ins.operands = [...]``: the new list takes over the old one's
        # attachment, so the assignment cannot leave a use list stale
        old = self._operands
        new = self._operands = _operand_list(values, old.user)
        if old.user is not None:
            old.drop()
            old.user = None
            new.register()

    def __getstate__(self) -> tuple[None, dict[str, object]]:
        state = {}
        for slot in state_slots(type(self)):
            if slot == "_operands":  # a plain list under the seed's key
                state["operands"] = list(self._operands)
            else:
                state[slot] = getattr(self, slot)
        return None, state

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        for slot, value in state[1].items():
            if slot == "operands":
                # detached until Function.__setstate__ has the whole body
                self._operands = _operand_list(value, None)
            else:
                setattr(self, slot, value)
        self.uses = {}

    @property
    def is_terminator(self) -> bool:
        return self.opcode in ("br", "ret", "unreachable")

    def attach(self) -> None:
        """Register the operand slots (a snapshot body going live)."""
        ops = self._operands
        if ops.user is None:
            ops.user = self
            ops.register()

    def detach(self) -> None:
        """Unregister the operand slots; operands stay readable."""
        ops = self._operands
        if ops.user is not None:
            ops.drop()
            ops.user = None

    def erase(self) -> None:
        """Remove this instruction for good: its operand slots leave the
        use lists and it leaves its block.  Its own ``uses`` are the
        caller's business (RAUW first, or erase the users too)."""
        ops = self._operands
        if ops.user is not None:
            i = 0
            for v in ops:  # ops.drop(), without the calls: DCE erases most
                del v.uses[self, i]  # of what the lifter emits
                i += 1
            ops.user = None
        blk = self.block
        if blk is not None:
            blk.instructions.remove(self)
            self.block = None

    def copy(self, block: "BasicBlock") -> "Instruction":
        """A detached twin for ``block``: same class, payload (probe tag
        included) and operand values, its own payload lists (branch
        targets, incoming blocks), registered in no use list until
        :meth:`attach`."""
        cls = type(self)
        c = cls.__new__(cls)
        for slot in _payload_slots(cls):
            value = getattr(self, slot)
            setattr(c, slot, list(value) if type(value) is list else value)
        c.uses = {}
        ops = c._operands = OperandList(self._operands)
        ops.user = None
        c.block = block
        return c

    def replace_operand(self, old: Value, new: Value) -> None:
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new

    def successors(self) -> "list[BasicBlock]":
        return []


    def __repr__(self) -> str:
        from repro.ir.printer import print_instruction
        return print_instruction(self)


class BinOp(Instruction):
    __slots__ = ()

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if opcode not in INT_BINOPS and opcode not in FP_BINOPS:
            raise IRError(f"bad binop {opcode}")
        super().__init__(opcode, lhs.type, (lhs, rhs), name)


class ICmp(Instruction):
    __slots__ = ("pred",)

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if pred not in ICMP_PREDS:
            raise IRError(f"bad icmp predicate {pred}")
        super().__init__("icmp", I1, (lhs, rhs), name)
        self.pred = pred


class FCmp(Instruction):
    __slots__ = ("pred",)

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if pred not in FCMP_PREDS:
            raise IRError(f"bad fcmp predicate {pred}")
        super().__init__("fcmp", I1, (lhs, rhs), name)
        self.pred = pred


class Select(Instruction):
    __slots__ = ()

    def __init__(self, cond: Value, a: Value, b: Value, name: str = "") -> None:
        super().__init__("select", a.type, (cond, a, b), name)


class Cast(Instruction):
    __slots__ = ()

    def __init__(self, opcode: str, value: Value, to: Type, name: str = "") -> None:
        if opcode not in CAST_OPS:
            raise IRError(f"bad cast {opcode}")
        super().__init__(opcode, to, (value,), name)


class Load(Instruction):
    __slots__ = ("align",)

    def __init__(self, pointer: Value, name: str = "", align: int = 1) -> None:
        if not isinstance(pointer.type, PointerType):
            raise IRError(f"load from non-pointer {pointer.type}")
        super().__init__("load", pointer.type.pointee, (pointer,), name)
        self.align = align


class Store(Instruction):
    __slots__ = ("align",)

    def __init__(self, value: Value, pointer: Value, align: int = 1) -> None:
        if not isinstance(pointer.type, PointerType):
            raise IRError(f"store to non-pointer {pointer.type}")
        super().__init__("store", VOID, (value, pointer))
        self.align = align


class Alloca(Instruction):
    """Stack allocation of ``size`` bytes (the virtual stack of Sec. III-F)."""

    __slots__ = ("size", "align")

    def __init__(self, pointee: Type, size: int, align: int = 16,
                 name: str = "") -> None:
        super().__init__("alloca", PointerType(pointee), (), name)
        self.size = size
        self.align = align


class GEP(Instruction):
    """Single-index getelementptr: result = ptr + index * sizeof(elem)."""

    __slots__ = ("elem",)

    def __init__(self, pointer: Value, index: Value, name: str = "",
                 elem: Type | None = None) -> None:
        pt = pointer.type
        if not isinstance(pt, PointerType):
            raise IRError(f"gep on non-pointer {pt}")
        elem = elem or pt.pointee
        super().__init__("gep", PointerType(elem, pt.addrspace), (pointer, index), name)
        self.elem = elem


class ExtractElement(Instruction):
    __slots__ = ()

    def __init__(self, vec: Value, index: Value, name: str = "") -> None:
        if not isinstance(vec.type, VectorType):
            raise IRError(f"extractelement on {vec.type}")
        super().__init__("extractelement", vec.type.elem, (vec, index), name)


class InsertElement(Instruction):
    __slots__ = ()

    def __init__(self, vec: Value, value: Value, index: Value, name: str = "") -> None:
        if not isinstance(vec.type, VectorType):
            raise IRError(f"insertelement on {vec.type}")
        super().__init__("insertelement", vec.type, (vec, value, index), name)


class ShuffleVector(Instruction):
    __slots__ = ("mask",)

    def __init__(self, a: Value, b: Value, mask: tuple[int, ...],
                 name: str = "") -> None:
        if not isinstance(a.type, VectorType):
            raise IRError(f"shufflevector on {a.type}")
        result = VectorType(a.type.elem, len(mask))
        super().__init__("shufflevector", result, (a, b), name)
        self.mask = mask


class Phi(Instruction):
    """Phi node; ``incoming_blocks[i]`` pairs with ``operands[i]``."""

    __slots__ = ("incoming_blocks",)

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__("phi", type_, (), name)
        self.incoming_blocks: list["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type is not self.type and value.type != self.type:
            raise IRError(
                f"phi {self.short()} incoming type {value.type} != {self.type}"
            )
        self.operands.append(value)
        self.incoming_blocks.append(block)

    def incoming(self) -> list[tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for(self, block: "BasicBlock") -> Value | None:
        for v, b in zip(self.operands, self.incoming_blocks):
            if b is block:
                return v
        return None

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i, b in enumerate(self.incoming_blocks):
            if b is block:
                del self.incoming_blocks[i]
                del self.operands[i]
                return


class Call(Instruction):
    __slots__ = ("callee", "intrinsic")

    def __init__(self, callee: "Function | str", args: Sequence[Value],
                 ret_type: Type, name: str = "") -> None:
        super().__init__("call", ret_type, args, name)
        self.callee = callee  # Function object or intrinsic name string
        self.intrinsic = isinstance(callee, str)

    @property
    def callee_name(self) -> str:
        if isinstance(self.callee, str):
            return self.callee
        return self.callee.name


class Br(Instruction):
    """Conditional or unconditional branch."""

    __slots__ = ("targets",)

    def __init__(self, cond: Value | None, then: "BasicBlock",
                 otherwise: "BasicBlock | None" = None) -> None:
        if cond is None:
            super().__init__("br", VOID, ())
            self.targets: list["BasicBlock"] = [then]
        else:
            if otherwise is None:
                raise IRError("conditional branch needs two targets")
            super().__init__("br", VOID, (cond,))
            self.targets = [then, otherwise]

    @property
    def is_conditional(self) -> bool:
        return len(self.targets) == 2

    @property
    def condition(self) -> Value | None:
        return self.operands[0] if self.operands else None

    def successors(self) -> "list[BasicBlock]":
        return list(self.targets)

    def replace_target(self, old: "BasicBlock", new: "BasicBlock") -> None:
        self.targets = [new if t is old else t for t in self.targets]


class Ret(Instruction):
    __slots__ = ()

    def __init__(self, value: Value | None = None) -> None:
        super().__init__("ret", VOID, (value,) if value is not None else ())

    @property
    def value(self) -> Value | None:
        return self.operands[0] if self.operands else None


class Unreachable(Instruction):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("unreachable", VOID, ())


PURE_INTRINSICS = ("llvm.ctpop", "llvm.sqrt", "llvm.fabs")


def is_dce_safe(ins: Instruction) -> bool:
    """Safe to delete when the result is unused (loads are non-volatile,
    Sec. III-E: 'reordering or elimination of these instructions may occur')."""
    if isinstance(ins, Call):
        return ins.intrinsic and ins.callee_name.startswith(PURE_INTRINSICS)
    return ins.opcode not in ("store", "ret", "br", "unreachable")
