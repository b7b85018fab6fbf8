"""MiniLLVM values: the SSA value hierarchy below instructions.

``Value`` carries a type, an optional name and its **use list**:
``uses`` maps every operand slot that currently holds the value, as a
``(user instruction, operand index)`` key, to ``None`` (a dict for O(1)
removal and a deterministic order; nothing may depend on that order).  The
list is kept exact by the operand container itself —
:class:`repro.ir.instructions.OperandList` registers and unregisters on
every write — so ``Function.replace_all_uses`` walks the uses it rewrites
instead of the function, and ``ir.verifier.verify`` recomputes the slots
from ``operands`` and compares.  Only ``ir/values.py`` and
``ir/instructions.py`` write to ``uses``.

Three rules keep a shared value (an ``Argument``, a global, a constant)
from collecting users it should not have:

* **Detached snapshots.**  ``analysis.clone.clone_function`` twins share
  the live body's arguments and externals but register nowhere;
  ``restore_function`` detaches the rejected body and attaches the
  snapshot's.  An erased instruction is detached the same way.
* **One copy operation.**  ``Module.copy`` and ``clone_function`` are the
  only ways to copy IR: bodies through ``ir.module.clone_region``
  (``Instruction.copy``), leaves through :func:`fresh_leaf`.  Both carry
  the :func:`state_slots` of an object over and start its copy with an
  empty use list.
* **One thread, one module.**  Use lists are single-threaded per function
  like the rest of the IR, and no value other than a type may be shared
  between modules (the verifier rejects a user from another module).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from repro.arith import to_signed
from repro.ir.irtypes import DoubleType, FloatType, IntType, Type

if TYPE_CHECKING:
    from repro.ir.instructions import Instruction

#: slots a clone does not carry over: derived state, rebuilt by the copy
#: (``uses``) or recomputed on demand, the mutation epoch and the change
#: journal, which mean nothing to another object
_NOT_CLONED = frozenset({"uses", "_preds", "_version", "_changes",
                         "__weakref__", "__dict__"})


@functools.cache
def state_slots(cls: type) -> tuple[str, ...]:
    """The slot names a clone of a ``cls`` object carries over, most
    derived class first."""
    return tuple(s for k in cls.__mro__
                 for s in k.__dict__.get("__slots__", ())
                 if s not in _NOT_CLONED)


class Value:
    """Base of everything that can appear as an operand."""

    __slots__ = ("type", "name", "uses")

    def __init__(self, type_: Type, name: str = "") -> None:
        self.type = type_
        self.name = name
        self.uses: dict[tuple["Instruction", int], None] = {}

    def short(self) -> str:
        return f"%{self.name}" if self.name else "%?"

    def __repr__(self) -> str:
        return f"{self.type} {self.short()}"


class Constant(Value):
    """Integer constant (stored unsigned-masked to the type width)."""

    __slots__ = ("value",)

    def __init__(self, type_: Type, value: int) -> None:
        if not isinstance(type_, IntType):
            raise TypeError(f"Constant requires an integer type, got {type_}")
        super().__init__(type_)
        self.value = value & type_.mask

    @property
    def signed(self) -> int:
        return to_signed(self.value, self.type.bits)  # type: ignore[attr-defined]

    def short(self) -> str:
        return str(self.signed)

    def __repr__(self) -> str:
        return f"{self.type} {self.signed}"


class ConstantFP(Value):
    """Floating-point constant."""

    __slots__ = ("value",)

    def __init__(self, type_: Type, value: float) -> None:
        if not isinstance(type_, (DoubleType, FloatType)):
            raise TypeError(f"ConstantFP requires a float type, got {type_}")
        super().__init__(type_)
        self.value = float(value)

    def short(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return f"{self.type} {self.value!r}"


class ConstantVector(Value):
    """A constant vector (e.g. ``<2 x double> zeroinitializer``)."""

    __slots__ = ("elements",)

    def __init__(self, type_: Type, elements: tuple[Value, ...]) -> None:
        super().__init__(type_)
        self.elements = elements

    def short(self) -> str:
        if all(isinstance(e, ConstantFP) and e.value == 0.0 for e in self.elements) \
                or all(isinstance(e, Constant) and e.value == 0 for e in self.elements):
            return "zeroinitializer"
        return "<" + ", ".join(repr(e) for e in self.elements) + ">"


class Undef(Value):
    """The undef value — unwritten registers lift to this (Sec. III-C)."""

    __slots__ = ()

    def short(self) -> str:
        return "undef"

    def __repr__(self) -> str:
        return f"{self.type} undef"


class Argument(Value):
    """A formal function parameter."""

    __slots__ = ("index",)

    def __init__(self, type_: Type, index: int, name: str = "") -> None:
        super().__init__(type_, name or f"arg{index}")
        self.index = index


def fresh_leaf(v: Value, vmap: dict[int, Value]) -> Value:
    """A user-less copy of the leaf value ``v`` (a global, an argument, a
    constant), entered in ``vmap``; a vector's elements are copied too.
    What ``Module.copy`` makes fresh, so that no value is shared between
    two modules."""
    cls = type(v)
    twin = vmap[id(v)] = cls.__new__(cls)
    for slot in state_slots(cls):
        setattr(twin, slot, getattr(v, slot))
    twin.uses = {}
    if cls is ConstantVector:
        twin.elements = tuple(  # type: ignore[attr-defined]
            vmap[id(e)] if id(e) in vmap else fresh_leaf(e, vmap)
            for e in v.elements)  # type: ignore[attr-defined]
    return twin
