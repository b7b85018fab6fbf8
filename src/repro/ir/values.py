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
* **Pickle and deepcopy** never see a use list: ``__getstate__`` and
  ``__deepcopy__`` leave it out (a pickle is the pre-use-list one minus the
  mutation epoch, and older pickles load) and the ``Function`` re-registers
  the body it just loaded or copied.
* **One thread, one module.**  Use lists are single-threaded per function
  like the rest of the IR, and no value other than a type may be shared
  between modules (the verifier rejects a user from another module).
"""

from __future__ import annotations

import functools
from copy import deepcopy
from typing import TYPE_CHECKING

from repro.arith import to_signed
from repro.ir.irtypes import DoubleType, FloatType, IntType, Type

if TYPE_CHECKING:
    from repro.ir.instructions import Instruction

#: slots that never reach a pickle or a deepcopy: derived state, rebuilt
#: (``uses``: by ``Function.__setstate__``) or recomputed on demand, and the
#: mutation epoch, which means nothing to another object
_UNPICKLED = frozenset({"uses", "_preds", "_version", "__weakref__",
                        "__dict__"})


@functools.cache
def state_slots(cls: type) -> tuple[str, ...]:
    """The slot names ``cls`` pickles, most derived class first (the order
    ``object.__getstate__`` uses, so pickles keep their layout)."""
    return tuple(s for k in cls.__mro__
                 for s in k.__dict__.get("__slots__", ())
                 if s not in _UNPICKLED)


class Value:
    """Base of everything that can appear as an operand."""

    __slots__ = ("type", "name", "uses")

    def __init__(self, type_: Type, name: str = "") -> None:
        self.type = type_
        self.name = name
        self.uses: dict[tuple["Instruction", int], None] = {}

    def __getstate__(self) -> tuple[None, dict[str, object]]:
        state = {}
        for slot in state_slots(type(self)):
            try:
                state[slot] = getattr(self, slot)
            except AttributeError:  # a slot this object never set
                pass
        return None, state

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        for slot, value in state[1].items():
            setattr(self, slot, value)
        self.uses = {}

    def __deepcopy__(self, memo: dict) -> "Value":
        """``copy.deepcopy`` slot by slot: the same copy as the generic
        reduce/reconstruct round trip (no use list either), minus the state
        dict it builds and deep-copies per value."""
        cls = type(self)
        twin = memo[id(self)] = cls.__new__(cls)
        twin.uses = {}
        for slot in state_slots(cls):
            try:
                value = getattr(self, slot)
            except AttributeError:
                continue
            setattr(twin, slot, deepcopy(value, memo))
        return twin

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


def is_const_int(v: Value, value: int | None = None) -> bool:
    """True if ``v`` is an integer constant (optionally of a given value)."""
    if not isinstance(v, Constant):
        return False
    return value is None or v.signed == value or v.value == value % (1 << v.type.bits)  # type: ignore[attr-defined]
