"""Type system for the MCC C subset.

Types are interned value objects.  Integer widths follow LP64:
``char``=1, ``int``=4, ``long``=8; pointers are 8 bytes.  Struct layout is
delegated to :mod:`repro.mem.layout` so compiled code and hand-built data
structures agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CompileError
from repro.mem.layout import StructLayout


@dataclass(frozen=True)
class CType:
    kind: str  # 'void', 'int', 'double', 'float', 'ptr', 'struct', 'func', 'array'
    size: int
    signed: bool = True
    pointee: "CType | None" = None
    struct: "StructType | None" = None
    ret: "CType | None" = None
    params: tuple["CType", ...] = ()
    elem: "CType | None" = None
    count: int = 0

    @property
    def is_integer(self) -> bool:
        return self.kind == "int"

    @property
    def is_float(self) -> bool:
        return self.kind in ("double", "float")

    @property
    def is_pointer(self) -> bool:
        return self.kind == "ptr"

    @property
    def is_scalar(self) -> bool:
        return self.kind in ("int", "double", "float", "ptr")

    def __str__(self) -> str:
        if self.kind == "int":
            base = {1: "char", 2: "short", 4: "int", 8: "long"}[self.size]
            return base if self.signed else f"unsigned {base}"
        if self.kind == "ptr":
            return f"{self.pointee}*"
        if self.kind == "struct":
            assert self.struct is not None
            return f"struct {self.struct.name}"
        if self.kind == "array":
            return f"{self.elem}[{self.count or ''}]"
        if self.kind == "func":
            return f"{self.ret}({', '.join(map(str, self.params))})"
        return self.kind


VOID = CType("void", 0)
CHAR = CType("int", 1)
UCHAR = CType("int", 1, signed=False)
INT = CType("int", 4)
UINT = CType("int", 4, signed=False)
LONG = CType("int", 8)
ULONG = CType("int", 8, signed=False)
DOUBLE = CType("double", 8)
FLOAT = CType("float", 4)


def pointer_to(t: CType) -> CType:
    return CType("ptr", 8, pointee=t)


def array_of(t: CType, count: int) -> CType:
    return CType("array", t.size * count, elem=t, count=count)


class StructType:
    """A named struct with member types and a computed SysV layout."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.members: list[tuple[str, CType, int]] = []  # (name, type, count)
        self.layout: StructLayout | None = None
        self.ctype = CType("struct", 0, struct=self)

    def define(self, members: list[tuple[str, CType, int]]) -> None:
        """Fill in the member list and compute the layout (count 0 = flexible)."""
        if self.layout is not None:
            raise CompileError(f"struct {self.name} redefined")
        self.members = members
        layout_members: list[tuple[str, str | StructLayout, int]] = []
        for mname, mtype, count in members:
            layout_members.append((mname, _layout_kind(mtype), count))
        try:
            self.layout = StructLayout(self.name, layout_members)
        except ValueError as exc:
            raise CompileError(f"struct {self.name}: {exc}") from None
        object.__setattr__(self.ctype, "size", self.layout.size)

    def member(self, name: str) -> tuple[CType, int]:
        """Return (type, byte offset) of a member; arrays decay later."""
        if self.layout is None:
            raise CompileError(f"struct {self.name} is incomplete")
        for mname, mtype, count in self.members:
            if mname == name:
                field_ = self.layout.fields[name]
                if count != 1:
                    return array_of(mtype, count), field_.offset
                return mtype, field_.offset
        raise CompileError(f"struct {self.name} has no member {name!r}")


def _layout_kind(t: CType) -> str | StructLayout:
    if t.kind == "int":
        return {1: "char", 2: "short", 4: "int", 8: "long"}[t.size]
    if t.kind == "double":
        return "double"
    if t.kind == "float":
        return "float"
    if t.kind == "ptr":
        return "ptr"
    if t.kind == "struct":
        assert t.struct is not None
        if t.struct.layout is None:
            raise CompileError(f"member of incomplete struct {t.struct.name}")
        return t.struct.layout
    raise CompileError(f"type {t} not allowed in struct")


def common_arith_type(a: CType, b: CType) -> CType:
    """Usual arithmetic conversions (subset: int widths + double)."""
    if a.kind == "double" or b.kind == "double":
        return DOUBLE
    if a.kind == "float" or b.kind == "float":
        return FLOAT if (a.kind != "double" and b.kind != "double") else DOUBLE
    if a.is_integer and b.is_integer:
        size = max(a.size, b.size, 4)  # integer promotion to >= int
        signed = a.signed if a.size >= b.size else b.signed
        if a.size == b.size:
            signed = a.signed and b.signed
        return CType("int", size, signed=signed)
    raise CompileError(f"invalid operands: {a} and {b}")
