"""MiniLLVM type system.

Interned immutable types; compare with ``is`` or ``==`` (both work — the
constructors memoize).  A type is never copied: a copy of IR
(``ir.module.clone_region``) shares its types with the original.  Sizes
follow the x86-64 data layout the paper assumes: pointers are 64-bit,
doubles 8 bytes, vectors dense.
"""

from __future__ import annotations

from typing import ClassVar


class Type:
    """Base class; subclasses are interned."""

    def size_bytes(self) -> int:
        raise NotImplementedError

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, (DoubleType, FloatType))

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_vector(self) -> bool:
        return isinstance(self, VectorType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)


class VoidType(Type):
    _instance: ClassVar["VoidType | None"] = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def size_bytes(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "void"


class IntType(Type):
    _cache: ClassVar[dict[int, "IntType"]] = {}

    def __new__(cls, bits: int) -> "IntType":
        inst = cls._cache.get(bits)
        if inst is None:
            if bits not in (1, 8, 16, 32, 64, 128):
                raise ValueError(f"unsupported integer width i{bits}")
            inst = super().__new__(cls)
            inst.bits = bits
            cls._cache[bits] = inst
        return inst

    bits: int

    def size_bytes(self) -> int:
        return max(1, self.bits // 8)

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def __repr__(self) -> str:
        return f"i{self.bits}"


class DoubleType(Type):
    _instance: ClassVar["DoubleType | None"] = None

    def __new__(cls) -> "DoubleType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def size_bytes(self) -> int:
        return 8

    def __repr__(self) -> str:
        return "double"


class FloatType(Type):
    _instance: ClassVar["FloatType | None"] = None

    def __new__(cls) -> "FloatType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def size_bytes(self) -> int:
        return 4

    def __repr__(self) -> str:
        return "float"


class PointerType(Type):
    _cache: ClassVar[dict[tuple[int, int], "PointerType"]] = {}

    def __new__(cls, pointee: Type, addrspace: int = 0) -> "PointerType":
        key = (id(pointee), addrspace)
        inst = cls._cache.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.pointee = pointee
            inst.addrspace = addrspace
            cls._cache[key] = inst
        return inst

    pointee: Type
    addrspace: int

    def size_bytes(self) -> int:
        return 8

    def __repr__(self) -> str:
        if self.addrspace:
            return f"{self.pointee} addrspace({self.addrspace})*"
        return f"{self.pointee}*"


class VectorType(Type):
    _cache: ClassVar[dict[tuple[int, int], "VectorType"]] = {}

    def __new__(cls, elem: Type, count: int) -> "VectorType":
        key = (id(elem), count)
        inst = cls._cache.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.elem = elem
            inst.count = count
            cls._cache[key] = inst
        return inst

    elem: Type
    count: int

    def size_bytes(self) -> int:
        return self.elem.size_bytes() * self.count

    def __repr__(self) -> str:
        return f"<{self.count} x {self.elem}>"


class FunctionType(Type):
    def __init__(self, ret: Type, params: tuple[Type, ...]) -> None:
        self.ret = ret
        self.params = params

    def size_bytes(self) -> int:
        raise TypeError("function types have no size")

    def __repr__(self) -> str:
        return f"{self.ret} ({', '.join(map(repr, self.params))})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FunctionType) and other.ret is self.ret
                and other.params == self.params)

    def __hash__(self) -> int:
        return hash((id(self.ret), tuple(id(p) for p in self.params)))


VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
I128 = IntType(128)
DOUBLE = DoubleType()
FLOAT = FloatType()
V2F64 = VectorType(DOUBLE, 2)
V4F32 = VectorType(FLOAT, 4)
V2I64 = VectorType(I64, 2)
V4I32 = VectorType(I32, 4)


def ptr(pointee: Type, addrspace: int = 0) -> PointerType:
    """Shorthand pointer constructor."""
    return PointerType(pointee, addrspace)
