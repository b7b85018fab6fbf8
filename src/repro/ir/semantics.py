"""What a MiniLLVM opcode computes: one definition in two forms.

A scalar operation is a Python *expression template* over its operand
expressions (``binop_expr``, ``icmp_expr``, ``cast_expr``, ``read_expr``,
``write_stmt``, ``intrinsic_expr``).  The trace compiler of
:mod:`repro.ir.interp` pastes the expression into the superinstruction it
``exec``-compiles; everyone else — the interpreter's vector lanes and
out-of-line memory ops, the constant folder, ``unroll``'s trip count —
calls the function compiled once from the same string (``binop_fn``,
``icmp_fn``, ``cast_fn``, ``load_fn``, ``store_fn``, ``intrinsic_fn``,
memoised per opcode and type).  An expression may use the names in
:data:`NAMESPACE`; the arithmetic under them is :mod:`repro.arith`.

Value representation: iN -> unsigned-masked int, double/float -> Python
float, pointer -> int address, vector -> tuple of elements.  The values are
pinned row by row in ``tests/ir/test_interp_semantics.py``.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable

from repro.arith import (
    bits_to_f32, f32_to_bits, fdiv, float_to_sint, fsqrt, round_f32,
    to_signed, trunc_div, trunc_rem,
)
from repro.errors import IRInterpError
from repro.ir.irtypes import (
    DoubleType, FloatType, IntType, PointerType, Type, VectorType,
)

_M64 = (1 << 64) - 1
_F64 = struct.Struct("<d")


# -- helpers the expressions call ---------------------------------------------


def _sdiv(a: int, b: int, bits: int, mask: int) -> int:
    d = to_signed(b, bits)
    if d == 0:
        raise IRInterpError("sdiv by zero")
    return trunc_div(to_signed(a, bits), d) & mask


def _srem(a: int, b: int, bits: int, mask: int) -> int:
    d = to_signed(b, bits)
    if d == 0:
        raise IRInterpError("srem by zero")
    return trunc_rem(to_signed(a, bits), d) & mask


def _udiv(a: int, b: int) -> int:
    if b == 0:
        raise IRInterpError("udiv by zero")
    return a // b


def _urem(a: int, b: int) -> int:
    if b == 0:
        raise IRInterpError("urem by zero")
    return a % b


def fcmp(pred: str, a: float, b: float) -> bool:
    unordered = (a != a) or (b != b)
    if pred == "ord":
        return not unordered
    if pred == "uno":
        return unordered
    if unordered:
        return pred.startswith("u")
    return {"eq": a == b, "ne": a != b, "lt": a < b,
            "le": a <= b, "gt": a > b, "ge": a >= b}[pred[1:]]


def to_bytes(v: object, t: Type) -> bytes:
    if isinstance(t, IntType):
        return int(v).to_bytes(t.size_bytes(), "little")  # type: ignore[arg-type]
    if isinstance(t, DoubleType):
        return _F64.pack(float(v))  # type: ignore[arg-type]
    if isinstance(t, FloatType):
        return f32_to_bits(float(v)).to_bytes(4, "little")  # type: ignore[arg-type]
    if isinstance(t, PointerType):
        return int(v).to_bytes(8, "little")  # type: ignore[arg-type]
    if isinstance(t, VectorType):
        return b"".join(to_bytes(x, t.elem) for x in v)  # type: ignore[union-attr]
    raise IRInterpError(f"bitcast from {t}")


def from_bytes(raw: bytes, t: Type) -> object:
    if isinstance(t, IntType):
        return int.from_bytes(raw[: t.size_bytes()], "little")
    if isinstance(t, DoubleType):
        return _F64.unpack(raw[:8])[0]
    if isinstance(t, FloatType):
        return bits_to_f32(int.from_bytes(raw[:4], "little"))
    if isinstance(t, PointerType):
        return int.from_bytes(raw[:8], "little")
    if isinstance(t, VectorType):
        es = t.elem.size_bytes()
        return tuple(
            from_bytes(raw[i * es: (i + 1) * es], t.elem) for i in range(t.count)
        )
    raise IRInterpError(f"bitcast to {t}")


def bitcast(v: object, src: Type, dst: Type) -> object:
    return from_bytes(to_bytes(v, src), dst)


#: the names an expression may use (globals of every compiled form)
NAMESPACE: dict[str, object] = {
    "IRInterpError": IRInterpError,
    "_sgn": to_signed,
    "_f32": round_f32,
    "_fdiv": fdiv,
    "_sdiv": _sdiv,
    "_srem": _srem,
    "_udiv": _udiv,
    "_urem": _urem,
    "_sqrt": fsqrt,
    "_f2si": float_to_sint,
    "_fcmp": fcmp,
    "_bitcast": bitcast,
}


# -- the expressions ----------------------------------------------------------

_INT_EXPR = {
    "add": "({a} + {b}) & {m}",
    "sub": "({a} - {b}) & {m}",
    "mul": "({a} * {b}) & {m}",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "({a} << ({b} % {bits})) & {m}",
    "lshr": "{a} >> ({b} % {bits})",
    "ashr": "(_sgn({a}, {bits}) >> ({b} % {bits})) & {m}",
    "sdiv": "_sdiv({a}, {b}, {bits}, {m})",
    "srem": "_srem({a}, {b}, {bits}, {m})",
    "udiv": "_udiv({a}, {b})",
    "urem": "_urem({a}, {b})",
}

_FP_EXPR = {
    "fadd": "{a} + {b}",
    "fsub": "{a} - {b}",
    "fmul": "{a} * {b}",
    "fdiv": "_fdiv({a}, {b})",
}

_SIGNED_ICMP = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_UNSIGNED_ICMP = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
                  "ugt": ">", "uge": ">="}

_INTRINSIC_EXPR = {
    "llvm.ctpop": 'bin(int({a})).count("1")',
    "llvm.sqrt": "_sqrt({a})",
    "llvm.fabs": "abs(float({a}))",
}


def binop_expr(opcode: str, t: Type, a: str, b: str) -> str | None:
    """``a <opcode> b`` at scalar type ``t`` (None for a vector: its lanes
    go through :func:`binop_fn` of the element type)."""
    if isinstance(t, IntType):
        return _INT_EXPR[opcode].format(a=a, b=b, m=t.mask, bits=t.bits)
    if isinstance(t, DoubleType):
        return _FP_EXPR[opcode].format(a=a, b=b)
    if isinstance(t, FloatType):
        return f"_f32({_FP_EXPR[opcode].format(a=a, b=b)})"
    return None


def icmp_expr(pred: str, t: Type, a: str, b: str) -> str:
    """``icmp pred`` over operands of type ``t``, as a Python condition."""
    if pred in _SIGNED_ICMP:
        bits = t.bits if isinstance(t, IntType) else 64
        return f"_sgn({a}, {bits}) {_SIGNED_ICMP[pred]} _sgn({b}, {bits})"
    return f"{a} {_UNSIGNED_ICMP[pred]} {b}"


def fcmp_expr(pred: str, a: str, b: str) -> str:
    return f"_fcmp({pred!r}, {a}, {b})"


def cast_expr(op: str, src: Type, dst: Type, v: str,
              bind: Callable[[object], str]) -> str | None:
    """``op`` applied to ``v``; ``bind(obj)`` names an object the
    expression needs (a bitcast's two types)."""
    if op == "trunc":
        return f"{v} & {dst.mask}"  # type: ignore[attr-defined]
    if op == "zext":
        return v
    if op == "sext":
        return f"_sgn({v}, {src.bits}) & {dst.mask}"  # type: ignore[attr-defined]
    if op in ("inttoptr", "ptrtoint"):
        return f"{v} & {_M64}"
    if op == "bitcast":
        return f"_bitcast({v}, {bind(src)}, {bind(dst)})"
    if op == "sitofp":
        return f"float(_sgn({v}, {src.bits}))"  # type: ignore[attr-defined]
    if op in ("uitofp", "fpext"):
        return f"float({v})"
    if op == "fptosi":
        return f"_f2si({v}, {dst.bits})"  # type: ignore[attr-defined]
    if op == "fptrunc":
        return f"_f32({v})"
    return None


def read_expr(t: Type, addr: str) -> str | None:
    """Load of scalar ``t`` at ``addr`` from the memory named ``_mem``."""
    if isinstance(t, IntType):
        if t.bits == 1:
            return f"_mem.read_u8({addr}) & 1"
        return f"_mem.read_uint({addr}, {t.size_bytes()})"
    if isinstance(t, DoubleType):
        return f"_mem.read_f64({addr})"
    if isinstance(t, FloatType):
        return f"_mem.read_f32({addr})"
    if isinstance(t, PointerType):
        return f"_mem.read_u64({addr})"
    return None


def write_stmt(t: Type, addr: str, val: str) -> str | None:
    """Store of scalar ``val: t`` at ``addr`` into the memory named ``_mem``."""
    if isinstance(t, IntType):
        return f"_mem.write_uint({addr}, int({val}), {t.size_bytes()})"
    if isinstance(t, DoubleType):
        return f"_mem.write_f64({addr}, {val})"
    if isinstance(t, FloatType):
        return f"_mem.write_f32({addr}, {val})"
    if isinstance(t, PointerType):
        return f"_mem.write_u64({addr}, int({val}))"
    return None


def intrinsic_expr(name: str, a: str) -> str | None:
    for prefix, template in _INTRINSIC_EXPR.items():
        if name.startswith(prefix):
            return template.format(a=a)
    return None


# -- the same strings, as functions --------------------------------------------


def _compile(params: str, body: str | None, what: str,
             binds: dict[str, object] | None = None) -> Callable:
    if body is None:
        raise IRInterpError(f"cannot interpret {what}")
    return eval(f"lambda {params}: {body}", {**NAMESPACE, **(binds or {})})


@functools.cache
def binop_fn(opcode: str, t: Type) -> Callable[[object, object], object]:
    return _compile("a, b", binop_expr(opcode, t, "a", "b"), f"{opcode} {t}")


@functools.cache
def icmp_fn(pred: str, t: Type) -> Callable[[int, int], bool]:
    return _compile("a, b", icmp_expr(pred, t, "a", "b"), f"icmp {pred}")


@functools.cache
def cast_fn(op: str, src: Type, dst: Type) -> Callable[[object], object]:
    binds: dict[str, object] = {}

    def bind(obj: object) -> str:
        name = f"_k{len(binds)}"
        binds[name] = obj
        return name
    return _compile("a", cast_expr(op, src, dst, "a", bind), f"cast {op}",
                    binds)


@functools.cache
def load_fn(t: Type) -> Callable[[object, int], object]:
    """``load(mem, addr)`` of a ``t``; a vector is its elements in order."""
    if isinstance(t, VectorType):
        load, es, lanes = load_fn(t.elem), t.elem.size_bytes(), range(t.count)
        return lambda mem, addr: tuple(load(mem, addr + i * es) for i in lanes)
    return _compile("_mem, addr", read_expr(t, "addr"), f"load {t}")


@functools.cache
def store_fn(t: Type) -> Callable[[object, int, object], None]:
    """``store(mem, addr, value)`` of a ``t``."""
    if isinstance(t, VectorType):
        store, es = store_fn(t.elem), t.elem.size_bytes()

        def store_vector(mem: object, addr: int, value: tuple) -> None:
            for i, x in enumerate(value):
                store(mem, addr + i * es, x)
        return store_vector
    return _compile("_mem, addr, v", write_stmt(t, "addr", "v"), f"store {t}")


@functools.cache
def intrinsic_fn(name: str) -> Callable[[object], object]:
    body = intrinsic_expr(name, "a")
    if body is None:
        raise IRInterpError(f"unknown intrinsic {name}")
    return _compile("a", body, name)
