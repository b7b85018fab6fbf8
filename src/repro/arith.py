"""What an arithmetic operation computes, defined once.

Every evaluator in the package — the x86 simulator and DBrew's emulator on
top of it (:mod:`repro.cpu.semantics`), MCC's and MiniLLVM's constant
folders, the IR interpreter (:mod:`repro.ir.semantics`) and the machine
verifier's term folder — takes these from here, so a compile-time
evaluation cannot disagree with the run-time one on what a division, a
square root or a conversion returns.  Standard library only; imports
nothing of ``repro``.

Integers are Python ints (unbounded, exact); a ``bits``-wide machine value
is its unsigned representative.  Floats are Python floats (binary64);
binary32 values are the binary64 numbers a ``float`` can hold.
"""

from __future__ import annotations

import math
import struct

_F64 = struct.Struct("<d")
_F32 = struct.Struct("<f")
_NAN = float("nan")
_INF = float("inf")


# -- integers -----------------------------------------------------------------


def to_signed(value: int, bits: int) -> int:
    """The low ``bits`` of ``value`` read as a two's-complement number."""
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def trunc_div(n: int, d: int) -> int:
    """Quotient rounded toward zero (C ``/``, x86 ``idiv``, LLVM ``sdiv``),
    exact at any magnitude: a quotient taken through a float is rounded to
    binary64 first and is wrong from 2**53 on.  ``d`` must not be zero."""
    q = abs(n) // abs(d)
    return -q if (n < 0) != (d < 0) else q


def trunc_rem(n: int, d: int) -> int:
    """Remainder of :func:`trunc_div`: zero or the sign of ``n``."""
    return n - trunc_div(n, d) * d


# -- floating point -----------------------------------------------------------


def f64_to_bits(v: float) -> int:
    return int.from_bytes(_F64.pack(v), "little")


def bits_to_f64(b: int) -> float:
    return _F64.unpack((b & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little"))[0]


def f32_to_bits(v: float) -> int:
    """Bits of ``v`` rounded to binary32 (round-to-nearest-even; a
    magnitude beyond the binary32 range is an infinity)."""
    try:
        return int.from_bytes(_F32.pack(v), "little")
    except OverflowError:
        return 0xFF80_0000 if v < 0 else 0x7F80_0000


def bits_to_f32(b: int) -> float:
    return _F32.unpack((b & 0xFFFF_FFFF).to_bytes(4, "little"))[0]


def round_f32(v: float) -> float:
    """``v`` rounded to binary32 precision, as a Python float."""
    return bits_to_f32(f32_to_bits(v))


def fdiv(x: float, y: float) -> float:
    """IEEE-754 division (``divsd``, LLVM ``fdiv``): a zero divisor gives
    NaN for a zero or NaN dividend and otherwise an infinity whose sign is
    the product of the operands' signs — where Python raises."""
    if y == 0.0:
        if x == 0.0 or x != x:
            return _NAN
        return _INF if (x > 0) == (math.copysign(1.0, y) > 0) else -_INF
    return x / y


def fsqrt(x: float) -> float:
    """Correctly rounded square root (``sqrtsd``, ``llvm.sqrt``); NaN for a
    negative or NaN operand, where :func:`math.sqrt` raises."""
    return math.sqrt(x) if x >= 0 else _NAN


def float_to_sint(x: float, bits: int, truncate: bool = True) -> int:
    """What ``cvt(t)s{d,s}2si`` leaves in a ``bits``-wide register.

    NaN, ±inf and any value whose converted integer does not fit the
    signed range produce the *integer indefinite* ``1 << (bits - 1)``;
    everything else is the two's-complement pattern of the integer.
    ``truncate`` selects the ``cvtt`` forms (toward zero); the rounding
    forms use round-to-nearest-even, the MXCSR default.  The IR's
    ``fptosi`` is defined by the same rule so that lifted code, its
    constant folds and the original agree on every input.
    """
    indefinite = 1 << (bits - 1)
    if not math.isfinite(x):
        return indefinite
    n = int(x) if truncate else round(x)
    if not -indefinite <= n < indefinite:
        return indefinite
    return n & ((1 << bits) - 1)
