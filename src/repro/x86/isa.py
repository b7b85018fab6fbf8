"""Mnemonic-level metadata shared by encoder, decoder, simulator and lifter.

The tables here describe the supported x86-64 subset: integer ALU and data
movement, control flow, and SSE/SSE2/SSE3 floating point (the paper's scope —
AVX is explicitly out, matching its ``-mno-avx`` evaluation setup).

Everything here is a fact about a *mnemonic*, which is all the encoder,
the parser and the emitters hold.  What a decoded *instruction* touches —
registers, memory, the flags it defines or leaves undefined, its control
class and target — is :mod:`repro.x86.effects`, which builds on
:func:`cc_of`, :func:`control_class` and :data:`CC_FLAGS_READ` below.
"""

from __future__ import annotations

from typing import Final

# ---------------------------------------------------------------------------
# Condition codes
# ---------------------------------------------------------------------------

#: canonical condition-code suffixes in hardware encoding order (0..15)
CC_NAMES: Final[tuple[str, ...]] = (
    "o", "no", "b", "ae", "e", "ne", "be", "a",
    "s", "ns", "p", "np", "l", "ge", "le", "g",
)

CC_INDEX: Final[dict[str, int]] = {n: i for i, n in enumerate(CC_NAMES)}

#: alias suffixes accepted by the parser, mapped to canonical names
CC_ALIASES: Final[dict[str, str]] = {
    "z": "e", "nz": "ne", "c": "b", "nc": "ae", "nae": "b", "nb": "ae",
    "na": "be", "nbe": "a", "pe": "p", "po": "np", "nge": "l", "nl": "ge",
    "ng": "le", "nle": "g",
}

#: flags read by each condition code (subset of "oszapc")
CC_FLAGS_READ: Final[dict[str, str]] = {
    "o": "o", "no": "o",
    "b": "c", "ae": "c",
    "e": "z", "ne": "z",
    "be": "cz", "a": "cz",
    "s": "s", "ns": "s",
    "p": "p", "np": "p",
    "l": "so", "ge": "so",
    "le": "soz", "g": "soz",
}


def canonical_cc(suffix: str) -> str | None:
    """Canonicalize a condition-code suffix, or None if it is not one."""
    if suffix in CC_INDEX:
        return suffix
    return CC_ALIASES.get(suffix)


def cc_of(mnemonic: str) -> str | None:
    """Extract the canonical condition code of a jcc/cmovcc/setcc mnemonic."""
    for prefix in ("cmov", "set", "j"):
        if mnemonic.startswith(prefix) and mnemonic not in ("jmp",):
            return canonical_cc(mnemonic[len(prefix):])
    return None


# ---------------------------------------------------------------------------
# Integer instruction families (drive both encoder and decoder)
# ---------------------------------------------------------------------------

#: classic ALU group: mnemonic -> (opcode base, /digit for the 80/81/83 group)
ALU_GROUP: Final[dict[str, tuple[int, int]]] = {
    "add": (0x00, 0),
    "or": (0x08, 1),
    "adc": (0x10, 2),
    "sbb": (0x18, 3),
    "and": (0x20, 4),
    "sub": (0x28, 5),
    "xor": (0x30, 6),
    "cmp": (0x38, 7),
}

#: shift group: mnemonic -> /digit in C0/C1/D0..D3
SHIFT_GROUP: Final[dict[str, int]] = {
    "rol": 0, "ror": 1, "shl": 4, "shr": 5, "sar": 7,
}

#: unary group F6/F7: mnemonic -> /digit
UNARY_GROUP: Final[dict[str, int]] = {
    "not": 2, "neg": 3, "mul": 4, "imul1": 5, "div": 6, "idiv": 7,
}

# ---------------------------------------------------------------------------
# SSE families
# ---------------------------------------------------------------------------

#: scalar double ops: mnemonic -> second opcode byte (prefix F2 0F xx)
SSE_SD: Final[dict[str, int]] = {
    "addsd": 0x58, "mulsd": 0x59, "subsd": 0x5C, "divsd": 0x5E,
    "minsd": 0x5D, "maxsd": 0x5F, "sqrtsd": 0x51, "cvtsd2ss": 0x5A,
}

#: scalar single ops: prefix F3 0F xx
SSE_SS: Final[dict[str, int]] = {
    "addss": 0x58, "mulss": 0x59, "subss": 0x5C, "divss": 0x5E,
    "minss": 0x5D, "maxss": 0x5F, "sqrtss": 0x51, "cvtss2sd": 0x5A,
}

#: packed double ops: prefix 66 0F xx
SSE_PD: Final[dict[str, int]] = {
    "addpd": 0x58, "mulpd": 0x59, "subpd": 0x5C, "divpd": 0x5E,
    "minpd": 0x5D, "maxpd": 0x5F, "sqrtpd": 0x51, "xorpd": 0x57,
    "andpd": 0x54, "orpd": 0x56, "unpcklpd": 0x14, "unpckhpd": 0x15,
    "haddpd": 0x7C,
}

#: packed single ops: prefix 0F xx (no mandatory prefix)
SSE_PS: Final[dict[str, int]] = {
    "addps": 0x58, "mulps": 0x59, "subps": 0x5C, "divps": 0x5E,
    "xorps": 0x57, "andps": 0x54, "orps": 0x56,
    "unpcklps": 0x14, "unpckhps": 0x15,
}

#: packed integer ops: prefix 66 0F xx
SSE_PI: Final[dict[str, int]] = {
    "pxor": 0xEF, "por": 0xEB, "pand": 0xDB, "pandn": 0xDF,
    "paddq": 0xD4, "paddd": 0xFE, "paddw": 0xFD, "paddb": 0xFC,
    "psubq": 0xFB, "psubd": 0xFA, "pcmpeqd": 0x76, "pcmpeqb": 0x74,
    "pmuludq": 0xF4,
}

#: element width in bytes accessed by scalar SSE mnemonics
SSE_SCALAR_WIDTH: Final[dict[str, int]] = (
    {m: 8 for m in SSE_SD}
    | {m: 4 for m in SSE_SS}
    | {"movsd": 8, "movss": 4, "movq": 8, "movd": 4, "movlpd": 8, "movhpd": 8,
       "ucomisd": 8, "comisd": 8, "ucomiss": 4, "comiss": 4,
       "cvtsi2sd": 8, "cvtsi2ss": 8, "cvttsd2si": 8, "cvtsd2si": 8,
       "cvttss2si": 4, "cvtss2si": 4}
)

# ---------------------------------------------------------------------------
# Control-flow classification
# ---------------------------------------------------------------------------


def control_class(mnemonic: str) -> str:
    """Classify a mnemonic: 'jmp', 'jcc', 'call', 'ret', or 'none'."""
    if mnemonic == "jmp":
        return "jmp"
    if mnemonic == "call":
        return "call"
    if mnemonic == "ret":
        return "ret"
    if mnemonic.startswith("j") and cc_of(mnemonic) is not None:
        return "jcc"
    return "none"

