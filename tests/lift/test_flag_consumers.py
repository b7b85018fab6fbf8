"""Flag consumers across block boundaries — the path the stencil kernels
never take.

The kernels read flags right after the ``cmp`` that wrote them, in the same
block, through the flag cache.  Here every producer is read under all 16
condition codes by ``setcc``, ``cmovcc`` and ``jcc`` consumers placed

* ``same`` — in the producer's block;
* ``succ`` — behind a ``jmp``, so each flag arrives through a demanded phi
  (and, for ``jcc``, through the phis of every later diamond);
* ``loop`` — in a loop header: the first pass reads the producer's flags,
  the second reads ``dec``'s through the back edge, except CF, which
  ``dec`` preserves and the producer's recipe supplies on both passes.

One function folds the 16 answers into ``rax`` (``lea`` only, so nothing
between two consumers writes a flag; consumers 2-16 all sit behind
intervening ``mov``/``movzx``/``lea``).  ``inc``/``dec`` follow a ``cmp``
whose CF they must carry to ``jb``/``setb``/``cmovb``.  The original runs
against lifted + ``run_o3`` + JIT code in the simulator on edge operands,
with the flag cache on and off.
"""

from __future__ import annotations

import struct

import pytest

from repro.cpu import Image, Simulator
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature, LiftOptions
from repro.x86 import isa, parse_asm
from repro.x86.asm import assemble

CCS = tuple(isa.CC_NAMES)
MIN, MAX, ONES = 1 << 63, (1 << 63) - 1, (1 << 64) - 1
INT_OPERANDS = [(0, 0), (0, 1), (1, 0), (ONES, 1), (1, ONES), (ONES, ONES),
                (MIN, 1), (MAX, 1), (MIN, MAX), (MAX, MIN), (MIN, ONES),
                (MAX, MAX), (MIN, MIN), (5, 5), (0x80, 0x7F), (0x0F, 1)]
NAN, INF = float("nan"), float("inf")
F64_OPERANDS = [(0.0, 0.0), (-0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (-1.0, 1.0),
                (NAN, 1.0), (1.0, NAN), (NAN, NAN), (INF, -INF), (INF, INF),
                (1e300, 1e-300)]

#: producer -> the instructions that leave its flags behind
PRODUCERS = {
    "cmp": ["cmp rdi, rsi"],
    "sub": ["sub rdi, rsi"],
    "add": ["add rdi, rsi"],
    "inc": ["cmp rsi, rdi", "inc rdi"],
    "dec": ["cmp rsi, rdi", "dec rdi"],
    "neg": ["neg rdi"],
    "test": ["test rdi, rsi"],
    "and": ["and rdi, rsi"],
    "xor r,r": ["xor rdi, rdi"],
    "ucomisd": ["ucomisd xmm0, xmm1"],
}


def _consumers(kind: str) -> list[str]:
    lines: list[str] = []
    for i, cc in enumerate(CCS):
        if kind == "setcc":
            lines += [f"set{cc} cl", "movzx ecx, cl",
                      "lea rax, [rcx + rax*2]"]
        elif kind == "cmovcc":
            lines += ["mov rcx, 0", f"cmov{cc} rcx, r10",
                      "lea rax, [rcx + rax*2]"]
        else:
            lines += [f"j{cc} taken{i}", "lea rax, [rax + rax]",
                      f"jmp next{i}", f"taken{i}:", "lea rax, [rax*2 + 1]",
                      f"next{i}:"]
    return lines


def snippet(producer: str, kind: str, place: str) -> str:
    lines = ["mov rax, 1", "mov r10, 1", "mov r8, 2", *PRODUCERS[producer]]
    if place == "succ":
        lines += ["jmp behind", "behind:"]
    elif place == "loop":
        lines += ["head:"]
    lines += _consumers(kind)
    if place == "loop":
        lines += ["dec r8", "jnz head"]
    # the producer's result too, so the lifted arithmetic itself is checked
    lines += ["xor rax, rdi", "ret"]
    return "\n".join(lines)


def _f64_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


@pytest.mark.parametrize("flag_cache", [True, False], ids=["cache", "bits"])
@pytest.mark.parametrize("place", ["same", "succ", "loop"])
@pytest.mark.parametrize("kind", ["setcc", "cmovcc", "jcc"])
@pytest.mark.parametrize("producer", PRODUCERS)
def test_consumer_agrees_with_the_original(producer, kind, place, flag_cache):
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(snippet(producer, kind, place)), base=base)
    img.add_function("f", code)
    fp = producer == "ucomisd"
    sig = FunctionSignature(("i", "i", "f", "f") if fp else ("i", "i"), "i")
    res = BinaryTransformer(
        img, lift_options=LiftOptions(flag_cache=flag_cache),
    ).llvm_identity(base, sig, name="f.jit")
    sim = Simulator(img)
    for a, b in (F64_OPERANDS if fp else INT_OPERANDS):
        args = ((7, 9), (a, b)) if fp else ((a, b),)
        want = sim.call(base, *args).rax
        got = sim.call(res.addr, *args).rax
        assert got == want, (producer, kind, place, a, b, hex(got), hex(want))


def test_every_answer_is_exercised():
    """The operand sets make every condition code come out both ways for
    the comparison producers, so a constant-folded wrong answer cannot
    hide: bit ``15 - i`` of the fold is condition ``CCS[i]``."""
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(snippet("cmp", "setcc", "same")), base=base)
    img.add_function("f", code)
    sim = Simulator(img)
    seen_set = seen_clear = 0
    for a, b in INT_OPERANDS:
        # undo the final xor with rdi; bit 16 is the seed's 1
        fold = sim.call(base, (a, b)).rax ^ a
        assert fold >> 16 == 1
        seen_set |= fold & 0xFFFF
        seen_clear |= ~fold & 0xFFFF
    assert seen_set == seen_clear == 0xFFFF
