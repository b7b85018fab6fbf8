"""A hot block's float locals, against its closures.

Inside one generated function (:mod:`repro.cpu.blockgen`) the double in an
xmm register's low lane stays bound as a Python float (``d{k}``) once the
block loads it with ``movsd``, computes it with ``addsd``/``subsd``/
``mulsd`` or copies it with a register ``movsd``; later scalar statements
read the float instead of converting the register's bits.  Any other write
to the register forgets it: a closure call, ``pxor``, ``movss`` from a
register or memory, a reload forwarded from an integer store, a 4-byte
load, or a copy from a register whose float the block does not hold.

Each case below is a short block, run generated and as its closure chain
from the same states: the low lanes of ``xmm1``/``xmm2`` and the memory
slots walk the doubles of ``test_block_codegen.py``'s ``EDGES`` plus
signalling NaNs and a NaN with a payload, the upper lanes are random, and
``rsi`` points into the region or at unmapped space, so a load through it
faults mid-block.  Registers, flags, event counters, the returned ``rip``
and the region's bytes must agree, and so must a fault, with the registers
it leaves.  Each case pins how many bits-to-double conversions its
statements make.

Four mutants of the generator — the float kept across a closure call,
across ``pxor``, across ``movss``, and a copy that keeps the destination's
stale float — must each fail a case.
"""

from __future__ import annotations

import random

import pytest

from repro.cpu import blockgen
from repro.cpu.state import CPUState
from repro.errors import ReproError
from repro.mem.memory import Memory
from repro.x86.registers import RAX, RDI, RSI
from tests.cpu.test_block_codegen import EDGES
from tests.cpu.test_held_regions import _block, _chain, _lines

REGION, SIZE, UNMAPPED = 0x10000, 0x40, 0x50000

#: the codegen edges, then two signalling NaNs (one negative) and a quiet
#: NaN with a payload
DOUBLES = EDGES + (0x7FF0_0000_0000_0001, 0xFFF4_0000_0000_0000,
                   0x7FF8_DEAD_BEEF_0001)

#: ``name -> (source, bits-to-double conversions in its statements)``
CASES = {
    "load, copy and compute": (
        "movsd xmm3, [rdi]\nmovsd xmm4, xmm3\naddsd xmm4, [rdi + 8]\n"
        "mulsd xmm3, xmm4\nsubsd xmm4, xmm3\nmovsd [rdi + 16], xmm4\n"
        "movsd xmm5, xmm4\naddsd xmm5, xmm5", 0),
    "values that entered the block": (
        "addsd xmm1, xmm2\nmulsd xmm2, xmm1\nsubsd xmm1, xmm1\n"
        "addsd xmm2, xmm2", 2),
    "closure call": (
        "movsd xmm1, [rdi]\naddsd xmm2, xmm1\nmovapd xmm1, xmm2\n"
        "mulsd xmm1, xmm2\ncvtsi2sd xmm2, rax\naddsd xmm1, xmm2", 5),
    "pxor": (
        "movsd xmm1, [rdi]\naddsd xmm2, xmm1\npxor xmm1, xmm2\n"
        "mulsd xmm1, xmm2\nmovsd xmm3, [rdi + 8]\npxor xmm3, xmm3\n"
        "addsd xmm3, xmm1", 3),
    "movss from a register": (
        "movsd xmm1, [rdi]\nmovsd xmm3, xmm1\nmovss xmm1, xmm2\n"
        "addsd xmm3, xmm1", 1),
    "movss from memory": (
        "movsd xmm1, [rdi]\nmulsd xmm1, xmm1\nmovss xmm1, [rdi + 12]\n"
        "subsd xmm1, [rdi + 8]", 1),
    "movss to memory forgets nothing": (
        "movsd xmm1, [rdi]\nmovss [rdi + 8], xmm1\naddsd xmm1, xmm1\n"
        "mulsd xmm1, [rdi + 8]", 0),
    "reload forwarded from an integer store": (
        "movsd xmm1, [rdi]\nmov [rdi + 8], rax\nmovsd xmm1, [rdi + 8]\n"
        "addsd xmm1, xmm1\nmovsd [rdi + 16], xmm1\nmovsd xmm3, [rdi + 16]\n"
        "mulsd xmm3, xmm1", 2),
    "copy from a register the block does not hold": (
        "movsd xmm1, [rdi]\nmovsd xmm1, xmm2\naddsd xmm1, xmm1\n"
        "movsd xmm3, xmm1\nmulsd xmm3, xmm1", 1),
    "fault mid-block": (
        "movsd xmm1, [rdi]\naddsd xmm1, xmm2\nmovsd xmm3, [rsi]\n"
        "mulsd xmm3, xmm1\nmovsd [rdi], xmm3\nsubsd xmm1, [rsi + 8]", 1),
}

_RNG = random.Random("float locals")
_GPR = [_RNG.getrandbits(64) for _ in range(16)]
_XMM = [_RNG.getrandbits(128) for _ in range(16)]


def _states():
    """``(gpr, xmm, data)``: every ordered pair of doubles in the low lanes
    of ``xmm1``/``xmm2``, with other pairs in the first two memory slots
    and ``rax``, and ``rsi`` unmapped in every fifth state."""
    n = len(DOUBLES)
    for i, a in enumerate(DOUBLES):
        for j, b in enumerate(DOUBLES):
            k = i * n + j
            gpr, xmm = list(_GPR), list(_XMM)
            gpr[RAX] = DOUBLES[(i + 2 * j) % n]
            gpr[RDI] = REGION
            gpr[RSI] = UNMAPPED if k % 5 == 0 else REGION + 0x18
            xmm[1] = (xmm[1] >> 64 << 64) | a
            xmm[2] = (xmm[2] >> 64 << 64) | b
            slots = (DOUBLES[(i + j) % n], DOUBLES[(2 * i + j + 1) % n], a, b)
            data = b"".join(v.to_bytes(8, "little") for v in slots)
            yield gpr, xmm, data + _RNG.randbytes(SIZE - len(data))


STATES = list(_states())


def _outcome(op, state) -> tuple:
    gpr, xmm, data = state
    st, mem = CPUState(), Memory()
    st.gpr, st.xmm = list(gpr), list(xmm)
    mem.map(REGION, SIZE, data)
    try:
        out: tuple = (op(st, mem),)
    except ReproError as exc:
        out = (type(exc), str(exc))
    except Exception as exc:  # a mutant may break the function
        out = ("broken", repr(exc))
    return out + (st.gpr, st.xmm, st.flags_byte(), st.taken, st.unaligned16,
                  mem.read(REGION, SIZE))


#: calls after which CPython runs a function's float arithmetic through its
#: specialised instructions.  For an add or a multiply of two NaNs the
#: generic path returns the second operand and the specialised one the
#: first, so a fresh generated function is compared with the closures'
#: long-warm ``_FP_OPS`` only once it is warm too
WARM = 16


def _disagreements(src: str, states=STATES) -> int:
    run, flags, closures = _block(src)
    fn = blockgen.generate(run, flags, closures)
    chain = _chain(closures, run[-1].end)
    for s in STATES[1:WARM * 5:5]:  # states with rsi mapped
        _outcome(fn, s)
        _outcome(chain, s)
    return sum(_outcome(fn, s) != _outcome(chain, s) for s in states)


def _conversions(lines: list[str]) -> int:
    return sum("UP(" in line for line in lines)


@pytest.mark.parametrize("name", CASES)
def test_case_runs_generated_equal_to_its_closures(name):
    src, conversions = CASES[name]
    run, flags, _ = _block(src)
    lines = _lines(run, flags)
    assert _conversions(lines) == conversions
    # every case but the closure call is inlined whole
    assert ("<closure>" in lines) == (name == "closure call")
    assert _disagreements(src) == 0


def test_the_fault_case_faults_in_some_states_only():
    run, flags, closures = _block(CASES["fault mid-block"][0])
    fn = blockgen.generate(run, flags, closures)
    faults = sum(isinstance(_outcome(fn, s)[0], type) for s in STATES)
    assert 0 < faults < len(STATES)


def _keep_doubles(when):
    """A ``statements`` that puts back every float the instruction made the
    block forget, where ``when(ins, doubles before)`` holds."""
    def mutant(real, ins, flags, held=None):
        old = None if held is None else set(held.doubles)
        lines = real(ins, flags, held)
        if old is not None and when(ins, old):
            held.doubles |= old
        return lines
    return mutant


def _stale_copy(ins, old) -> bool:
    if ins.mnemonic != "movsd":
        return False
    dst, src = ins.operands
    return blockgen._xmm(dst) is not None \
        and blockgen._xmm(src) not in (None, *old)


MUTANTS = {
    "kept across a closure call": lambda ins, old: blockgen._EMIT.get(
        ins.mnemonic) is None,
    "kept across pxor": lambda ins, old: ins.mnemonic == "pxor",
    "kept across movss": lambda ins, old: ins.mnemonic == "movss",
    "a copy keeps the destination's stale float": _stale_copy,
}


def _problems(first: bool = False) -> list[str]:
    out = []
    for name, (src, _) in CASES.items():
        if _disagreements(src, STATES[::3]):
            out.append(name)
            if first:
                break
    return out


def test_the_cases_pass_unmutated():
    assert _problems() == []


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_generator_is_caught(name, monkeypatch):
    real = blockgen.statements
    mutant = _keep_doubles(MUTANTS[name])
    monkeypatch.setattr(blockgen, "statements",
                        lambda *a: mutant(real, *a))
    assert _problems(first=True), f"mutant survived: {name}"
