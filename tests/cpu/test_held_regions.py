"""A hot block's held regions and forwarded stores, against its closures.

Inside one generated function (:mod:`repro.cpu.blockgen`) a memory access
through a base register checks the region that base's first access found,
and a load of the slot the block's last store wrote reads the stored
value.  Each case below is a short block, run generated and as its closure
chain from the same states: the base registers ``rdi`` and ``rsi`` point
into a region, a second region on the same page, a region on another page,
unmapped space, or so close to a region's end that an access straddles it;
the value registers walk the width and sign edges of
``test_block_codegen.py``; the flags walk all 64 combinations.  Registers,
flags, event counters, the returned ``rip`` and every region's bytes must
agree, and so must a fault, with the registers it leaves.

Five mutants of the generator — the re-check dropped, a store forwarded
across a store through another base, forwarding kept across a closure
call, forwarding kept across a write to an address register, and held
state kept across :func:`~repro.cpu.blockgen.generate` calls — must each
fail a case.
"""

from __future__ import annotations

import itertools
import random
import re
import sys
import threading

import pytest

from repro.cpu import Image, blockgen, simulator
from repro.cpu.costs import HASWELL
from repro.cpu.semantics import bind
from repro.cpu.state import CPUState
from repro.errors import ReproError
from repro.mem.memory import Memory
from repro.x86 import parse_asm
from repro.x86.asm import assemble
from repro.x86.effects import effects_of
from repro.x86.registers import RAX, RBP, RBX, RCX, RDI, RDX, RSI, RSP
from tests.cpu.test_block_codegen import EDGES, _decoded

#: two regions on one page, one on another page, and the stack
A, B, C, STACK = 0x10000, 0x10100, 0x30000, 0x20000
SIZE = 0x100
UNMAPPED = 0x50000
#: where ``rdi`` and ``rsi`` point: inside a region, near its end (an
#: 8-byte access at ``A + 0xF8`` is its last, at ``A + 0xFC`` it straddles
#: into ``B``), into another page, unmapped, and a small index
POINTS = (A, A + 0x10, A + 0xF4, A + 0xF8, B + 0xF8, C + 0x10, UNMAPPED, 1)

_RNG = random.Random("held regions")
_GPR = [_RNG.getrandbits(64) for _ in range(16)]
_XMM = [_RNG.getrandbits(128) for _ in range(16)]
_DATA = {start: _RNG.randbytes(SIZE) for start in (A, B, C, STACK)}

#: ``name -> (source, loads that read the stored value, accesses that
#: check a region their base already holds)``
CASES = {
    # -- held regions
    "second access leaves the region, into the next on its page": (
        "mov rax, [rdi]\nmov rdx, [rdi + 8]\nmov ecx, [rdi + 0x104]", 0, 2),
    "second access leaves the region, into another page": (
        "mov rax, [rdi]\nmov rdx, [rdi + 0x20000]", 0, 1),
    # from B + 0xF8 or C + 0x10 the store lands on a mapped page, unmapped
    "second access leaves the region, into unmapped space": (
        "mov rax, [rdi]\nmov [rdi + 0x100], rcx\nmov rdx, [rdi + 0x20]",
        0, 2),
    "base re-pointed between two accesses": (
        "mov rax, [rdi]\nmov rdi, rsi\nmov rdx, [rdi + 8]\nmov [rdi], rcx",
        0, 2),
    "base moved by arithmetic between two accesses": (
        "mov [rdi], rax\nadd rdi, rcx\nmov rdx, [rdi]\n"
        "lea rdi, [rdi + 0x100]\nmov rbx, [rdi - 8]", 0, 2),
    "two regions share a page": (
        "mov rax, [rdi + 0xF8]\nmov rdx, [rdi + 0x100]\n"
        "mov ecx, [rdi + 0xFE]\nmov rbx, [rdi + 0x20]", 0, 3),
    "index and base": (
        "mov [rdi + rsi*8], rax\nmov edx, [rdi + rsi*4 + 4]\n"
        "movsd xmm3, [rdi + rsi*8]", 1, 1),
    # -- forwarding
    "store then reload": ("mov [rdi + 8], rax\nmov rdx, [rdi + 8]", 1, 0),
    "store through a second base that may alias": (
        "mov [rdi], rax\nmov [rsi], rcx\nmov rdx, [rdi]\n"
        "mov [rsi + 4], ecx\nmov rbx, [rdi]", 0, 3),
    "closure call between a store and its reload": (
        "mov [rdi], rax\nadd qword ptr [rdi], rcx\nmov rdx, [rdi]\n"
        "mov [rdi + 8], rbx\ninc qword ptr [rdi + 8]\nmov rcx, [rdi + 8]",
        0, 3),
    "reload at another width": (
        "mov [rdi], rax\nmov edx, [rdi]\nmovzx ecx, word ptr [rdi]\n"
        "mov rsi, [rdi]", 1, 2),
    "reload that sign-extends": (
        "mov [rdi], eax\nmovsxd rdx, dword ptr [rdi]\nmov [rdi + 4], cl\n"
        "movsx rcx, byte ptr [rdi + 4]\nmovzx ebx, byte ptr [rdi + 4]", 3, 1),
    # an ``addsd`` reads its memory operand as a double from the buffer
    "float store then reload": (
        "movsd [rdi], xmm1\naddsd xmm2, [rdi]\nmovsd xmm3, [rdi]\n"
        "movss [rdi + 8], xmm2\nmovss xmm4, [rdi + 8]\nmulsd xmm4, [rdi + 8]",
        2, 3),
    "write to a register of the address": (
        "mov [rdi + rsi*8], rax\nmov esi, 1\nmov rdx, [rdi + rsi*8]\n"
        "mov [rdi + 8], rcx\nmov rdi, [rdi + 8]\nmov rbx, [rdi + 8]", 1, 3),
    "stack: push, reload, pop": (
        "push rax\nmov rdx, [rsp]\nmov [rsp], rcx\npop rbx\n"
        "mov [rsp - 8], rdi\nmov rsi, [rsp - 8]\nmov rcx, [rdi]", 1, 4),
}


def _block(src: str):
    """``(run, set_flags, closures)`` of ``src`` decoded as one block."""
    run = _decoded(src)
    flags = simulator._writes_live([(ins, effects_of(ins)) for ins in run])
    return run, flags, tuple(bind(i, f) for i, f in zip(run, flags))


def _lines(run, flags) -> list[str]:
    """The statements of ``run`` as :func:`blockgen.generate` writes them
    (every case is inlined whole but its closure calls)."""
    held, out = blockgen._Held(), []
    for ins, flag in zip(run, flags):
        out += blockgen.statements(ins, flag, held) or ["<closure>"]
    return out


def _chain(closures, end: int):
    """The closure chain as one op returning the next ``rip``."""
    def op(st, mem):
        for c in closures[:-1]:
            c(st, mem)
        rip = closures[-1](st, mem)
        return end if rip is None else rip
    return op


def _states():
    """``(gpr, xmm, flags)``: every pair of pointers in ``rdi``/``rsi``,
    each with 17 edge pairs in the value registers."""
    for n, (p, q) in enumerate(itertools.product(POINTS, POINTS)):
        for i, a in enumerate(EDGES):
            b = EDGES[(5 * i + n) % len(EDGES)]
            k = n * len(EDGES) + i
            gpr, xmm = list(_GPR), list(_XMM)
            gpr[RAX] = gpr[RBX] = a
            gpr[RCX] = gpr[RDX] = b
            gpr[RDI], gpr[RSI] = p, q
            gpr[RSP], gpr[RBP] = STACK + 0x80, STACK + 0xA0
            xmm[1] = (xmm[1] >> 64 << 64) | a
            xmm[2] = (xmm[2] >> 64 << 64) | b
            yield gpr, xmm, [bool(k >> m & 1) for m in range(6)]


STATES = list(_states())


def _outcome(op, state) -> tuple:
    gpr, xmm, flags = state
    st, mem = CPUState(), Memory()
    st.gpr, st.xmm = list(gpr), list(xmm)
    st.of, st.sf, st.zf, st.af, st.pf, st.cf = flags
    for start, data in _DATA.items():
        mem.map(start, SIZE, data)
    try:
        out: tuple = (op(st, mem),)
    except ReproError as exc:
        out = (type(exc), str(exc))
    except Exception as exc:  # a mutant may break the function
        out = ("broken", repr(exc))
    return out + (st.gpr, st.xmm, st.flags_byte(), st.taken, st.unaligned16,
                  [mem.read(s, SIZE) for s in _DATA])


def _disagreements(fn, closures, run, states=STATES) -> int:
    chain = _chain(closures, run[-1].end)
    return sum(_outcome(fn, s) != _outcome(chain, s) for s in states)


def _leaks() -> list[str]:
    """Two blocks generated back to back, then a lone ``statements()``
    call: the second block and the lone call must hold nothing of the
    first (the names of the checks that fail)."""
    first = _block("mov [rdi], rax\nmov rdx, [rdi]\nmov rcx, [rsi]")
    second = _block("mov rbx, [rdi]\nmov rdx, [rsi + 8]\nmov [rdi], rcx")
    problems = []
    for name, (run, flags, closures) in (("first", first),
                                         ("second", second)):
        fn = blockgen.generate(run, flags, closures)
        if _disagreements(fn, closures, run, STATES[::7]):
            problems.append(name)
    lone = blockgen.statements(second[0][0], second[1][0])
    if not any("pg(" in line for line in lone) \
            or any(re.search(r"\bf\b", line) for line in lone):
        problems.append("lone statements()")
    return problems


def _forwarded(lines: list[str]) -> int:
    """Loads that read the stored value ``f``."""
    return sum(bool(re.search(r"\bf\b(?! :=)", line)) for line in lines)


def _held_checks(lines: list[str]) -> int:
    """Accesses that check a region their base already holds."""
    return sum(line.startswith("if a <") for line in lines) \
        - sum("pg(" in line for line in lines)


@pytest.mark.parametrize("name", CASES)
def test_case_runs_generated_equal_to_its_closures(name):
    src, forwarded, held = CASES[name]
    run, flags, closures = _block(src)
    lines = _lines(run, flags)
    # the case exercises what it is named for
    assert (_forwarded(lines), _held_checks(lines)) == (forwarded, held)
    fn = blockgen.generate(run, flags, closures)
    assert _disagreements(fn, closures, run) == 0
    faults = sum(isinstance(_outcome(fn, s)[0], type) for s in STATES)
    assert 0 < faults < len(STATES), "the states reach both outcomes"


def test_no_held_state_leaks_between_blocks():
    assert _leaks() == []


def test_threads_promote_distinct_blocks_at_once(monkeypatch):
    """Four threads promote distinct blocks at the same moment, over and
    over; every generated function must equal its closures."""
    monkeypatch.setattr(simulator, "_BLOCK_MEMO", {})
    blocks = []
    for src, _, _ in CASES.values():
        img = Image()
        addr = img.next_code_addr()
        img.add_function("f", assemble(parse_asm(src + "\nret"),
                                       base=addr)[0])
        blk = simulator._block_at(img.memory, addr, HASWELL)
        assert blk.n == src.count("\n") + 2, src
        blocks.append(blk)
    barrier = threading.Barrier(4, timeout=60)
    promoted: list[list] = [[] for _ in range(4)]

    def work(t: int) -> None:
        for _ in range(6):
            barrier.wait()
            for blk in blocks[t::4]:
                blk.run = None
                simulator._promote(blk)
                promoted[t].append((blk, blk.run))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside generate
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    states = STATES[::5]
    for t in range(4):
        assert len(promoted[t]) == 6 * len(blocks[t::4])
        for blk, fn in promoted[t]:
            want = [_outcome(_chain((*blk.ops, blk.exit), 0), s)
                    for s in states]
            assert [_outcome(fn, s) for s in states] == want


def _problems(first: bool = False) -> list[str]:
    out = []
    for name, (src, _, _) in CASES.items():
        run, flags, closures = _block(src)
        fn = blockgen.generate(run, flags, closures)
        if _disagreements(fn, closures, run, STATES[::3]):
            out.append(name)
            if first:
                return out
    return out + _leaks()


def _wrap(mp, name, wrapper) -> None:
    real = getattr(blockgen, name)
    mp.setattr(blockgen, name, lambda *a: wrapper(real, *a))


def _no_recheck(real, held, m, width):
    known = len(held.bases)
    lines, at = real(held, m, width)
    if len(held.bases) == known:  # the base was held: skip its check
        lines = [line for line in lines if not line.startswith("if a <")]
    return lines, at


def _across_other_base(real, held, m, value, width):
    old = held.stored
    lines = real(held, m, value, width)
    if old is not None and old[2] != held.stored[2]:
        held.stored = old  # the other base's store forgets nothing
        lines[-1] = lines[-1].replace("f := ", "")
    return lines


def _keep_stored(when):
    def mutant(real, ins, flags, held=None):
        old = None if held is None else held.stored
        lines = real(ins, flags, held)
        if held is not None and old is not None and when(lines):
            held.stored = old
        return lines
    return mutant


MUTANTS = {
    "re-check dropped": lambda mp: _wrap(mp, "_access", _no_recheck),
    "forwarded across a store through another base":
        lambda mp: _wrap(mp, "_store", _across_other_base),
    "forwarded across a closure call": lambda mp: _wrap(
        mp, "statements", _keep_stored(lambda lines: lines is None)),
    "forwarded across a write to an address register": lambda mp: _wrap(
        mp, "statements", _keep_stored(lambda lines: lines is not None and
                                       not any("f := " in ln for ln in lines))),
    "held state kept across generate calls": lambda mp: mp.setattr(
        blockgen, "_Held", lambda shared=blockgen._Held(): shared),
}


def test_the_cases_pass_unmutated():
    assert _problems() == []


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_generator_is_caught(name, monkeypatch):
    MUTANTS[name](monkeypatch)
    assert _problems(first=True), f"mutant survived: {name}"
