"""A hot block's generated function against its closure chain.

:mod:`repro.cpu.blockgen` writes each hot shape out as statements.  Three
layers hold it to the closures it replaces:

(a) **shapes** — every form of the effects conformance harness that the
    generator inlines, with and without its flags, the hand-written
    control and stack rows, and the flag-free shifts by an immediate (32-
    and 64-bit, counts 1, 5, width - 1 and past the width; a count that
    masks to 0, ``cl`` and the narrow forms stay closures) run as
    one-instruction generated functions and as their bound closures from
    the same boundary states (0, ±1, the width and sign edges, NaN, ±0 and
    ±inf, all 64 flag combinations);
(b) **programs** — the 30 Fig. 9 cells, the 100 corpus functions of
    ``test_block_engine.py`` and its hand-made blocks run once with
    closures only and once with every block generated after its first
    run: registers, the six flags, memory, ``RunStats`` and the two event
    counters must agree, and so must a fault;
(c) **edges** — a block cut short returns its fall-through ``rip``,
    ``max_steps`` still single-steps a generated block, patched code is
    never served generated, and a journaled memory runs the closures.

Three mutants of the generator — a wrong ``of``, a dropped
``st.taken += 1`` and a lost fall-through return — must each fail (a).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.bench.harness import stencil_arg
from repro.bench.modes import CODES, MODES, prepare_kernel
from repro.cpu import Image, Simulator, blockgen, simulator
from repro.cpu.image import DATA_BASE, STACK_TOP
from repro.cpu.semantics import bind
from repro.cpu.simulator import RunStats
from repro.cpu.state import MASK64, CPUState
from repro.errors import MemoryAccessError, ReproError, SimulatorError
from repro.mem.memory import JournaledMemory, Memory
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.testing import diffcorpus
from repro.x86 import parse_asm
from repro.x86.asm import assemble
from repro.x86.decoder import decode_one
from repro.x86.instr import Mem, Reg
from repro.x86.registers import RAX, RBX, RCX, RDX, RSI
from tests.cpu.test_block_engine import (
    _CHAINS, _FAULTS, _FLAG_BLOCKS, _STEPS_SRC, CORPUS_SEEDS, _block_at,
    _install, _install_labels,
)
from tests.x86.test_effects_conformance import (
    DATA, REGION, STACK, _hand_rows, _random_machine, forms,
)

# -- (a) every inlined shape equals its closure ------------------------------

#: 64-bit patterns at the edges of every width and sign, and the doubles
#: +0 (0), -0 (1 << 63), NaN (and all ones), +inf, -inf and 1.0
EDGES = (0, 1, MASK64, 0x7F, 0x80, 0xFF, 0x8000, 0xFFFF, 0x7FFF_FFFF,
         0x8000_0000, 0xFFFF_FFFF, (1 << 63) - 1, 1 << 63,
         0x7FF8_0000_0000_0000, 0x7FF0_0000_0000_0000,
         0xFFF0_0000_0000_0000, 0x3FF0_0000_0000_0000)


def _boundary_states(ins):
    """One state per ordered pair of edges: the first in rax, rbx and the
    low lane of xmm1, the second in rcx, rdx, rsi, xmm2 and the memory
    operands; the flags walk all 64 combinations.  A state is ``(gpr,
    xmm, flags, data, stack)``."""
    base = _random_machine(random.Random(f"codegen:{ins!r}"), ins, None)
    for i, a in enumerate(EDGES):
        for j, b in enumerate(EDGES):
            k = (i * len(EDGES) + j) * 7
            gpr, xmm = list(base.st.gpr), list(base.st.xmm)
            gpr[RAX] = gpr[RBX] = a
            gpr[RCX] = gpr[RDX] = gpr[RSI] = b
            xmm[1] = (xmm[1] >> 64 << 64) | a
            xmm[2] = (xmm[2] >> 64 << 64) | b
            data = bytearray(base.data)
            # [rdi + 16] and [rdi + r9*8 + 16] of the conformance forms
            for off in (0x50, 0x60):
                data[off:off + 16] = (b | a << 64).to_bytes(16, "little")
            yield (gpr, xmm, [bool(k >> n & 1) for n in range(6)], data,
                   base.stack)


def _outcome(op, state, fall: int | None = None):
    """What ``op`` leaves from ``state``; a ``None`` it returns reads as
    ``fall``."""
    gpr, xmm, flags, data, stack = state
    st, mem = CPUState(), Memory()
    st.gpr, st.xmm = list(gpr), list(xmm)
    st.of, st.sf, st.zf, st.af, st.pf, st.cf = flags
    mem.map(DATA, REGION, data)
    mem.map(STACK, REGION, stack)
    try:
        rip = op(st, mem)
    except ReproError as exc:
        return type(exc), str(exc), st.gpr
    return (st.gpr, st.xmm, (st.of, st.sf, st.zf, st.af, st.pf, st.cf),
            st.taken, st.unaligned16, fall if rip is None else rip,
            mem.read(DATA, REGION), mem.read(STACK, REGION))


def _shape(op) -> tuple:
    if isinstance(op, Reg):
        return op.kind, op.size, op.high8
    return (op.size, op.index is None) if isinstance(op, Mem) else op.value


def _decoded(src: str) -> list:
    code, _ = assemble(parse_asm(src), base=0x400000)
    out, off = [], 0
    while off < len(code):
        out.append(decode_one(code, off, 0x400000 + off))
        off += out[-1].length
    return out


#: the flag-free shifts of a whole register by counts 1, 5, width - 1 and
#: past the width (the conformance forms add 5, 0x78 and 0x88)
SHIFTS = _decoded("\n".join(
    f"{m} {r}, {n}" for m in ("shl", "shr", "sar")
    for r, bits in (("ebx", 32), ("rbx", 64))
    for n in (1, 5, bits - 1, bits + 1, bits + 7)))
#: shifts that stay closures: a count that masks to 0, a count in ``cl``,
#: and the 8- and 16-bit forms
CLOSURE_SHIFTS = _decoded(
    "shl ebx, 0\nshr rbx, 0\nsar ebx, 32\nshl rbx, 64\nshr rbx, 0xC0\n"
    "shl ebx, cl\nsar rbx, cl\nshl bl, 3\nshr bx, 3\nsar bx, 1\n"
    "shl bh, 2")


def _inlined():
    """``(instruction, set_flags)`` of every shape the generator inlines,
    the control, stack and shift rows first: one form per operand shape
    (the registers in it aside), and ``set_flags=False`` only where it
    inlines other statements."""
    rows = [row.ins for row, *_ in _hand_rows()] + SHIFTS
    cases: dict[tuple, tuple] = {}
    for ins in (*rows, *forms()):
        loud = blockgen.statements(ins, True)
        quiet = blockgen.statements(ins, False)
        for flags in [True] * (loud is not None) \
                + [False] * (quiet not in (None, loud)):
            key = (ins.mnemonic, flags, *map(_shape, ins.operands))
            cases.setdefault(key, (ins, flags))
    return list(cases.values())


def _shape_problems(cases, first: bool = False) -> list[str]:
    """The cases whose generated function and closure disagree on some
    boundary state (only the first such case when ``first``)."""
    problems = []
    for ins, flags in cases:
        closure = bind(ins, flags)
        fn = blockgen.generate([ins], [flags], (closure,))
        for state in _boundary_states(ins):
            want = _outcome(closure, state, ins.end)
            try:
                got = _outcome(fn, state)
            except Exception as exc:  # a mutant may break the function
                got = exc
            if got != want:
                problems.append(f"{ins!r} set_flags={flags}")
                break
        if problems and first:
            break
    return problems


@pytest.fixture(scope="module")
def inlined():
    return _inlined()


def test_every_inlined_shape_equals_its_closure(inlined):
    mnemonics = {ins.mnemonic for ins, _ in inlined}
    # the inlined set must not quietly shrink
    assert {"mov", "movsxd", "movzx", "lea", "add", "sub", "cmp", "test",
            "xor", "imul", "movsd", "addsd", "subsd", "mulsd", "pxor",
            "push", "pop", "call", "ret", "jmp", "jl", "je", "shl", "shr",
            "sar"} <= mnemonics
    assert set(SHIFTS) <= {ins for ins, flags in inlined if not flags}
    assert len(inlined) > 250, len(inlined)
    problems = _shape_problems(inlined)
    assert not problems, "\n".join(problems[:40])


def test_a_shift_inlines_only_flag_free_by_a_count_not_masked_to_zero():
    for ins in CLOSURE_SHIFTS:
        assert blockgen.statements(ins, False) is None, ins
    for ins in SHIFTS + CLOSURE_SHIFTS:
        assert blockgen.statements(ins, True) is None, ins


MUTANTS = {
    "wrong of": lambda mp: mp.setitem(blockgen._FLAGS, "sub", tuple(
        t.replace("sa != sb", "sa == sb") for t in blockgen._FLAGS["sub"])),
    "taken not counted": lambda mp: mp.setattr(
        blockgen, "_JCC", blockgen._JCC.replace("    st.taken += 1\n", "")),
    "no fall-through return": lambda mp: mp.setattr(blockgen, "_FALL",
                                                    "pass"),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_generator_is_caught(name, inlined, monkeypatch):
    MUTANTS[name](monkeypatch)
    assert _shape_problems(inlined, first=True), f"mutant survived: {name}"


# -- (b) programs run generated equal their closure runs ----------------------


def _memory_digest(img: Image) -> str:
    """The allocated data and the top 16 KiB of the stack, hashed."""
    mem = img.memory
    return hashlib.sha256(
        mem.read(DATA_BASE, img._data_cursor - DATA_BASE)
        + mem.read(STACK_TOP - 0x4000, 0x4000)).hexdigest()


def _observed(sim: Simulator, call) -> tuple:
    """What a call leaves: its result and stats, or its fault, then the
    registers, flags, event counters and memory."""
    stats = RunStats()
    try:
        res = call(stats)
        out: tuple = (res.rax, res.xmm0, stats)
    except ReproError as exc:
        out = (type(exc), str(exc), sim.state.rip)
    st = sim.state
    return out + (st.gpr, st.xmm, st.flags_byte(), st.taken, st.unaligned16,
                  _memory_digest(sim.image))


def _both_ways(monkeypatch, run) -> tuple:
    """``run()`` on fresh block tables with closures only, then with every
    block generated after its first run; both outcomes, and how many
    blocks the second generated."""
    out = []
    for hot in (1 << 62, 1):
        monkeypatch.setattr(simulator, "_BLOCK_MEMO", {})
        monkeypatch.setattr(simulator, "_TABLES", {})
        monkeypatch.setattr(simulator, "_HOT_RUNS", hot)
        out.append(run())
    generated = sum(blk.run is not None
                    for _, blk in simulator._BLOCK_MEMO.values())
    return out[0], out[1], generated


@pytest.fixture(scope="module")
def fig9():
    ws = StencilWorkspace(JacobiSetup(sz=17, sweeps=1))
    cells = []
    for code in CODES:
        for line in (False, True):
            for mode in MODES:
                addr = prepare_kernel(ws, code, mode, line=line).kernel_addr
                cells.append((f"{code}.{'line' if line else 'elem'}.{mode}",
                              ws.driver_for(addr, line=line),
                              (stencil_arg(ws, code), ws.m1, ws.m2)))
    return ws, cells


def test_fig9_cells_run_generated_equal_their_closure_runs(fig9,
                                                           monkeypatch):
    ws, cells = fig9
    assert len(cells) == 30

    def run(driver, args):
        sim = Simulator(ws.image)
        ws.reset_matrices()
        sim.call(driver, args, max_steps=500_000_000)  # generates
        ws.reset_matrices()
        return _observed(sim, lambda stats: sim.call(
            driver, args, stats=stats, max_steps=500_000_000))

    for name, driver, args in cells:
        closures, generated, count = _both_ways(
            monkeypatch, lambda: run(driver, args))
        assert count > 0, name
        assert generated == closures, name


def test_corpus_functions_run_generated_equal_their_closure_runs(
        monkeypatch):
    for kind in diffcorpus.KINDS:
        for seed in CORPUS_SEEDS:
            rng = random.Random(seed)
            asm = diffcorpus.GENERATORS[kind](rng)
            pattern = diffcorpus._scratch_pattern(rng)
            probes = diffcorpus._probe_args(rng, kind)

            def run():
                img = Image()
                base = img.next_code_addr()
                img.add_function("f", assemble(parse_asm(asm), base=base)[0])
                scratch = img.alloc_data(diffcorpus.SCRATCH, align=16)
                sim = Simulator(img)
                rows = []
                for p in probes:
                    args = ((p[0], p[1], scratch), ()) if kind == "int" \
                        else ((scratch,), (p[0], p[1]))
                    for _ in range(2):  # the second runs generated
                        img.memory.write(scratch, pattern)
                        rows.append(_observed(sim, lambda stats: sim.call(
                            base, *args, stats=stats)))
                return rows

            closures, generated, count = _both_ways(monkeypatch, run)
            assert count > 0, (kind, seed)
            assert generated == closures, (kind, seed)


def _hand_made():
    """Every hand-made block of ``test_block_engine.py``: ``(name, source,
    entry label, int args, the args of a call that may fault, max_steps)``.
    """
    out = [(f"flags: {n}", src, None, args, args, None)
           for n, (src, args) in _FLAG_BLOCKS.items()]
    out += [(f"chain: {n}", src, "entry", args, args, None)
            for n, (src, args, _) in _CHAINS.items()]
    for n, (src, args, _, _) in _FAULTS.items():
        if n != "spin":  # never returns, so never generated
            out.append((f"fault: {n}", src, None, (0x800000,), args, None))
    out += [(f"max_steps {k}", _STEPS_SRC, None, (), (), k)
            for k in range(8)]
    return out


@pytest.mark.parametrize("case", _hand_made(), ids=lambda case: case[0])
def test_hand_made_blocks_run_generated_equal_their_closure_runs(
        case, monkeypatch):
    _, src, entry, warm, args, max_steps = case

    def run():
        img = Image()
        data = img.alloc_data(64, align=16)
        assert data == 0x800000  # where the fault rows' addresses point
        addr, labels = _install_labels(img, "f", src)
        addr = labels.get(entry, addr)
        sim = Simulator(img)
        sim.call(addr, tuple(a & MASK64 for a in warm))  # generates
        kw = {} if max_steps is None else {"max_steps": max_steps}
        return _observed(sim, lambda stats: sim.call(
            addr, tuple(a & MASK64 for a in args), stats=stats, **kw))

    closures, generated, count = _both_ways(monkeypatch, run)
    assert count > 0
    assert generated == closures


# -- (c) edges ------------------------------------------------------------------


def _hot(monkeypatch) -> None:
    """Generate every block after its first run, on fresh tables."""
    monkeypatch.setattr(simulator, "_BLOCK_MEMO", {})
    monkeypatch.setattr(simulator, "_TABLES", {})
    monkeypatch.setattr(simulator, "_HOT_RUNS", 1)


def _entry_state() -> CPUState:
    st = CPUState()
    st.gpr[4] = STACK_TOP - 8
    return st


def test_a_block_cut_at_its_longest_returns_its_fall_through(monkeypatch):
    _hot(monkeypatch)
    img = Image()
    addr = _install(img, "f", "add rax, 1\n" * 300 + "ret")
    sim = Simulator(img)
    assert sim.call_int(addr) == 300
    blk = _block_at(img, addr)
    assert blk.n == simulator._BLOCK_MAX and blk.run is not None
    st = _entry_state()
    assert blk.run(st, img.memory) == addr + 4 * simulator._BLOCK_MAX
    assert st.gpr[RAX] == simulator._BLOCK_MAX
    assert sim.call_int(addr) == 300


def test_a_block_cut_before_an_unbindable_instruction_returns_its_fall_through(
        monkeypatch):
    """``ud2`` binds nothing: the block is the ``add`` alone, and its
    function returns the address of ``ud2``, where the fault comes from."""
    _hot(monkeypatch)
    img = Image()
    base = img.next_code_addr()
    img.add_function("f", bytes.fromhex("4801f7" "0f0b" "c3"))
    sim = Simulator(img)
    with pytest.raises(ReproError, match="unimplemented"):
        sim.call("f", (1, 2))
    blk = _block_at(img, base)
    simulator._promote(blk)  # a call that faults settles nothing
    st = _entry_state()
    st.gpr[7], st.gpr[6] = 1, 2
    assert blk.run(st, img.memory) == base + 3
    assert st.gpr[7] == 3


def test_a_fault_mid_block_leaves_the_closure_chains_state(monkeypatch):
    src = ("mov rax, 1\npush rax\nmov rcx, 2\nmov rdx, [rdi]\npop rcx\n"
           "add rax, rdx\nret")

    def run():
        img = Image()
        data = img.alloc_data(64)
        addr = _install(img, "f", src)
        sim = Simulator(img)
        assert sim.call_int(addr, (data,)) == 1
        return _observed(sim, lambda stats: sim.call(addr, (0x10,),
                                                     stats=stats))

    closures, generated, count = _both_ways(monkeypatch, run)
    assert count > 0
    assert generated == closures
    assert closures[:2] == (MemoryAccessError,
                            "unmapped access at 0x10 size 8")


@pytest.mark.parametrize("max_steps", range(7))
def test_max_steps_still_single_steps_a_generated_block(max_steps,
                                                        monkeypatch):
    """The instructions up to the one that crosses the limit run, so a
    fault before it still wins: the ``[rdi]`` load is the third, and a
    limit of 2 or more faults there."""
    _hot(monkeypatch)
    img = Image()
    data = img.alloc_data(64)
    addr = _install(img, "f", "add rax, 1\nadd rax, 2\nmov rdx, [rdi]\n"
                               "add rax, 4\nadd rax, 8\nadd rax, 16\nret")
    sim = Simulator(img)
    assert sim.call_int(addr, (data,)) == 31
    assert _block_at(img, addr).run is not None
    want = SimulatorError if max_steps < 2 else MemoryAccessError
    with pytest.raises(want) as info:
        sim.call(addr, (0x10,), max_steps=max_steps)
    assert type(info.value) is want
    assert sim.state.gpr[RAX] == (1, 3, 3, 3, 3, 3, 3)[max_steps]


def test_a_patched_generated_block_is_never_served(monkeypatch):
    _hot(monkeypatch)
    img = Image()
    addr = _install(img, "f", "mov eax, 7\nadd rax, rdi\nret")
    sim = Simulator(img)
    assert sim.call_int(addr, (1,)) == 8
    old = _block_at(img, addr)
    assert old.run is not None
    img.patch_code(addr + 2, (9).to_bytes(4, "little"))  # C7 C0 imm32
    assert sim.call_int(addr, (1,)) == 10
    assert _block_at(img, addr) is not old
    # a raw write behind the image's back, then invalidate_code
    assert sim.call_int(addr, (1,)) == 10
    new = _block_at(img, addr)
    img.memory.write(addr + 2, (11).to_bytes(4, "little"))
    sim.invalidate_code()
    assert sim.call_int(addr, (1,)) == 12
    assert _block_at(img, addr) not in (old, new)


def test_a_journaled_memory_runs_the_closures(monkeypatch):
    """A gate's shadow shares the live image's blocks: a generated block
    must not write past its journal, and the writes it journals are the
    ones the closures journal."""
    def run():
        img = Image()
        data = img.alloc_data(64)
        addr = _install(img, "f", "mov [rdi], rsi\nmov rax, [rdi]\n"
                                   "add rax, 1\nret")
        sim = Simulator(img)
        assert sim.call_int(addr, (data, 1)) == 2  # generates
        shadow = Image.__new__(Image)
        shadow.memory = JournaledMemory(img.memory)
        token = img.instance_token()
        shadow.instance_token = lambda: token
        shadow.symbols, shadow.func_sizes = img.symbols, img.func_sizes
        got = Simulator(shadow).call_int(addr, (data, 41))
        return (got, img.memory.read_u64(data), shadow.memory.rollback(),
                _block_at(img, addr).runs)

    closures, generated, count = _both_ways(monkeypatch, run)
    assert count > 0
    assert generated == closures
    assert generated[:2] == (42, 1)
    assert generated[3] == 1, "a journaled run counts towards no promotion"
