"""The block-compiled simulator against a golden fixture of the old engine.

``golden_simulator.json`` was captured at the commit *before* the block
engine (fetch, ``semantics.execute`` and a cost with its taken-branch and
unaligned penalties per dynamic instruction) by running this file as a
script::

    PYTHONPATH=<parent>/src python tests/cpu/test_block_engine.py --capture

It holds ``instructions``, ``cycles``, ``taken_branches``, ``per_mnemonic``
and ``rax``/``xmm0`` for one sweep of the 30 Fig. 9 cells at ``sz=17`` and
for 50 int + 50 sse corpus seeds, each under three cost models.  The tests
below recompute the same dict with the current engine and demand equality —
floats included, bit for bit, under the two models whose constants are
dyadic.  Under the third (``unaligned16_penalty=0.3``) the old engine's
running total depended on the order of the additions; the block engine forms
the same sum as block cost × times run, so ``cycles`` is held to a relative
1e-12 there and everything else exactly.

The ``dbrew`` and ``dbrew+llvm`` cells of ``flat`` and ``sorted`` were
re-captured with the block engine when DBrew began to count a fork only
against the loop it sits in and to emit known source registers as
immediates: DBrew emits other code for them, so they run other
instructions.  Every other cell is the old engine's capture.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from pathlib import Path

import pytest

from repro.arith import f64_to_bits
from repro.bench.harness import stencil_arg
from repro.bench.modes import CODES, MODES, prepare_kernel
from repro.cpu import CostModel, HASWELL, Image, Simulator, semantics
from repro.cpu.image import RETURN_SENTINEL, STACK_TOP
from repro.cpu.semantics import execute
from repro.cpu.simulator import RunStats, _table_for
from repro.cpu.state import MASK64, CPUState
from repro.errors import MemoryAccessError, SimulatorError
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.testing import diffcorpus
from repro.x86 import parse_asm
from repro.x86.asm import assemble, assemble_full
from repro.x86.decoder import decode_one
from repro.x86.effects import effects_of
from repro.x86.registers import RDI, RSI, SYSV_INT_ARGS

GOLDEN = Path(__file__).with_name("golden_simulator.json")

#: dyadic default, a dyadic override, and a non-dyadic one — the last makes
#: a cycle sum depend on the order of the float additions
MODELS: dict[str, CostModel] = {
    "haswell": HASWELL,
    "addsd100": CostModel().with_base({"addsd": 100}),
    "nondyadic": CostModel().with_overrides(load_penalty=10.0,
                                            unaligned16_penalty=0.3),
}
CORPUS_SEEDS = range(50)


def _row(res, stats: RunStats) -> dict:
    return {"instructions": stats.instructions, "cycles": stats.cycles,
            "taken_branches": stats.taken_branches, "rax": res.rax,
            "xmm0": res.xmm0}


def capture_fig9() -> dict:
    """One sweep of every Fig. 9a/9b cell under every model."""
    ws = StencilWorkspace(JacobiSetup(sz=17, sweeps=1))
    out: dict = {}
    for code in CODES:
        for line in (False, True):
            for mode in MODES:
                addr = prepare_kernel(ws, code, mode, line=line).kernel_addr
                driver = ws.driver_for(addr, line=line)
                args = (stencil_arg(ws, code), ws.m1, ws.m2)
                cell: dict = {}
                for name, model in MODELS.items():
                    ws.reset_matrices()
                    stats = RunStats()
                    res = Simulator(ws.image, model).call(
                        driver, args, stats=stats, max_steps=500_000_000)
                    cell[name] = _row(res, stats)
                    cell["per_mnemonic"] = dict(sorted(
                        stats.per_mnemonic.items()))
                out[f"{code}.{'line' if line else 'elem'}.{mode}"] = cell
    return out


def capture_corpus() -> dict:
    """The corpus generators' functions on the native simulator only."""
    out: dict = {}
    for kind in diffcorpus.KINDS:
        for seed in CORPUS_SEEDS:
            rng = random.Random(seed)
            asm = diffcorpus.GENERATORS[kind](rng)
            pattern = diffcorpus._scratch_pattern(rng)
            probes = diffcorpus._probe_args(rng, kind)
            img = Image()
            base = img.next_code_addr()
            code, _ = assemble(parse_asm(asm), base=base)
            img.add_function("f", code)
            scratch = img.alloc_data(diffcorpus.SCRATCH, align=16)
            case: dict = {}
            for name, model in MODELS.items():
                sim = Simulator(img, model)
                per_mnemonic: dict[str, int] = {}
                rows = []
                for p in probes:
                    img.memory.write(scratch, pattern)
                    stats = RunStats()
                    if kind == "int":
                        res = sim.call(base, (p[0], p[1], scratch),
                                       stats=stats)
                    else:
                        res = sim.call(base, (scratch,), (p[0], p[1]),
                                       stats=stats)
                    rows.append(_row(res, stats))
                    for k, v in stats.per_mnemonic.items():
                        per_mnemonic[k] = per_mnemonic.get(k, 0) + v
                case[name] = rows
                case["per_mnemonic"] = dict(sorted(per_mnemonic.items()))
            out[f"{kind}.{seed}"] = case
    return out


def capture() -> dict:
    return {"fig9": capture_fig9(), "corpus": capture_corpus()}


def _dump(golden: dict) -> str:
    """JSON with one line per cell / corpus case."""
    sections = []
    for name, cells in sorted(golden.items()):
        rows = ",\n".join(f"{json.dumps(key)}: "
                          f"{json.dumps(cell, sort_keys=True)}"
                          for key, cell in sorted(cells.items()))
        sections.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


# -- (a) golden fixture --------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _loosen(cell: dict) -> dict:
    """``cell`` with the non-dyadic cycle sums compared approximately."""
    rows = cell["nondyadic"]
    approx = [{**r, "cycles": pytest.approx(r["cycles"], rel=1e-12, abs=0)}
              for r in (rows if isinstance(rows, list) else [rows])]
    return {**cell, "nondyadic": approx if isinstance(rows, list)
            else approx[0]}


def _assert_same(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == _loosen(want[key]), key


def test_fig9_cells_match_the_old_engine(golden):
    inexact = [c for c in golden["fig9"].values()
               if c["nondyadic"]["cycles"] % 1 != 0]
    assert inexact, "the fixture must hold order-dependent cycle sums"
    _assert_same(capture_fig9(), golden["fig9"])


def test_corpus_functions_match_the_old_engine(golden):
    _assert_same(capture_corpus(), golden["corpus"])


# -- (b) invalidation by content token, never by invalidate_code() -------------


def _install(img: Image, name: str, src: str) -> int:
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(src), base=base)
    return img.add_function(name, code)


def test_patched_immediate_is_seen_without_invalidate_code():
    img = Image()
    addr = _install(img, "f", "mov eax, 7\nret")  # C7 C0 imm32, C3
    sim = Simulator(img)
    assert sim.call_int("f") == 7
    img.patch_code(addr + 2, (8).to_bytes(4, "little"))
    assert sim.call_int("f") == 8


def test_function_added_at_an_executed_fall_through_address():
    img = Image()
    # 16 bytes without a terminator: execution runs off the end of f into
    # the zero bytes behind it (`add [rax], al` at rax = 7: unmapped)
    _install(img, "f", "mov eax, 7\n" + "nop\n" * 10)
    sim = Simulator(img)
    with pytest.raises(MemoryAccessError):
        sim.call("f")
    tail = _install(img, "g", "add rax, 1\nret")
    assert tail == img.symbol("f") + 16
    assert sim.call_int("f") == 8


def test_two_simulators_see_each_others_patches():
    img = Image()
    addr = _install(img, "f", "mov eax, 1\nret")
    one, two = Simulator(img), Simulator(img)
    assert one.call_int("f") == two.call_int("f") == 1
    img.patch_code(addr + 2, (2).to_bytes(4, "little"))
    assert two.call_int("f") == one.call_int("f") == 2
    _install(img, "g", "mov eax, 3\nret")
    assert one.call_int("g") == two.call_int("g") == 3
    assert one.call_int("f") == 2


def test_failed_patch_never_lends_its_token_to_other_bytes():
    """A patch whose hook raises is rolled back; blocks compiled while its
    bytes were in place must not be served for the next patch's bytes."""
    img = Image()
    addr = _install(img, "f", "mov eax, 1\nret")
    sim = Simulator(img)
    seen = []

    def hook(a, s):
        seen.append(sim.call_int("f"))  # compiles under the patch's token
        if len(seen) == 1:
            raise RuntimeError("hook failed")

    img.add_invalidation_hook(hook)
    before = img.instance_token()
    with pytest.raises(RuntimeError):
        img.patch_code(addr + 2, (2).to_bytes(4, "little"))
    assert img.generation == 0 and img.instance_token() != before
    assert sim.call_int("f") == 1
    img.patch_code(addr + 2, (3).to_bytes(4, "little"))
    assert sim.call_int("f") == 3
    assert seen == [2, 1, 3]


def test_invalidate_code_covers_a_raw_write_into_code():
    img = Image()
    addr = _install(img, "f", "mov eax, 1\nret")
    one, two = Simulator(img), Simulator(img)
    assert one.call_int("f") == two.call_int("f") == 1
    img.memory.write(addr + 2, (2).to_bytes(4, "little"))
    one.invalidate_code()
    assert one.call_int("f") == two.call_int("f") == 2


def test_cost_models_never_share_cycle_sums():
    img = Image()
    _install(img, "f", "addsd xmm0, xmm1\nret")
    dear = Simulator(img, MODELS["addsd100"])
    assert Simulator(img).call("f").stats.cycles == 3 + 2 + 3
    assert dear.call("f").stats.cycles == 100 + 2 + 3
    assert Simulator(img).call("f").stats.cycles == 3 + 2 + 3


# -- (c) faults are typed as before and leave the shared table usable ----------

_FAULTS = {
    # the load is the third instruction of its block
    "unmapped": ("mov rax, 1\nmov rcx, 2\nmov rdx, [rdi]\nret", (0x10,),
                 MemoryAccessError, "unmapped access"),
    "movapd": ("mov rax, 1\nmovapd xmm0, [rdi]\nret", (0x800008,),
               SimulatorError, "misaligned movapd"),
    "idiv": ("mov rax, 1\ncqo\nidiv rdi\nret", (0,),
             SimulatorError, "division by zero"),
    "spin": ("top:\nadd rax, 1\njmp top", (0,),
             SimulatorError, "exceeded 1000 simulated instructions"),
}


@pytest.mark.parametrize("name", sorted(_FAULTS))
def test_fault_keeps_its_type_and_the_table(name):
    src, args, exc_type, message = _FAULTS[name]
    img = Image()
    img.alloc_data(64)
    _install(img, "bad", src)
    _install(img, "good", "lea rax, [rdi + 5]\nret")
    sim = Simulator(img)
    stats = RunStats()
    for _ in range(2):  # the second raise runs the already compiled block
        with pytest.raises(exc_type, match=message) as info:
            sim.call("bad", args, max_steps=1000, stats=stats)
        assert type(info.value) is exc_type
    assert stats == RunStats(), "a call that raises settles nothing"
    assert sim.call_int("good", (10,)) == 15
    assert Simulator(img).call_int("good", (1,)) == 6


def test_max_steps_counts_single_instructions():
    img = Image()
    _install(img, "f", "mov rax, 1\n" * 9 + "ret")  # one block of 10
    sim = Simulator(img)
    assert sim.call("f", max_steps=10).stats.instructions == 10
    with pytest.raises(SimulatorError, match="exceeded 9 simulated"):
        sim.call("f", max_steps=9)


# -- (d) threads call through the shared table while code is installed ----------


def test_preemption_hammer_8_threads():
    """8 threads, one simulator each, call functions of one image while the
    main thread patches one of them and installs new ones: every call made
    between two quiescent points must see the code of that round."""
    img = Image()
    addr = _install(img, "f", """
        mov eax, 0
        mov rcx, rdi
    top:
        add rax, rcx
        sub rcx, 1
        jne top
        ret
    """)
    NTHREADS, NROUNDS, RUNS = 8, 20, 5
    start = threading.Barrier(NTHREADS + 1)
    done = threading.Barrier(NTHREADS + 1)
    state = {"k": 0, "stop": False}
    errors: list = []

    def worker():
        sim = Simulator(img)
        while True:
            start.wait(timeout=60)
            if state["stop"]:
                return
            k = state["k"]
            for _ in range(RUNS):
                got = sim.call_int("f", (10,))
                if got != 55 + k:
                    errors.append(("f", k, got))
                if k and sim.call_int(f"g{k}") != k:
                    errors.append(("g", k))
            done.wait(timeout=60)

    threads = [threading.Thread(target=worker) for _ in range(NTHREADS)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    for t in threads:
        t.start()
    try:
        for rnd in range(1, NROUNDS + 1):
            start.wait(timeout=60)  # workers hammer round rnd-1 ...
            # ... while this thread installs code next to what they run
            _install(img, f"g{rnd}", f"mov eax, {rnd}\nret")
            done.wait(timeout=60)   # quiesce before patching f itself
            img.patch_code(addr + 2, rnd.to_bytes(4, "little"))
            state["k"] = rnd
    finally:
        state["stop"] = True
        start.wait(timeout=60)
        for t in threads:
            t.join(timeout=60)
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:5]


# -- (e) a block computes only the flags it reads, exact at return ------------


def _stepped(img: Image, target: int, int_args: tuple = (),
             f64_args: tuple = (), *, stats: RunStats | None = None,
             limit: int | None = None) -> CPUState:
    """The state at return of a call run one ``semantics.execute`` at a
    time — every instruction sets every flag it writes — from the same
    SysV entry state as ``Simulator.call``, or after ``limit``
    instructions.  ``stats`` adds up what each instruction costs under
    ``HASWELL``, one instruction at a time."""
    st = CPUState()
    st.gpr[4] = STACK_TOP - 8
    for reg, val in zip(SYSV_INT_ARGS, int_args):
        st.gpr[reg] = val & MASK64
    for i, val in enumerate(f64_args):
        st.xmm[i] = f64_to_bits(val)
    mem = img.memory
    mem.write_u64(st.gpr[4], RETURN_SENTINEL)
    st.rip = target
    decoded: dict = {}
    steps = 0
    while st.rip != RETURN_SENTINEL and steps != limit:
        ins = decoded.get(st.rip)
        if ins is None:
            ins = decoded[st.rip] = decode_one(mem.window(st.rip, 16), 0,
                                               st.rip)
        taken, unaligned = st.taken, st.unaligned16
        execute(ins, st, mem)
        steps += 1
        if stats is not None:
            fx, m = effects_of(ins), ins.mnemonic
            stats.instructions += 1
            stats.loads += fx.mem_read
            stats.stores += fx.mem_write
            stats.per_mnemonic[m] = stats.per_mnemonic.get(m, 0) + 1
            stats.cycles += (
                HASWELL.static_cost(ins)
                + (st.taken - taken) * HASWELL.taken_branch_penalty
                + (st.unaligned16 - unaligned) * HASWELL.unaligned16_penalty)
            stats.taken_branches += st.taken - taken
    return st


#: one block each; args are rdi, rsi, rdx, rcx
_FLAG_BLOCKS = {
    # a shift by cl = 0 leaves every flag alone: add's survive it
    "shift by cl = 0": ("add rdi, rsi\nshl rdx, cl\nret", (-1, 1, 5, 0)),
    "shift by cl = 1": ("add rdi, rsi\nshl rdx, cl\nret", (-1, 1, 5, 1)),
    # inc kills OF and AF, so only add's CF is live above the shift
    "shift by cl = 0, then inc": ("add rdi, rsi\nshl rdx, cl\ninc rdi\nret",
                                  (-1, 1, 5, 0)),
    # inc leaves the carry: add's carry survives it
    "inc keeps CF": ("add rdi, rsi\ninc rdi\nret", (-1, 1)),
    # read in the middle, then overwritten
    "setl then add": ("cmp rdi, rsi\nsetl al\nadd rdi, 1\nret", (-3, 4)),
    "adc reads CF": ("sub rdi, rsi\nadc rax, 0\nxor edx, edx\nret", (1, 2)),
    "imul at exit": ("imul rdi, rsi\nret", (1 << 40, 1 << 30)),
    "dead test": ("test rdi, rdi\nsub rdi, rsi\nret", (0, 1)),
    # ISA-undefined flags that the binder leaves: add's survive them
    "shl by 2 keeps OF, AF": ("add rdi, rsi\nshl rdx, 2\nret",
                              (0x7FFF_FFFF_FFFF_FFFF, 1, 5)),
    "idiv keeps all six": ("add rdi, rsi\nmov rax, rdi\ncqo\nidiv rcx\nret",
                           (0x7FFF_FFFF_FFFF_FFFF, 1, 0, 3)),
    "imul r, r keeps AF": ("add rdi, rsi\nimul rdx, rcx\nret", (0xF, 1, 3, 5)),
    "mul keeps SZAP": ("add rdi, rsi\nmov rax, rdi\nmul rcx\nret",
                       (-1, 1, 0, 7)),
    # rol kills only OF and CF: imul's SZP, undefined but set, are live
    "imul under rol": ("imul rdi, rsi\nrol rdx, 1\nret", (-3, 5, 1)),
}


@pytest.mark.parametrize("name", sorted(_FLAG_BLOCKS))
def test_flags_at_return_of_one_block_equal_single_stepping(name):
    src, args = _FLAG_BLOCKS[name]
    img = Image()
    addr = _install(img, "f", src)
    sim = Simulator(img)
    res = sim.call(addr, tuple(a & MASK64 for a in args))
    ref = _stepped(img, addr, tuple(a & MASK64 for a in args))
    assert (sim.state.flags_byte(), res.rax) == (ref.flags_byte(), ref.gpr[0])


def test_an_unbindable_instruction_ends_the_block_with_every_flag_live(
        monkeypatch):
    """``ud2`` decodes but has no binder: the block ends before it, so the
    ``add`` in front of it sets its flags although the ``sub`` behind it
    would have overwritten them, and the fault comes only when execution
    gets to ``ud2``.  Decoding stops at ``ud2`` too: ``add`` and ``ud2``
    once for the first block, ``ud2`` again for the block that faults."""
    decoded = []

    def counting_decode(*args):
        ins = decode_one(*args)
        decoded.append(ins.mnemonic)
        return ins
    monkeypatch.setattr("repro.cpu.simulator.decode_one", counting_decode)
    monkeypatch.setattr("repro.cpu.simulator._BLOCK_MEMO", {})
    img = Image()
    base = img.next_code_addr()
    # add rdi, rsi; ud2; sub rdi, 1; ret
    img.add_function("f", bytes.fromhex("4801f7" "0f0b" "4883ef01" "c3"))
    sim = Simulator(img)
    with pytest.raises(SimulatorError, match="unimplemented"):
        sim.call("f", (1, 2))
    assert sim.state.rip == base + 3
    assert decoded == ["add", "ud2", "ud2"]
    assert sim.state.flags_byte() == _flags_of_first(img, base, (1, 2)) \
        != CPUState().flags_byte()


def test_a_refused_binding_cuts_the_run_with_every_flag_live(monkeypatch):
    """A binder may refuse an operand form it does not model (an indirect
    transfer, say); that shows only when the decoded run is bound.  The run
    is cut in front of it with every flag live, so the ``add`` sets its
    flags although the ``cmp`` behind the refused ``sub`` overwrites them."""
    def refuse(ins, *_):
        raise semantics._unimplemented(ins)
    monkeypatch.setitem(semantics._BINDERS, "sub", refuse)
    # no block bound under the refusing binder outlives this test
    monkeypatch.setattr("repro.cpu.simulator._BLOCK_MEMO", {})
    img = Image()
    base = _install(img, "f", "add rdi, rsi\nsub rdi, 1\ncmp rdi, 0\nret")
    sim = Simulator(img)
    with pytest.raises(SimulatorError, match="unimplemented"):
        sim.call("f", (1, 2))
    assert sim.state.rip == base + 3
    assert sim.state.flags_byte() == _flags_of_first(img, base, (1, 2)) \
        != CPUState().flags_byte()


def _flags_of_first(img: Image, addr: int, args: tuple[int, int]) -> int:
    """The flags after ``execute`` of the instruction at ``addr`` alone,
    from ``rdi, rsi = args``."""
    ref = CPUState()
    ref.gpr[RDI], ref.gpr[RSI] = args
    execute(decode_one(img.memory.window(addr, 16), 0, addr), ref,
            img.memory)
    return ref.flags_byte()


def test_fig9_flags_at_return_equal_single_stepping():
    ws = StencilWorkspace(JacobiSetup(sz=17, sweeps=1))
    for code in CODES:
        for line in (False, True):
            for mode in MODES:
                addr = prepare_kernel(ws, code, mode, line=line).kernel_addr
                driver = ws.driver_for(addr, line=line)
                args = (stencil_arg(ws, code), ws.m1, ws.m2)
                ws.reset_matrices()
                sim = Simulator(ws.image)
                res = sim.call(driver, args, max_steps=500_000_000)
                ws.reset_matrices()
                ref = _stepped(ws.image, driver, args)
                cell = f"{code}.{'line' if line else 'elem'}.{mode}"
                assert (sim.state.flags_byte(), res.rax, res.xmm0) == (
                    ref.flags_byte(), ref.gpr[0], ref.xmm[0]), cell


def test_corpus_flags_at_return_equal_single_stepping():
    for kind in diffcorpus.KINDS:
        for seed in CORPUS_SEEDS:
            rng = random.Random(seed)
            asm = diffcorpus.GENERATORS[kind](rng)
            pattern = diffcorpus._scratch_pattern(rng)
            probes = diffcorpus._probe_args(rng, kind)
            img = Image()
            base = img.next_code_addr()
            code, _ = assemble(parse_asm(asm), base=base)
            img.add_function("f", code)
            scratch = img.alloc_data(diffcorpus.SCRATCH, align=16)
            sim = Simulator(img)
            for p in probes:
                args = ((p[0], p[1], scratch), ()) if kind == "int" \
                    else ((scratch,), (p[0], p[1]))
                img.memory.write(scratch, pattern)
                sim.call(base, *args)
                img.memory.write(scratch, pattern)
                ref = _stepped(img, base, *args)
                assert sim.state.flags_byte() == ref.flags_byte(), \
                    (kind, seed, p)


# -- (f) a block runs on through direct jmp and call ---------------------------

#: hand-assembled, since the corpus has no branches: the source (entered
#: at ``entry:`` if it has one), rdi and rsi, and the instructions the
#: first block decodes — one run through every direct transfer whose
#: target it has not decoded yet
_CHAINS = {
    "forward jmp chain": ("""
        cmp rdi, rsi
        jmp a
        ud2
    a:
        setl al
        add rax, rdi
        jmp b
        ud2
    b:
        imul rax, rsi
        ret
    """, (3, 5), ["cmp", "jmp", "setl", "add", "jmp", "imul", "ret"]),
    "backward jmp target": ("""
    back:
        add rax, rsi
        ret
    entry:
        mov rax, rdi
        jmp back
    """, (3, 5), ["mov", "jmp", "add", "ret"]),
    "call and ret into a leaf": ("""
        mov rax, rdi
        call leaf
        add rax, rsi
        ret
    leaf:
        cmp rdi, rsi
        setg cl
        imul rax, rsi
        movzx ecx, cl
        add rax, rcx
        ret
    """, (7, -2), ["mov", "call", "cmp", "setg", "imul", "movzx", "add",
                   "ret"]),
    "a loop whose blocks chain": ("""
        xor eax, eax
    top:
        jmp body
    done:
        ret
    body:
        add rax, rdi
        sub rdi, 1
        jg top
        jmp done
    """, (6, 0), ["xor", "jmp", "add", "sub", "jg"]),
}


def _first_decodes(monkeypatch) -> list[str]:
    """The mnemonics the simulator decodes from now on, in order, with an
    empty block memo (so equal bytes an earlier test ran still decode)."""
    decoded: list[str] = []

    def counting_decode(*args):
        ins = decode_one(*args)
        decoded.append(ins.mnemonic)
        return ins
    monkeypatch.setattr("repro.cpu.simulator.decode_one", counting_decode)
    monkeypatch.setattr("repro.cpu.simulator._BLOCK_MEMO", {})
    return decoded


def _block_at(img: Image, addr: int):
    """The block compiled at ``addr`` for the image's current code."""
    return _table_for(img.instance_token(), HASWELL)[addr]


def _install_labels(img: Image, name: str, src: str) -> tuple[int, dict]:
    base = img.next_code_addr()
    code, _, labels = assemble_full(parse_asm(src), base)
    return img.add_function(name, code), labels


@pytest.mark.parametrize("name", sorted(_CHAINS))
def test_a_chained_block_equals_single_stepping(name, monkeypatch):
    src, args, first_block = _CHAINS[name]
    decoded = _first_decodes(monkeypatch)
    img = Image()
    addr, labels = _install_labels(img, "f", src)
    addr = labels.get("entry", addr)
    args = tuple(a & MASK64 for a in args)
    sim = Simulator(img)
    res = sim.call(addr, args)
    assert decoded[:len(first_block)] == first_block
    assert _block_at(img, addr).n == len(first_block)
    want = RunStats()
    ref = _stepped(img, addr, args, stats=want)
    assert res.stats == want
    assert (res.rax, sim.state.flags_byte()) == (ref.gpr[0], ref.flags_byte())


@pytest.mark.parametrize("src, first_block", [
    ("top:\nadd rax, 1\njmp top", ["add", "jmp"]),
    ("mov eax, 5\ntop:\nadd rax, 3\njmp top",
     ["mov", "add", "jmp", "add", "jmp"]),
], ids=["to its own entry", "into its middle"])
def test_a_jmp_back_into_the_run_ends_the_block(src, first_block,
                                                 monkeypatch):
    """The target is decoded already: the block ends at the ``jmp``, and
    the one at its target loops until ``max_steps``."""
    decoded = _first_decodes(monkeypatch)
    img = Image()
    addr = _install(img, "f", src)
    sim = Simulator(img)
    with pytest.raises(SimulatorError, match="exceeded 100 simulated"):
        sim.call(addr, max_steps=100)
    assert decoded == first_block
    assert _block_at(img, addr).n == first_block.index("jmp") + 1
    assert sim.state.gpr[0] == _stepped(img, addr, limit=101).gpr[0]


_STEPS_SRC = """
    add rax, 1
    jmp a
a:
    add rax, 2
    add rax, 4
    jmp b
b:
    add rax, 8
    ret
"""


@pytest.mark.parametrize("max_steps", range(7))
def test_max_steps_crossed_inside_the_chained_part(max_steps):
    """One block of seven: a limit crossed anywhere in it runs exactly the
    instructions single-stepping runs before it raises."""
    img = Image()
    addr = _install(img, "f", _STEPS_SRC)
    sim = Simulator(img)
    with pytest.raises(SimulatorError,
                       match=f"exceeded {max_steps} simulated"):
        sim.call(addr, max_steps=max_steps)
    ref = _stepped(img, addr, limit=max_steps + 1)
    assert (sim.state.gpr[0], sim.state.gpr[4]) == (ref.gpr[0], ref.gpr[4])
    assert _block_at(img, addr).n == 7
    assert sim.call(addr, max_steps=7).stats.instructions == 7


def test_a_fault_after_the_chained_transfer():
    img = Image()
    data = img.alloc_data(64)
    img.memory.write_u64(data, 41)
    addr = _install(img, "f", "mov rax, 1\njmp a\na:\nmov rdx, [rdi]\n"
                               "lea rax, [rdx + 1]\nret")
    sim = Simulator(img)
    for _ in range(2):  # the second raise runs the compiled block
        with pytest.raises(MemoryAccessError) as info:
            sim.call(addr, (0x10,))
        assert sim.state.rip == addr
    with pytest.raises(type(info.value)):
        _stepped(img, addr, (0x10,))
    assert sim.call_int(addr, (data,)) == 42


def test_a_call_to_an_unmapped_target_faults_when_reached():
    """The run ends at the ``call``; its push and everything before it
    happen, and the fault is the one of a ``rip`` at the target."""
    img = Image()
    addr, labels = _install_labels(img, "f", "mov eax, 7\ncall 0x10\n"
                                             "back:\nret")
    sim = Simulator(img)
    with pytest.raises(SimulatorError, match="rip at unmapped address 0x10"):
        sim.call(addr)
    st = sim.state
    assert (st.rip, st.gpr[0]) == (0x10, 7)
    assert img.memory.read_u64(st.gpr[4]) == labels["back"]


def test_a_patched_chained_target_is_seen():
    img = Image()
    addr, labels = _install_labels(img, "f", "mov rax, rdi\njmp t\nud2\n"
                                             "t:\nadd rax, 1\nret")
    sim = Simulator(img)
    assert sim.call_int(addr, (10,)) == 11
    # add rax, imm8 is 48 83 c0 ib
    img.patch_code(labels["t"] + 3, b"\x05")
    assert sim.call_int(addr, (10,)) == 15


if __name__ == "__main__":
    if sys.argv[1:2] != ["--capture"]:
        sys.exit("usage: test_block_engine.py --capture [OUT]")
    target = Path(sys.argv[2]) if len(sys.argv) > 2 else GOLDEN
    target.write_text(_dump(capture()))
    print(f"wrote {target}")
