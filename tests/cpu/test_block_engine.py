"""The block-compiled simulator against a golden fixture of the old engine.

``golden_simulator.json`` was captured at the commit *before* the block
engine (fetch → ``semantics.execute`` → ``instruction_cost`` per dynamic
instruction) by running this file as a script::

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
"""

from __future__ import annotations

import json
import random
import sys
import threading
from pathlib import Path

import pytest

from repro.bench.harness import stencil_arg
from repro.bench.modes import CODES, MODES, prepare_kernel
from repro.cpu import CostModel, HASWELL, Image, Simulator
from repro.cpu.simulator import RunStats
from repro.errors import MemoryAccessError, SimulatorError
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.testing import diffcorpus
from repro.x86 import parse_asm
from repro.x86.asm import assemble

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
                merged = RunStats()
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
                    merged.merge(stats)
                case[name] = rows
                case["per_mnemonic"] = dict(sorted(
                    merged.per_mnemonic.items()))
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


if __name__ == "__main__":
    if sys.argv[1:2] != ["--capture"]:
        sys.exit("usage: test_block_engine.py --capture [OUT]")
    target = Path(sys.argv[2]) if len(sys.argv) > 2 else GOLDEN
    target.write_text(_dump(capture()))
    print(f"wrote {target}")
