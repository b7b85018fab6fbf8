"""Every gate verdict against a golden fixture.

``golden_gate.json`` was captured at the commit *before* the gate's shadow
became a journaled memory — when ``DifferentialGate.check`` took two full
snapshots and two full restores per probe and ``_mem_diff`` walked both —
by running this file as a script::

    PYTHONPATH=<parent>/src python tests/guard/test_golden_gate.py --capture

It holds the complete :class:`~repro.guard.GateReport` (verdict, reason
string, conclusive count, every probe's outcome and diverged address) for
48 corpus functions (24 ``int``, 24 ``sse`` seeds of
``repro.testing.diffcorpus``) and the six stencil kernels, each gated
against: a clean ``llvm`` candidate, one candidate per entry of
:data:`CORRUPTIONS` compiled under ``inject_faults(..., corrupt=...)``, a
candidate that stores one wrong byte into the scratch area / the output
matrix, one that differs only in dead stack slots, one that faults, and an
instrumented candidate with and without its probe buffer in
``ignore_regions``.  The tests recompute the same dict and demand equality
field for field — the gate checks exactly what it checked, only cheaper.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.bench import modes as M
from repro.cpu import Image
from repro.guard import DifferentialGate, GateOptions
from repro.instrument import Instrumenter, InstrumentOptions
from repro.ir import instructions as I
from repro.ir.values import Constant
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.testing import diffcorpus as dc
from repro.testing.faults import inject_faults
from repro.x86 import parse_asm
from repro.x86.asm import assemble

GOLDEN = Path(__file__).with_name("golden_gate.json")

CORPUS_SEEDS = range(24)
SETUP = JacobiSetup(sz=17, sweeps=1)
KERNELS = tuple((code, line) for code in M.CODES for line in (False, True))
INSTRUMENT = InstrumentOptions(trace_memory=True, watch_returns=True,
                               ring_capacity=1024)


# -- miscompiling stages ------------------------------------------------------


def skew_constants(report, func, *rest):
    """Nudge every constant other than 0 and 1 (a wrong fold)."""
    for blk in func.blocks:
        for ins in blk.instructions:
            for i, op in enumerate(list(ins.operands)):
                if isinstance(op, Constant) and op.value not in (0, 1):
                    ins.operands[i] = Constant(op.type, op.value + 1)
    return report


def drop_last_store(result, func, *rest):
    """Delete the function's last store (a lost memory effect)."""
    for blk in reversed(func.blocks):
        for ins in reversed(blk.instructions):
            if isinstance(ins, I.Store):
                blk.instructions.remove(ins)
                return None
    return None


#: (label, stage, corrupt hook) — each compiles one wrong candidate
CORRUPTIONS = (
    ("skew-constants", "opt", skew_constants),
    ("drop-store", "opt", drop_last_store),
)


# -- hand-made candidates -----------------------------------------------------


def _install(image: Image, name: str, asm: str) -> int:
    code, _ = assemble(parse_asm(asm), base=image.next_code_addr())
    return image.add_function(name, code)


def _wrong_byte(image: Image, name: str, original: int, addr: int) -> int:
    """Run the original, then flip one byte of program memory at ``addr``."""
    return _install(image, name, f"""
        sub rsp, 8
        call {original:#x}
        mov rcx, {addr:#x}
        xor byte ptr [rcx], 0x5a
        add rsp, 8
        ret
    """)


def _dead_stack(image: Image, name: str, original: int) -> int:
    """Scribble over dead stack slots, then run the original."""
    return _install(image, name, f"""
        mov qword ptr [rsp - 2048], 0x1234567
        mov byte ptr [rsp - 4100], 0x42
        jmp {original:#x}
    """)


def _faulting(image: Image, name: str) -> int:
    return _install(image, name, """
        mov eax, 16
        mov rax, [rax]
        ret
    """)


# -- scenarios ----------------------------------------------------------------


def _dump(report) -> dict:
    return json.loads(json.dumps(asdict(report)))


def _candidates(image: Image, original: int, sig: FunctionSignature,
                probes: tuple, options: GateOptions, wrong_addr: int) -> dict:
    """``{candidate label: GateReport as a dict}`` for one function."""
    def check(addr: int, opts: GateOptions = options) -> dict:
        return _dump(DifferentialGate(image, opts).check(
            original, addr, sig, None, probes))

    tx = BinaryTransformer(image)
    out = {"clean": check(tx.llvm_identity(original, sig, name="c.clean").addr)}
    for label, stage, corrupt in CORRUPTIONS:
        with inject_faults(stage, every=True, corrupt=corrupt):
            addr = tx.llvm_identity(original, sig, name=f"c.{label}").addr
        out[label] = check(addr)
    out["wrong-byte"] = check(_wrong_byte(image, "c.byte", original, wrong_addr))
    out["dead-stack"] = check(_dead_stack(image, "c.stack", original))
    out["faulting"] = check(_faulting(image, "c.fault"))
    # the instrumenter's own admission gate carries the effects-whitelist;
    # without it the first probe-buffer store is a divergence
    inst = Instrumenter(image, machine_verify=False, gate_options=options) \
        .instrument(original, sig, options=INSTRUMENT, probes=probes,
                    name="c.instr")
    out["instrumented"] = _dump(inst.gate_report)
    out["instrumented-unlisted"] = check(inst.addr)
    # only the buffer's first word listed: the next probe store is reported
    first_word = (inst.buffer.addr, inst.buffer.addr + 8)
    out["instrumented-part-listed"] = check(
        inst.addr, replace(options, ignore_regions=(first_word,)))
    return out


def corpus_scenario(kind: str, seed: int) -> dict:
    rng = random.Random(seed)
    asm = dc.GENERATORS[kind](rng)
    pattern = dc._scratch_pattern(rng)
    probes = dc._probe_args(rng, kind)
    image = Image()
    base = image.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    image.add_function("f", code)
    scratch = image.alloc_data(dc.SCRATCH, align=16, data=pattern)
    if kind == "int":
        sig = FunctionSignature(("i", "i", "i"), "i")
        gate_probes = tuple((p[0], p[1], scratch) for p in probes)
    else:
        sig = FunctionSignature(("i", "f", "f"), "f")
        gate_probes = tuple((scratch, p[0], p[1]) for p in probes)
    return _candidates(image, base, sig, gate_probes,
                       GateOptions(samples=1, seed=seed), scratch + 9)


def stencil_scenario(code: str, line: bool) -> dict:
    ws = StencilWorkspace(SETUP)
    image = ws.image
    req = M.request(ws, code, line)
    original = image.symbol(req.func)
    # the unfixed form: the descriptor goes back into slot 0
    probe = req.probes[0] if req.fixes is None \
        else (req.descriptor, *req.probes[0])
    sz = SETUP.sz
    wrong = ws.m2 + 8 * (sz + 1) + 3  # inside the first cell the probe writes
    out = _candidates(image, original, req.signature, (probe,),
                      GateOptions(samples=2, seed=1), wrong)
    if req.fixes is not None:
        # the fixed-parameter form: the probe drops slot 0, the gate puts
        # the region's address back for both sides
        addr = BinaryTransformer(image).llvm_fixed(
            original, req.signature, req.fixes, name="c.fix").addr
        out["clean-fixed"] = _dump(DifferentialGate(
            image, GateOptions(samples=2, seed=1)).check(
            original, addr, req.signature, req.fixes, req.probes))
    return out


SCENARIOS = {
    **{f"corpus.{kind}.{seed}": (corpus_scenario, (kind, seed))
       for kind in dc.KINDS for seed in CORPUS_SEEDS},
    **{f"stencil.{code}.{'line' if line else 'elem'}":
       (stencil_scenario, (code, line)) for code, line in KERNELS},
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)
    reasons = {(r["reason"] or "pass").split(" ")[0]
               for cands in golden.values() for r in cands.values()}
    # every verdict class the gate can produce is in the fixture
    assert reasons == {"pass", "memory", "return", "specialized"}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_gate_reports_match_the_golden_fixture(golden, name):
    build, args = SCENARIOS[name]
    got = build(*args)
    want = golden[name]
    assert sorted(got) == sorted(want)
    for label in want:
        assert got[label] == want[label], f"{name}: {label}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: test_golden_gate.py --capture")
    # one scenario per line keeps a re-capture's diff readable
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(build(*args), sort_keys=True)}"
        for name, (build, args) in sorted(SCENARIOS.items())) + "\n}\n")
    print(f"wrote {GOLDEN}")
