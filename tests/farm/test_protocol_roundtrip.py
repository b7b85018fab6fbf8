"""Wire-protocol properties, mirroring tests/cache/test_keys_properties.py:

* every :class:`CompileJob` / :class:`CompileResult` field, and every
  field of the :class:`~repro.jit.plan.Plan` a job carries, survives a
  pickle round-trip — including through a real child process under the
  suite's start method (fork and spawn in CI);
* the job content key is stable across processes and hash seeds, every
  key ingredient perturbs it, and what can only reject work does not;
* a job's shipped bytes rebuild at their client addresses, with fresh
  space above the cursors and nothing else mapped.
"""

from __future__ import annotations

import dataclasses
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.checkers import DEFAULT_PREGATE
from repro.cpu import Image, Simulator
from repro.cpu.image import RODATA_BASE, STACK_SIZE, STACK_TOP
from repro.errors import MemoryAccessError
from repro.farm import protocol as fp
from repro.guard.verify import GateOptions
from repro.instrument import InstrumentOptions
from repro.ir.passes import O3Options
from repro.jit.plan import Plan
from repro.lift import FunctionSignature, LiftOptions
from repro.lift.fixation import FixedMemory
from repro.x86 import parse_asm
from repro.x86.asm import assemble

_SRC = Path(__file__).resolve().parents[2] / "src"

_ASM = "mov rax, rdi\nimul rax, rsi\nadd rax, 7\nret"


def _fixed_image() -> Image:
    img = Image()
    code, _ = assemble(parse_asm(_ASM), base=img.next_code_addr())
    img.add_function("f", code)
    return img


def _sample_plan() -> Plan:
    """A plan with every field away from its default, so the round trips
    below cover each of them."""
    return Plan(
        "dbrew+llvm",
        LiftOptions(stack_size=8192, flag_cache=False, known_functions={
            0x1000: ("g", FunctionSignature(("i",), "i"))}),
        O3Options.lightweight(),
        inject=InstrumentOptions(trace_memory=True),
        pregate=DEFAULT_PREGATE, machine_verify=True, gate="always",
        gate_options=GateOptions(samples=3, ignore_regions=((64, 128),)))


def _sample_job(**overrides) -> fp.CompileJob:
    base = dict(
        key="k" * 32, name="f.t2.e1.s9", tier=2, func="f",
        signature=FunctionSignature(("i", "i"), "i"),
        fixes=fp.freeze_fixes({1: 7}),
        segments=(fp.MemSegment(4096, 64, b"\x90\xc3"),),
        functions=(("f", 4096, 2),), cursors=(4098, 6, 7, 8),
        plan=_sample_plan(), budget=fp.freeze_budget(None), epoch=3, seq=17,
        trace=True, parent_span_id=42,
    )
    base.update(overrides)
    return fp.CompileJob(**base)


def _sample_result(**overrides) -> fp.CompileResult:
    base = dict(
        key="k" * 32, name="f.t2.e1.s9", tier=2, epoch=3, seq=17, ok=False,
        retryable=True, mode="dbrew+llvm",
        reject_reason="why", module=None, main_name="f_opt",
        cache_stage="farm", coalesced=True,
        stats=(("lift.facet_cache.hits", 3.0),),
        trace_records={"pid": 1, "anchor_wall": 0.0, "anchor_clock": 0.0,
                       "spans": [], "events": []},
        worker_pid=1234, seconds=0.5,
    )
    base.update(overrides)
    return fp.CompileResult(**base)


def test_every_job_field_roundtrips():
    job = _sample_job()
    back = pickle.loads(pickle.dumps(job))
    for f in dataclasses.fields(fp.CompileJob):
        assert getattr(back, f.name) == getattr(job, f.name), f.name


def test_every_result_field_roundtrips():
    res = _sample_result()
    back = pickle.loads(pickle.dumps(res))
    for f in dataclasses.fields(fp.CompileResult):
        assert getattr(back, f.name) == getattr(res, f.name), f.name


def test_job_roundtrips_through_child_process(mp_ctx):
    """A real queue hop under the suite's start method (fork/spawn): the
    plan comes back equal field for field, so the worker runs the plan
    the engine decided."""
    job = _sample_job()
    res = _sample_result()
    q_in, q_out = mp_ctx.Queue(), mp_ctx.Queue()
    proc = mp_ctx.Process(target=_echo_main, args=(q_in, q_out))
    proc.start()
    try:
        q_in.put((job, res))
        back_job, back_res = q_out.get(timeout=30)
    finally:
        proc.join(timeout=10)
        if proc.is_alive():
            proc.terminate()
    assert back_job == job
    for f in dataclasses.fields(Plan):
        assert getattr(back_job.plan, f.name) == getattr(job.plan, f.name), \
            f.name
    for f in dataclasses.fields(fp.CompileResult):
        assert getattr(back_res, f.name) == getattr(res, f.name), f.name


def _echo_main(q_in, q_out):  # top-level: must pickle under spawn
    q_out.put(q_in.get())


def test_thaw_helpers_invert_freeze():
    fixes = {1: 7, 0: 3}
    assert fp.thaw_fixes(fp.freeze_fixes(fixes)) == fixes
    assert fp.thaw_fixes(fp.freeze_fixes(None)) is None
    from repro.guard import Budget
    budget = fp.thaw_budget(fp.freeze_budget(
        Budget(deadline_seconds=2.5, max_lift_blocks=99)))
    assert budget.deadline_seconds == 2.5
    assert budget.limits["lift_blocks"] == 99


# -- shipped bytes -----------------------------------------------------------


def test_shipped_bytes_rebuild_at_their_addresses():
    img = _fixed_image()
    fixed = img.alloc_data(16, data=b"\x07" * 16)
    img.alloc_rodata(b"\x11" * 8)
    f = img.symbol("f")
    # two fixes over one region ship it once (overlapping mappings fault)
    job = fp.build_job(img, "f", FunctionSignature(("i", "i"), "i"),
                       {0: FixedMemory(fixed, 16), 1: FixedMemory(fixed, 8)},
                       Plan("llvm-fix", LiftOptions(), O3Options()), 1, "f.t1")
    assert [seg.addr for seg in job.segments] == [f, RODATA_BASE, fixed]
    rebuilt = pickle.loads(pickle.dumps(job)).build_image()
    size = img.func_sizes["f"]
    assert rebuilt.memory.read(f, size) == img.memory.read(f, size)
    assert rebuilt.memory.read(fixed, 16) == b"\x07" * 16
    assert rebuilt.memory.read(RODATA_BASE, 8) == b"\x11" * 8
    assert (rebuilt.symbols, rebuilt.func_sizes) == ({"f": f}, {"f": size})
    # the worker's own allocations land above the client's cursors
    assert rebuilt.alloc_rodata(b"\x22") >= img._rodata_cursor
    assert rebuilt.next_code_addr(jit=True) == img.next_code_addr(jit=True)
    # nothing else is mapped: the stack, say, is the client's alone
    assert not rebuilt.memory.faulted
    with pytest.raises(MemoryAccessError):
        rebuilt.memory.read(STACK_TOP - 8, 8)
    assert rebuilt.memory.faulted
    # and the shipped function runs from the rebuild once a stack is mapped
    rebuilt.memory.map(STACK_TOP - STACK_SIZE, STACK_SIZE + 0x1000)
    assert Simulator(rebuilt).call("f", (6, 7)).rax == 49


def _key_ingredients():
    img = _fixed_image()
    sig = FunctionSignature(("i", "i"), "i")
    return dict(image=img, func="f", signature=sig, fixes={1: 7},
                plan=Plan("llvm-fix", LiftOptions(), O3Options(),
                          pregate=DEFAULT_PREGATE,
                          gate="always", gate_options=GateOptions()),
                tier=2, name="f.t2")


def _job_key_digest() -> str:
    job = fp.build_job(**_key_ingredients())
    assert job is not None
    return job.key


def test_job_key_stable_across_processes():
    script = (
        "import tests.farm.test_protocol_roundtrip as m\n"
        "print(m._job_key_digest())\n"
    )
    local = _job_key_digest()
    for hashseed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            cwd=str(_SRC.parent),
            env={"PYTHONPATH": str(_SRC), "PYTHONHASHSEED": hashseed,
                 "PATH": "/usr/bin:/bin"},
        )
        assert proc.stdout.strip() == local, f"PYTHONHASHSEED={hashseed}"


def test_every_ingredient_perturbs_job_key():
    base = _job_key_digest()
    plan = _key_ingredients()["plan"]
    perturbations = dict(
        fixes={1: 8}, tier=1,
        signature=FunctionSignature(("i", "i", "i"), "i"),
        rung=replace(plan, rung="llvm"),
        lift=replace(plan, lift=LiftOptions(stack_size=8192)),
        o3=replace(plan, o3=O3Options.lightweight()),
    )
    for field_name, value in perturbations.items():
        kw = _key_ingredients()
        kw["plan" if isinstance(value, Plan) else field_name] = value
        job = fp.build_job(**kw)
        assert job is not None and job.key != base, field_name
    # what can only reject work, the job's name and where the worker's
    # throwaway emission lands are not keyed
    for value in (replace(plan, pregate=()), replace(plan, gate="never"),
                  replace(plan, machine_verify=True),
                  replace(plan, gate_options=GateOptions(samples=7))):
        assert fp.build_job(**{**_key_ingredients(), "plan": value}).key \
            == base
    assert fp.build_job(**{**_key_ingredients(), "name": "g"}).key == base
    kw = _key_ingredients()
    kw["image"].alloc_data(64)
    kw["image"].add_function("g", b"\xc3", jit=True)
    assert fp.build_job(**kw).key == base
    # every shipped byte perturbs it: the function, rodata, fixed memory
    img = Image()
    code, _ = assemble(parse_asm("mov rax, rdi\nret"),
                       base=img.next_code_addr())
    img.add_function("f", code)
    assert fp.build_job(**{**_key_ingredients(), "image": img}).key != base
    kw = _key_ingredients()
    kw["image"].alloc_rodata(b"\x01")
    assert fp.build_job(**kw).key != base
    kw = _key_ingredients()
    cell = kw["image"].alloc_data(8, data=b"\x02" * 8)
    kw["fixes"] = {0: FixedMemory(cell, 8)}
    fixed = fp.build_job(**kw).key
    kw["image"].memory.write(cell, b"\x03" * 8)
    assert fp.build_job(**kw).key != fixed


def test_unkeyable_function_returns_none():
    kw = _key_ingredients()
    kw["func"] = 0xDEAD0000  # no extent known at a raw address
    assert fp.build_job(**kw) is None
    kw = _key_ingredients()
    kw["fixes"] = {0: FixedMemory(0xDEAD0000, 8)}  # unmapped fixed memory
    assert fp.build_job(**kw) is None
