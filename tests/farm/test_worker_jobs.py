"""Jobs run back to back in one worker process, without a pool.

Every job maps its own shipped bytes into a fresh image, so jobs over the
same function start from the same addresses.  Nothing derived from one
job's bytes may reach the next, and a compile that needs a byte its job
did not carry must fail retryably, never read zeros.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cpu import Image, Simulator
from repro.farm import protocol as fp
from repro.farm.worker import FarmWorker
from repro.ir.codegen import JITEngine
from repro.ir.passes import O3Options
from repro.jit.plan import Plan
from repro.lift import FunctionSignature, LiftOptions
from repro.x86 import parse_asm
from repro.x86.asm import assemble

SIG = FunctionSignature(("i", "i"), "i")
PLAN = Plan("llvm-fix", LiftOptions(), O3Options())


@pytest.fixture
def worker(tmp_path):
    return FarmWorker(0, str(tmp_path))


def _image(asm: str = "mov rax, rdi\nimul rax, rsi\nadd rax, 7\nret") -> Image:
    img = Image()
    code, _ = assemble(parse_asm(asm), base=img.next_code_addr())
    img.add_function("f", code)
    return img


def test_back_to_back_jobs_compile_their_own_bytes(worker):
    """Fixes that differ only in a baked immediate give candidates of the
    same length at the same worker address: each job's module must
    compute with its own fix."""
    img = _image()
    for k in (5, 9, 3):
        job = fp.build_job(img, "f", SIG, {1: k}, PLAN, 2, f"f.t2.{k}")
        res = worker.run_job(job)
        assert res.ok, (k, res.reject_reason)
        assert res.cache_stage is None  # compiled, not served
        addr = JITEngine(img).compile_function(
            res.module.functions[res.main_name], name=f"f.k{k}")
        assert Simulator(img).call_int(addr, (4, 0)) == 4 * k + 7


def test_a_read_outside_the_shipped_bytes_is_not_published(worker):
    """A job whose function branches past its recorded extent reads code
    it does not carry: the worker returns it retryable and publishes
    nothing, so the client compiles it in-process."""
    img = _image()
    job = fp.build_job(img, "f", SIG, {1: 5}, PLAN, 2, "f.short")
    # the lift source's first instruction alone: decoding walks off it
    seg = job.segments[0]
    job = dataclasses.replace(
        job, key="1" * 32,
        segments=(fp.MemSegment(seg.addr, 3, seg.data[:3]),))
    res = worker.run_job(job)
    assert not res.ok and res.retryable, res
    assert "read outside the shipped bytes" in res.reject_reason
    assert worker.store.get(fp.result_key(job.key)) is None
