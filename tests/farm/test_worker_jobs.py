"""Jobs run back to back in one worker process, without a pool.

Every job rebuilds its image from the published spec, so all of them start
from the same bytes and install their candidate at the same address.
Nothing derived from one job's candidate bytes may reach the next job.
"""

from __future__ import annotations

import pytest

from repro.analysis.checkers import DEFAULT_PREGATE
from repro.cpu import Image
from repro.farm import protocol as fp
from repro.farm.worker import FarmWorker
from repro.guard.verify import GateOptions
from repro.ir.passes import O3Options
from repro.jit.plan import Plan
from repro.lift import FunctionSignature, LiftOptions
from repro.x86 import parse_asm
from repro.x86.asm import assemble

SIG = FunctionSignature(("i", "i"), "i")


@pytest.fixture
def worker(tmp_path):
    return FarmWorker(0, str(tmp_path))


def test_same_spec_jobs_gate_their_own_candidates(worker):
    """Candidates that differ only in a baked immediate have the same
    length: the second job's gate must run its own bytes, not the blocks
    the simulator compiled for the first job's candidate."""
    img = Image()
    code, _ = assemble(parse_asm("mov rax, rdi\nimul rax, rsi\n"
                                 "add rax, 7\nret"),
                       base=img.next_code_addr())
    img.add_function("f", code)
    spec = fp.ImageSpec.capture(img)
    image_key = fp.image_spec_key(spec.digest())
    worker.store.put(image_key, spec)
    assert spec.build().instance_token() != spec.build().instance_token()

    plan = Plan("llvm-fix", LiftOptions(), O3Options(),
                pregate=DEFAULT_PREGATE, gate="always",
                gate_options=GateOptions())
    for k in (5, 9, 3):
        fixes = {1: k}
        key = fp.compute_job_key(img, "f", SIG, fixes, (), (), None, plan, 2,
                                 image_key=image_key)
        res = worker.run_job(fp.CompileJob(
            key=key, name=f"f.t2.{k}", tier=2, func="f", signature=SIG,
            fixes=fp.freeze_fixes(fixes), mem_regions=(), probes=(),
            dbrew_func=None, image_key=image_key, plan=plan))
        assert res.ok and res.verified, (k, res.reject_reason)
        assert res.cache_stage is None  # compiled and gated, not served
