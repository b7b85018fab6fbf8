"""FarmPool lifecycle: submit/resolve, batching, crash respawn, shutdown."""

from __future__ import annotations

import time

import pytest

from repro import FarmClient, FarmPool, Simulator, compile_c
from repro.farm import protocol as fp
from repro.guard.verify import GateOptions
from repro.ir.codegen import JITEngine
from repro.ir.passes import O3Options
from repro.jit.plan import Plan
from repro.lift import FunctionSignature, LiftOptions
from tests.farm.conftest import SRC, expected


def _job_for(prog, *, fixes=None, name="f.farm", trace=False):
    """A T1 job, its plan (``llvm-fix`` with fixes, ``llvm`` without) as
    the engine would ship it."""
    o3 = O3Options.lightweight()
    if fixes:
        o3 = o3.replace(enable_inline=True)
    plan = Plan("llvm-fix" if fixes else "llvm", LiftOptions(), o3,
                gate_options=GateOptions())
    return fp.build_job(prog.image, "f", FunctionSignature(("i", "i"), "i"),
                        fixes, plan, 1, name, trace=trace)


@pytest.fixture()
def farm(tmp_path):
    from repro.obs.metrics import MetricsRegistry
    pool = FarmPool(workers=2, disk_dir=str(tmp_path / "farm"),
                    registry=MetricsRegistry())
    client = FarmClient(pool)
    yield pool, client
    pool.close()


def test_submit_resolves_and_module_installs(prog, farm):
    pool, client = farm
    job = _job_for(prog, fixes={1: 7})
    res = client.compile(job, timeout=120.0)
    assert res is not None and res.ok, res and res.reject_reason
    assert res.mode == "llvm-fix"
    assert res.worker_pid != 0
    # the shipped module is position-independent: install it client-side
    main = res.module.functions[res.main_name]
    addr = JITEngine(prog.image).compile_function(
        main, name="f.farm")
    sim = Simulator(prog.image)
    assert sim.call(addr, (10, 99)).rax == expected(10, 7)  # b fixed to 7


def test_warm_result_is_shared_cache_hit(prog, farm):
    pool, client = farm
    job = _job_for(prog, fixes={1: 7})
    first = client.compile(job, timeout=120.0)
    assert first is not None and first.ok and first.cache_stage is None
    second = client.compile(job, timeout=120.0)
    assert second is not None and second.ok
    assert second.cache_stage == "farm"  # served from the shared store


def test_batching_under_storm(prog, tmp_path):
    """Submitting faster than one worker drains must produce batched
    queue messages (the load-adaptive batching contract)."""
    from repro.obs.metrics import MetricsRegistry
    pool = FarmPool(workers=1, disk_dir=str(tmp_path / "farm"),
                    batch_max=8, registry=MetricsRegistry())
    try:
        jobs = [_job_for(prog, fixes={1: k}, name=f"f.b{k}")
                for k in range(10)]
        futs = [pool.submit(j) for j in jobs]
        for fut in futs:
            res = fut.result(timeout=180)
            assert res.ok, res.reject_reason
        snap = pool.snapshot()
        assert snap["results"] == 10
        assert snap["batches"] < 10  # at least one message carried > 1 job
        assert snap["batched_jobs"] > 0
    finally:
        pool.close()


def test_dead_worker_respawns(prog, tmp_path):
    from repro.obs.metrics import MetricsRegistry
    pool = FarmPool(workers=1, disk_dir=str(tmp_path / "farm"),
                    poll_interval=0.02, registry=MetricsRegistry())
    client = FarmClient(pool)
    try:
        assert pool.alive_workers() == 1
        pool._slots[0].proc.kill()  # simulate a crash
        deadline = time.monotonic() + 30
        while pool.snapshot()["respawns"] == 0:
            assert time.monotonic() < deadline, "no respawn"
            time.sleep(0.02)
        deadline = time.monotonic() + 30
        while pool.alive_workers() == 0:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        # the respawned worker serves jobs
        res = client.compile(_job_for(prog, fixes={1: 5}),
                             timeout=120.0)
        assert res is not None and res.ok
    finally:
        pool.close()


def test_close_fails_pending_futures(prog, tmp_path):
    pool = FarmPool(workers=1, disk_dir=str(tmp_path / "farm"))
    client = FarmClient(pool)
    job = _job_for(prog, fixes={1: 3})
    pool.close()
    with pytest.raises(RuntimeError):
        pool.submit(job)
    # the client maps a closed pool to a soft None
    assert client.compile(job, timeout=5.0) is None


def test_job_missing_its_bytes_is_retryable(prog, farm):
    """A compile that reads a byte its job does not carry fails, and the
    client compiles in-process: it never lifts zeros."""
    pool, client = farm
    job = _job_for(prog, fixes={1: 7})
    import dataclasses
    job = dataclasses.replace(job, segments=(), key="0" * 32)
    res = client.compile(job, timeout=120.0)
    assert res is not None and not res.ok and res.retryable
    assert "read outside the shipped bytes" in res.reject_reason
    assert fp.result_key(job.key) not in pool.store
