"""Crash storm (satellite d): 200 jobs against an 8-process farm while a
killer thread SIGKILLs random workers.  Every job must complete — via
retry, shared-cache hit or post-storm resubmission — and every compiled
module must match the farm-less oracle."""

from __future__ import annotations

import random
import threading
import time

from repro import FarmPool, Simulator
from repro.farm.health import RetryPolicy
from repro.ir.codegen import JITEngine
from repro.obs.metrics import MetricsRegistry
from tests.farm.conftest import expected
from tests.farm.test_pool import _job_for

N_WORKERS = 8
N_JOBS = 200
N_KEYS = 10


def test_crash_storm_every_job_completes_and_matches_oracle(prog, tmp_path):
    pool = FarmPool(
        workers=N_WORKERS, disk_dir=str(tmp_path / "farm"),
        poll_interval=0.02, heartbeat_interval=0.1,
        poison_threshold=1000,  # random murder must not look like poison
        retry=RetryPolicy(max_attempts=10, base_delay=0.02, max_delay=0.2),
        registry=MetricsRegistry())
    stop = threading.Event()
    kills = [0]

    def killer():
        rng = random.Random(0xC0FFEE)
        while not stop.is_set():
            slots = [s for s in pool._slots if s.proc.is_alive()]
            if slots:
                victim = rng.choice(slots)
                try:
                    victim.proc.kill()
                    kills[0] += 1
                except Exception:
                    pass
            stop.wait(0.25)

    try:
        jobs = [_job_for(prog, fixes={1: k % N_KEYS},
                         name=f"storm.f{k % N_KEYS}")
                for k in range(N_JOBS)]
        futs = [pool.submit(j) for j in jobs]
        th = threading.Thread(target=killer, daemon=True)
        th.start()

        # every future must resolve — retry and respawn guarantee progress
        results = []
        deadline = time.monotonic() + 600.0
        for fut in futs:
            remaining = max(1.0, deadline - time.monotonic())
            results.append(fut.result(timeout=remaining))
        stop.set()
        th.join(timeout=10.0)

        assert kills[0] > 0, "the storm never fired"
        snap = pool.snapshot()
        assert snap["crashes"] > 0 and snap["respawns"] > 0

        # collect the best result per unique key; a key whose every storm
        # attempt died retryable gets one calm resubmission (the fallback
        # a real engine would also take)
        ok_by_key = {}
        for job, res in zip(jobs, results):
            assert res is not None
            if res.ok:
                ok_by_key.setdefault(job.key, res)
            else:
                assert res.retryable, res.reject_reason
        for job in jobs:
            if job.key not in ok_by_key:
                res = pool.submit(job).result(timeout=240.0)
                assert res.ok, res.reject_reason
                ok_by_key[job.key] = res

        assert len(ok_by_key) == N_KEYS

        # oracle check: each surviving module computes exactly what the
        # farm-less compile would — b is fixed per key, a stays live
        engine = JITEngine(prog.image)
        sim = Simulator(prog.image)
        seen_fixes = set()
        for job, res in ((j, ok_by_key[j.key]) for j in jobs
                         if j.key in ok_by_key):
            fix = int(job.name.rsplit("f", 1)[1])
            if fix in seen_fixes:
                continue
            seen_fixes.add(fix)
            main = res.module.functions[res.main_name]
            addr = engine.compile_function(main, name=f"storm.k{fix}")
            assert sim.call(addr, (10, 99)).rax == expected(10, fix)
            assert sim.call(addr, (3, 99)).rax == expected(3, fix)
        assert seen_fixes == set(range(N_KEYS))
    finally:
        stop.set()
        pool.close()
