"""Worker health: watchdog classification, retry policy, hang detection,
poison quarantine — unit-level with fake clocks, then end-to-end against
real worker processes."""

from __future__ import annotations

import os
import random
import signal
import time

import pytest

from repro import FarmClient, FarmPool
from repro.cache.negative import NegativeCache
from repro.farm.health import (ALIVE, BOOTING, CRASHED, HUNG, RetryPolicy,
                               WorkerWatchdog)
from tests.farm.test_pool import _job_for


# -- watchdog policy (no processes) ------------------------------------------


class _Clock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t


def test_watchdog_classifies_crash_vs_hang_vs_boot():
    clock = _Clock()
    wd = WorkerWatchdog(heartbeat_interval=0.5, boot_timeout=10.0,
                        clock=clock)
    # dead process: crashed regardless of heartbeat freshness
    assert wd.classify(alive=False, heartbeat=clock.t,
                       spawned_at=clock.t) == CRASHED
    # alive, never beaten, young: still booting
    assert wd.classify(alive=True, heartbeat=0.0,
                       spawned_at=clock.t - 1.0) == BOOTING
    # alive, never beaten, past the boot grace: hung
    assert wd.classify(alive=True, heartbeat=0.0,
                       spawned_at=clock.t - 11.0) == HUNG
    # fresh heartbeat: alive
    assert wd.classify(alive=True, heartbeat=clock.t - 0.1,
                       spawned_at=clock.t - 60.0) == ALIVE
    # stale heartbeat (default hang_timeout = 5x interval = 2.5s): hung
    assert wd.classify(alive=True, heartbeat=clock.t - 3.0,
                       spawned_at=clock.t - 60.0) == HUNG


def test_watchdog_explicit_hang_timeout_and_age():
    clock = _Clock()
    wd = WorkerWatchdog(heartbeat_interval=0.1, hang_timeout=7.0,
                        clock=clock)
    assert wd.classify(alive=True, heartbeat=clock.t - 6.0,
                       spawned_at=0.0) == ALIVE
    assert wd.classify(alive=True, heartbeat=clock.t - 7.5,
                       spawned_at=0.0) == HUNG
    assert wd.heartbeat_age(clock.t - 2.0, 0.0) == pytest.approx(2.0)
    # never-beaten workers age from their spawn time
    assert wd.heartbeat_age(0.0, clock.t - 4.0) == pytest.approx(4.0)


def test_retry_policy_backoff_and_exhaustion():
    pol = RetryPolicy(max_attempts=4, base_delay=0.1, max_delay=1.0,
                      jitter=0.0)
    rng = random.Random(0)
    # exponential from the second dispatch, capped at max_delay
    assert pol.delay(1, rng) == pytest.approx(0.1)
    assert pol.delay(2, rng) == pytest.approx(0.2)
    assert pol.delay(3, rng) == pytest.approx(0.4)
    assert pol.delay(10, rng) == pytest.approx(1.0)
    assert not pol.exhausted(3)
    assert pol.exhausted(4)


def test_retry_policy_jitter_is_seed_deterministic():
    pol = RetryPolicy(base_delay=0.1, jitter=0.5)
    a = [pol.delay(n, random.Random(7)) for n in range(1, 5)]
    b = [pol.delay(n, random.Random(7)) for n in range(1, 5)]
    assert a == b
    # jitter only ever stretches, never shrinks below the raw backoff
    assert all(x >= 0.1 for x in a[:1])


# -- end-to-end against real workers -----------------------------------------


def _fast_pool(tmp_path, **kw):
    from repro.obs.metrics import MetricsRegistry
    kw.setdefault("workers", 1)
    kw.setdefault("poll_interval", 0.02)
    kw.setdefault("heartbeat_interval", 0.1)
    kw.setdefault("registry", MetricsRegistry())
    return FarmPool(disk_dir=str(tmp_path / "farm"), **kw)


def _wait(pred, timeout=60.0, msg="condition"):
    deadline = time.monotonic() + timeout
    while not pred():
        assert time.monotonic() < deadline, f"timed out waiting for {msg}"
        time.sleep(0.02)


def test_sigstopped_worker_is_detected_hung_and_respawned(prog, tmp_path):
    """SIGSTOP leaves the process alive (is_alive True) but silences the
    heartbeat — only the watchdog's hang verdict can recover the slot."""
    pool = _fast_pool(tmp_path, hang_timeout=0.3)
    client = FarmClient(pool)
    try:
        _wait(lambda: pool._slots[0].hb.value > 0.0, msg="first heartbeat")
        victim = pool._slots[0].proc
        os.kill(victim.pid, signal.SIGSTOP)
        _wait(lambda: pool.snapshot()["hangs"] >= 1, msg="hang detection")
        _wait(lambda: pool.snapshot()["respawns"] >= 1, msg="respawn")
        kinds = [e.kind for e in pool.health_events]
        assert "hang" in kinds and "respawn" in kinds
        # the respawned worker serves jobs
        res = client.compile(_job_for(prog, fixes={1: 2}),
                             timeout=120.0)
        assert res is not None and res.ok
        assert pool.snapshot()["crashes"] == 0  # hang, not crash
    finally:
        pool.close()


def test_heartbeat_ages_view(tmp_path):
    pool = _fast_pool(tmp_path, workers=2)
    try:
        _wait(lambda: all(s.hb.value > 0.0 for s in pool._slots),
              msg="heartbeats")
        ages = pool.heartbeat_ages()
        assert len(ages) == 2
        assert all(age < 5.0 for age in ages.values())
    finally:
        pool.close()


def test_poisoned_job_is_quarantined_after_successive_crashes(prog, tmp_path):
    """A job that SIGKILLs every worker that touches it must be blacklisted
    after poison_threshold workers, resolve retryable, and be served from
    the quarantine on the next submit without burning another worker."""
    quarantine = NegativeCache(ttl=60.0)
    pool = _fast_pool(
        tmp_path, poison_threshold=2, quarantine=quarantine,
        retry=RetryPolicy(max_attempts=10, base_delay=0.02, max_delay=0.1),
        worker_chaos={"die_on_name_prefix": "poison"})
    client = FarmClient(pool)
    try:
        job = _job_for(prog, fixes={1: 9}, name="poison.f")
        fut = pool.submit(job)
        res = fut.result(timeout=120.0)
        assert not res.ok and res.retryable
        assert "quarantined" in res.reject_reason
        snap = pool.snapshot()
        assert snap["crashes"] >= 2
        assert snap["quarantined"] == 1
        assert quarantine.check(job.key) is not None
        # second submit of the poisoned key: instant, no worker involved
        res2 = pool.submit(job).result(timeout=5.0)
        assert not res2.ok and res2.retryable
        assert pool.snapshot()["quarantine_served"] == 1
        # an innocent job still compiles on the (respawned) pool
        ok = client.compile(_job_for(prog, fixes={1: 4}),
                            timeout=120.0)
        assert ok is not None and ok.ok
        kinds = [e.kind for e in pool.health_events]
        assert "quarantine" in kinds
    finally:
        pool.close()


def test_hanging_job_is_quarantined_via_hang_path(prog, tmp_path):
    """Same poison accounting when the job *hangs* workers instead of
    killing them (stops heartbeating, sleeps forever)."""
    pool = _fast_pool(
        tmp_path, hang_timeout=0.3, poison_threshold=2,
        retry=RetryPolicy(max_attempts=10, base_delay=0.02, max_delay=0.1),
        worker_chaos={"hang_on_name_prefix": "wedge"})
    try:
        job = _job_for(prog, fixes={1: 8}, name="wedge.f")
        res = pool.submit(job).result(timeout=120.0)
        assert not res.ok and res.retryable
        assert "quarantined" in res.reject_reason
        snap = pool.snapshot()
        assert snap["hangs"] >= 2
        assert snap["quarantined"] == 1
    finally:
        pool.close()


def test_lost_jobs_are_retried_with_attempt_accounting(prog, tmp_path):
    """Jobs queued on a crashed worker come back through the retry heap
    and eventually complete on the respawn; the retry counter records it."""
    pool = _fast_pool(
        tmp_path,
        retry=RetryPolicy(max_attempts=8, base_delay=0.02, max_delay=0.1))
    try:
        jobs = [_job_for(prog, fixes={1: k}, name=f"retry.f{k}")
                for k in range(3)]
        futs = [pool.submit(j) for j in jobs]
        pool._slots[0].proc.kill()
        results = [f.result(timeout=180.0) for f in futs]
        assert all(r.ok for r in results), \
            [r.reject_reason for r in results if not r.ok]
        snap = pool.snapshot()
        assert snap["crashes"] >= 1
        # at least the jobs caught on the dead worker were re-dispatched
        assert snap["retries"] >= 1 or snap["results"] == 3
    finally:
        pool.close()
