"""Shutdown races: close() must be idempotent under concurrent callers and
race-free against the collector's respawn path (a worker crashing *during*
close must not be resurrected or double-fail a future)."""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro import FarmPool
from repro.obs.metrics import MetricsRegistry
from tests.farm.test_pool import _job_for


def _pool(tmp_path, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("poll_interval", 0.02)
    kw.setdefault("heartbeat_interval", 0.1)
    kw.setdefault("registry", MetricsRegistry())
    return FarmPool(disk_dir=str(tmp_path / "farm"), **kw)


def test_double_close_is_idempotent(tmp_path):
    pool = _pool(tmp_path)
    pool.close()
    pool.close()  # second call is a silent no-op
    assert pool.alive_workers() == 0


def test_concurrent_closes_all_return(tmp_path):
    pool = _pool(tmp_path)
    errors = []

    def closer():
        try:
            pool.close()
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=closer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "close() deadlocked"
    assert errors == []
    assert pool.alive_workers() == 0


def test_crash_during_close_cannot_resurrect_a_worker(tmp_path):
    """Kill a worker and close concurrently, repeatedly: whatever
    interleaving the scheduler picks, close() wins — no respawn lands
    after the teardown snapshot and no process survives."""
    for _ in range(5):
        pool = _pool(tmp_path)
        victim = pool._slots[0].proc
        killer = threading.Thread(target=victim.kill)
        closer = threading.Thread(target=pool.close)
        killer.start()
        closer.start()
        killer.join(timeout=30.0)
        closer.join(timeout=60.0)
        assert not closer.is_alive(), "close() wedged against the watchdog"
        # no worker (original or respawned) may outlive close()
        deadline = time.monotonic() + 10.0
        while any(s.proc.is_alive() for s in pool._slots):
            assert time.monotonic() < deadline, "worker survived close()"
            time.sleep(0.02)
        # and the closed flag holds: no late respawn can slip in
        assert pool._closed
        with pytest.raises(RuntimeError):
            pool.submit(object())


def test_close_with_stopped_worker_escalates_to_sigkill(prog, tmp_path):
    """SIGTERM is never delivered to a SIGSTOPped process; close() must
    escalate to SIGKILL and still fail the stranded futures."""
    pool = _pool(tmp_path, workers=1, hang_timeout=3600.0,
                 boot_timeout=3600.0)
    deadline = time.monotonic() + 60.0
    while pool._slots[0].hb.value == 0.0:
        assert time.monotonic() < deadline
        time.sleep(0.02)
    job = _job_for(prog, fixes={1: 6})
    os.kill(pool._slots[0].proc.pid, signal.SIGSTOP)
    fut = pool.submit(job)
    t0 = time.monotonic()
    pool.close(timeout=0.5)
    assert time.monotonic() - t0 < 30.0, "close() hung on a stopped worker"
    assert pool.alive_workers() == 0
    with pytest.raises(BrokenPipeError):
        fut.result(timeout=1.0)
    assert pool.snapshot()["lost_futures"] == 1


def test_close_during_active_compile_fails_inflight_futures(prog, tmp_path):
    """Closing while jobs are in flight resolves every future — with the
    result if the worker finished in the grace window, else with
    BrokenPipeError — but never leaves a waiter hanging."""
    pool = _pool(tmp_path, workers=1)
    futs = [pool.submit(_job_for(prog, fixes={1: k},
                                 name=f"close.f{k}"))
            for k in range(4)]
    pool.close(timeout=0.2)
    for fut in futs:
        try:
            res = fut.result(timeout=1.0)
        except BrokenPipeError:
            continue  # failed over, not stranded
        assert res is not None  # resolved before teardown: also fine
