"""Client timeout hygiene (satellite b): when a farm request times out,
the client must evict the timed-out entry from its thread-level flight
table and forget the job pool-side, so the next request for the same key
actually retries instead of waiting on a stale in-flight entry."""

from __future__ import annotations

import time

from repro import FarmClient, FarmPool
from repro.obs.metrics import MetricsRegistry
from tests.farm.test_pool import _job_for


def test_timeout_evicts_flight_entry_and_next_request_retries(prog,
                                                              tmp_path):
    """Workers that never reply (drop_result_rate=1.0 completes every job
    but reports nothing) force the client timeout path.  The regression
    this pins down: a timed-out (key, epoch) left in the FlightTable made
    every later request for that key a follower of a flight that would
    never resolve."""
    reg = MetricsRegistry()
    pool = FarmPool(workers=1, disk_dir=str(tmp_path / "farm"),
                    poll_interval=0.02, registry=reg,
                    worker_chaos={"drop_result_rate": 1.0})
    client = FarmClient(pool, registry=reg)
    try:
        job = _job_for(prog, fixes={1: 7})
        t0 = time.monotonic()
        res = client.compile(job, timeout=3.0)
        assert res is None  # timed out: the worker swallowed the result
        assert time.monotonic() - t0 >= 3.0 - 0.5
        # the flight table entry is gone — not leaked as a stale leader
        assert client._flights.snapshot()["in_flight"] == 0
        # the pool-side job state is forgotten: nothing left to retry or
        # crash-account for a caller that stopped waiting
        snap = pool.snapshot()
        assert snap["inflight"] == 0
        assert snap["retry_pending"] == 0
        first_submits = snap["jobs"]
        assert first_submits == 1
        # a second request is a *fresh* submission, not a follower of the
        # dead flight: the pool sees a new job immediately
        res2 = client.compile(job, timeout=3.0)
        assert res2 is None  # every result is dropped in this config
        assert pool.snapshot()["jobs"] == first_submits + 1
        assert pool.snapshot()["inflight"] == 0
        # both timeouts fed the breaker as transport failures
        assert client.breaker.snapshot()["consecutive_failures"] >= 2
        assert reg.counter("farm.client.timeouts").value == 2
    finally:
        pool.close()


def test_forget_is_idempotent_and_ignores_foreign_futures(prog, tmp_path):
    from concurrent.futures import Future
    pool = FarmPool(workers=1, disk_dir=str(tmp_path / "farm"),
                    registry=MetricsRegistry())
    client = FarmClient(pool)
    try:
        fut = pool.submit(_job_for(prog, fixes={1: 3}))
        pool.forget(fut)
        pool.forget(fut)  # second forget: no-op
        pool.forget(Future())  # never-submitted future: ignored
        assert pool.snapshot()["inflight"] == 0
    finally:
        pool.close()
