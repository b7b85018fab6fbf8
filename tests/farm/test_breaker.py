"""Circuit breaker: the state machine under a fake clock, then the
client-level contract (fast-fail while open, half-open probe restores
service without client-visible errors)."""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro import FarmClient, FarmPool
from repro.farm.health import (CLOSED, HALF_OPEN, OPEN, CircuitBreaker)
from repro.farm.protocol import CompileResult
from repro.obs.metrics import MetricsRegistry
from tests.farm.test_pool import _job_for


class _Clock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


# -- state machine ------------------------------------------------------------


def test_opens_after_exactly_threshold_consecutive_failures():
    clock = _Clock()
    br = CircuitBreaker(failure_threshold=3, reset_timeout=10.0, clock=clock)
    for _ in range(2):
        br.record_failure()
    assert br.state == CLOSED and br.allow()
    br.record_failure()
    assert br.state == OPEN
    assert br.opens == 1
    assert not br.allow()
    assert br.refusals >= 1


def test_success_resets_the_consecutive_count():
    br = CircuitBreaker(failure_threshold=3, clock=_Clock())
    br.record_failure()
    br.record_failure()
    br.record_success()
    br.record_failure()
    br.record_failure()
    assert br.state == CLOSED  # never 3 *consecutive*


def test_half_open_single_probe_then_close():
    clock = _Clock()
    transitions = []
    br = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock,
                        on_transition=lambda old, new: transitions.append(
                            (old, new)))
    br.record_failure()
    assert br.state == OPEN
    clock.t += 5.0
    assert br.state == HALF_OPEN
    # exactly one probe is admitted; concurrent requests are refused
    assert br.allow()
    assert not br.allow()
    assert br.probes == 1
    br.record_success()
    assert br.state == CLOSED
    assert br.closes == 1
    assert transitions == [(CLOSED, OPEN), (OPEN, HALF_OPEN),
                           (HALF_OPEN, CLOSED)]


def test_half_open_probe_failure_reopens_and_rearms_timer():
    clock = _Clock()
    br = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
    br.record_failure()
    clock.t += 5.0
    assert br.allow()  # the probe
    br.record_failure()
    assert br.state == OPEN
    assert br.opens == 2
    clock.t += 4.9
    assert not br.allow()  # timer restarted at the probe failure
    clock.t += 0.2
    assert br.allow()


def test_would_allow_never_claims_the_probe():
    clock = _Clock()
    br = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
    br.record_failure()
    clock.t += 1.0
    assert br.would_allow()
    assert br.would_allow()  # peeking twice is fine
    assert br.probes == 0
    assert br.allow()  # the probe is still available to claim
    assert not br.would_allow()  # ... and now it is not


def test_late_success_while_open_closes():
    """A request admitted just before the trip may resolve late; its
    success is proof of life exactly like a probe success."""
    br = CircuitBreaker(failure_threshold=1, clock=_Clock())
    br.record_failure()
    assert br.state == OPEN
    br.record_success()
    assert br.state == CLOSED


def test_threshold_must_be_positive():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)


# -- client integration -------------------------------------------------------


class _ScriptedPool:
    """A fake pool: fails submissions until told to recover."""

    def __init__(self):
        self.healthy = False
        self.submits = 0

        class _Store:
            def contains(self, key):
                return True

            def get(self, key):
                return None

            def put(self, key, value):
                return True

        self.store = _Store()

    def submit(self, job):
        self.submits += 1
        if not self.healthy:
            raise RuntimeError("farm pool is closed")
        fut = Future()
        fut.set_result(CompileResult(key=job.key, name=job.name,
                                     tier=job.tier, ok=True))
        return fut

    def forget(self, fut):
        pass


def _stub_job():
    from repro.farm.protocol import CompileJob
    from repro.ir.passes import O3Options
    from repro.jit.plan import Plan
    from repro.lift import FunctionSignature, LiftOptions
    return CompileJob(
        key="k" * 32, name="stub.f", tier=1, func="f",
        signature=FunctionSignature(("i",), "i"), fixes=None,
        segments=(), functions=(), cursors=(0, 0, 0, 0),
        plan=Plan("llvm", LiftOptions(), O3Options.lightweight()))


def test_client_fast_fails_while_open_then_probe_restores_service():
    """The acceptance bar: the breaker opens within failure_threshold
    consecutive transport errors, open-state requests degrade without
    touching the pool, and the half-open probe restores service with no
    client-visible error."""
    clock = _Clock()
    pool = _ScriptedPool()
    reg = MetricsRegistry()
    client = FarmClient(
        pool, breaker=CircuitBreaker(failure_threshold=3, reset_timeout=2.0,
                                     clock=clock), registry=reg)
    job = _stub_job()
    for _ in range(3):
        assert client.compile(job, timeout=1.0) is None
    assert client.breaker.state == OPEN
    assert pool.submits == 3  # opened after exactly the threshold
    # while open: degrade instantly, the pool is never touched
    assert client.compile(job, timeout=1.0) is None
    assert pool.submits == 3
    assert reg.counter("farm.client.breaker_fastfails").value == 1
    assert reg.counter("farm.client.breaker_opens").value == 1
    assert reg.gauge("farm.client.breaker_state").value == 2
    # farm recovers; the half-open probe restores service transparently
    pool.healthy = True
    clock.t += 2.0
    res = client.compile(job, timeout=1.0)
    assert res is not None and res.ok  # no client-visible error
    assert client.breaker.state == CLOSED
    assert reg.counter("farm.client.breaker_closes").value == 1
    assert reg.gauge("farm.client.breaker_state").value == 0


def test_client_breaker_on_closed_real_pool(prog, tmp_path):
    """Transport failures from a real (closed) pool trip the breaker and
    available() reflects it for the engine's fast-skip."""
    pool = FarmPool(workers=1, disk_dir=str(tmp_path / "farm"),
                    registry=MetricsRegistry())
    client = FarmClient(pool, failure_threshold=2,
                        registry=MetricsRegistry())
    job = _job_for(prog, fixes={1: 5})
    pool.close()
    assert client.available()
    assert client.compile(job, timeout=5.0) is None
    assert client.compile(job, timeout=5.0) is None
    assert client.breaker.state == OPEN
    assert not client.available()
    snap = client.snapshot()
    assert snap["breaker"]["opens"] == 1
