"""Farm resilience primitives: heartbeats, retry policy, circuit breaker.

The paper's contract is that runtime rewriting may always *degrade* —
serve the original code — but must never make the program wrong or
unavailable.  PR 6's multi-process farm multiplied the ways a compile can
go sideways (a worker can crash, hang, be OOM-killed or SIGSTOPped, a
result can be lost on the queue) and this module holds the three policy
pieces that keep every one of those failures soft and *bounded in time*:

* :class:`WorkerWatchdog` — classifies each worker slot from two cheap
  observations: process liveness and the age of a shared-memory heartbeat
  cell the worker's beat thread refreshes every ``heartbeat_interval``.
  A dead process is a **crash** (the existing reap path); an alive
  process with a stale heartbeat is a **hang** — something ``Process.is_alive``
  can never see — and the pool answers it with SIGKILL + respawn.  The
  distinction matters for accounting (hangs indicate wedged compiles or
  stopped processes, crashes indicate faults) and for the kill step: a
  crashed worker needs none.
* :class:`RetryPolicy` — bounded per-job retry with exponential backoff
  and seeded jitter.  Backoff prevents a dead-on-arrival job from being
  re-dispatched in a tight loop while the pool is still respawning;
  jitter prevents every lost job of one dead worker from landing on the
  respawn in a single thundering batch.  The jitter stream is a private
  ``random.Random`` so chaos scenarios replay bit-identically by seed.
* :class:`CircuitBreaker` — the classic closed → open → half-open
  machine, guarding the *client* against a sick farm.  Without it every
  request pays ``farm_timeout`` before degrading to the in-process
  tiers; with it, ``failure_threshold`` consecutive transport failures
  open the circuit and subsequent requests degrade immediately, until a
  half-open probe proves the farm answers again.  Only transport-level
  outcomes (timeouts, broken pipes, a closed pool) count as failures:
  a structured ``CompileResult`` — even a negative verdict — proves the
  farm alive and counts as success.

Everything here is clock-injectable and process-free, so the whole layer
is unit-testable with fake clocks (tests/farm/test_health.py,
tests/farm/test_breaker.py) before the chaos harness exercises it against
real SIGKILL/SIGSTOP (repro.testing.chaos).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: breaker states (values double as the ``farm.client.breaker_state`` gauge)
CLOSED, HALF_OPEN, OPEN = "closed", "half_open", "open"
BREAKER_STATE_VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter for lost farm jobs.

    ``max_attempts`` counts *dispatches*: a job is handed to a worker at
    most that many times before its future is failed (retryable, so the
    tiered engine compiles in-process).  The delay before re-dispatch
    number ``n`` (n >= 2) is ``base * 2**(n-2)`` capped at ``max_delay``,
    stretched by up to ``jitter`` (a fraction) of itself.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def delay(self, attempts: int, rng: random.Random) -> float:
        """Backoff before the next dispatch, given ``attempts`` so far."""
        exp = max(0, attempts - 1)
        raw = min(self.base_delay * (2.0 ** exp), self.max_delay)
        return raw * (1.0 + self.jitter * rng.random())

    def exhausted(self, attempts: int) -> bool:
        return attempts >= self.max_attempts


@dataclass
class HealthEvent:
    """One watchdog/retry/quarantine decision, for reports and benches."""

    t: float
    kind: str  # "crash" | "hang" | "respawn" | "retry" | "quarantine" | "exhausted"
    worker_id: int | None = None
    seq: int | None = None
    key: str | None = None
    detail: str | None = None


#: verdicts the watchdog can return for one worker slot
ALIVE, BOOTING, CRASHED, HUNG = "alive", "booting", "crashed", "hung"


class WorkerWatchdog:
    """Classify a worker from liveness + heartbeat age (policy only).

    The pool owns the processes; the watchdog owns the *decision*.  A
    worker that has never beaten (heartbeat cell still 0.0) is ``BOOTING``
    until ``boot_timeout`` — interpreter start-up under the ``spawn``
    method imports the whole package and legitimately takes seconds —
    after which it is declared ``HUNG`` like any other silent-but-alive
    process.
    """

    def __init__(self, *, heartbeat_interval: float = 0.5,
                 hang_timeout: float | None = None,
                 boot_timeout: float = 60.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.heartbeat_interval = heartbeat_interval
        #: heartbeat age beyond which an alive worker counts as hung; the
        #: default leaves slack for scheduler stalls on loaded hosts while
        #: staying detectable well inside one farm timeout
        self.hang_timeout = hang_timeout if hang_timeout is not None \
            else 5.0 * heartbeat_interval
        self.boot_timeout = boot_timeout
        self.clock = clock

    def classify(self, *, alive: bool, heartbeat: float,
                 spawned_at: float) -> str:
        if not alive:
            return CRASHED
        now = self.clock()
        if heartbeat <= 0.0:
            return HUNG if now - spawned_at > self.boot_timeout else BOOTING
        return HUNG if now - heartbeat > self.hang_timeout else ALIVE

    def heartbeat_age(self, heartbeat: float, spawned_at: float) -> float:
        return self.clock() - (heartbeat if heartbeat > 0.0 else spawned_at)


class CircuitBreaker:
    """Closed → open → half-open breaker over consecutive failures.

    * **closed**: every request allowed; ``failure_threshold`` consecutive
      failures trip to open.
    * **open**: every request refused (the client degrades to in-process
      compilation immediately) until ``reset_timeout`` has elapsed.
    * **half-open**: one probe request is allowed through; its success
      closes the breaker, its failure re-opens it (and restarts the
      timer).  Concurrent requests while the probe is in flight are
      refused, so a recovering farm is never stormed.

    Thread-safe; the clock is injectable (deterministic tests, and the
    chaos harness skews it deliberately — the machine must only ever
    degrade *availability of the farm path*, never correctness).
    ``on_transition(old, new)`` fires under the lock on every state
    change; keep it cheap (the client uses it for a gauge + counters +
    trace instant).
    """

    def __init__(self, *, failure_threshold: int = 5,
                 reset_timeout: float = 5.0,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Callable[[str, str], None] | None = None,
                 ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0  # consecutive, in closed state
        self._opened_at = 0.0
        self._probe_in_flight = False
        # lifetime accounting (plain ints; the client mirrors what it needs
        # into its metrics registry)
        self.opens = 0
        self.closes = 0
        self.probes = 0
        self.refusals = 0

    # -- state machine -----------------------------------------------------

    def _transition(self, new: str) -> None:
        old, self._state = self._state, new
        if old != new and self.on_transition is not None:
            self.on_transition(old, new)

    @property
    def state(self) -> str:
        """Current state, applying the open → half-open timer lazily."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if self._state == OPEN and \
                self.clock() - self._opened_at >= self.reset_timeout:
            self._probe_in_flight = False
            self._transition(HALF_OPEN)

    def allow(self) -> bool:
        """May this request go to the farm?  (Mutating: claims the probe.)"""
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                self.probes += 1
                return True
            self.refusals += 1
            return False

    def would_allow(self) -> bool:
        """Non-mutating peek: does the breaker currently admit requests?

        Unlike :meth:`allow` this never claims the half-open probe slot —
        the engine uses it to skip job-key/image work for requests the
        breaker would refuse anyway, without consuming the probe.
        """
        with self._lock:
            self._maybe_half_open()
            return self._state == CLOSED or (
                self._state == HALF_OPEN and not self._probe_in_flight)

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state in (HALF_OPEN, OPEN):
                # OPEN can still see a success: a request admitted just
                # before the trip may resolve late; treat it as proof of
                # life exactly like a probe success
                self._probe_in_flight = False
                self.closes += 1
                self._transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_in_flight = False
                self._reopen()
                return
            if self._state == OPEN:
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._reopen()

    def _reopen(self) -> None:
        self._failures = 0
        self._opened_at = self.clock()
        self.opens += 1
        self._transition(OPEN)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "opens": self.opens,
                "closes": self.closes,
                "probes": self.probes,
                "refusals": self.refusals,
            }


__all__ = [
    "ALIVE",
    "BOOTING",
    "BREAKER_STATE_VALUES",
    "CLOSED",
    "CRASHED",
    "CircuitBreaker",
    "HALF_OPEN",
    "HUNG",
    "HealthEvent",
    "OPEN",
    "RetryPolicy",
    "WorkerWatchdog",
]
