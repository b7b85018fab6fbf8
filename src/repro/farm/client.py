"""The in-process farm facade the tiered engine talks to.

Thin by design — the pool owns transport and the worker owns compilation —
but three client-side responsibilities live here:

* **thread-level coalescing**: the engine's tier workers may request the
  same job key concurrently; a :class:`~repro.cache.FlightTable` keyed on
  ``(key, epoch)`` collapses them into one queue round-trip before the
  cross-*process* single-flight even comes into play.  Followers wait at
  most the same timeout as the leader; a timed-out request is *forgotten*
  pool-side (:meth:`FarmPool.forget`) so nothing retries or crash-accounts
  a job whose caller already compiled locally.
* **circuit breaking**: every farm outcome feeds a
  :class:`~repro.farm.health.CircuitBreaker`.  While the farm answers —
  any structured :class:`CompileResult`, even a negative verdict — the
  breaker stays closed.  ``failure_threshold`` consecutive *transport*
  failures (timeout, broken pipe, closed pool) open it, and every request
  until the reset timeout degrades to in-process compilation immediately
  instead of paying ``farm_timeout`` each; a single half-open probe then
  restores service.  State changes surface as a gauge, counters and a
  trace instant.
* **observability folding**: worker trace batches merge into the client
  tracer under the dispatch-site span (one Chrome trace spans the process
  hop); worker-side counters fold into the client registry under
  ``farm.worker.*``.
"""

from __future__ import annotations

from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.cache import FlightTable
from repro.farm.health import BREAKER_STATE_VALUES, CLOSED, CircuitBreaker, \
    OPEN
from repro.farm.pool import FarmPool
from repro.farm.protocol import CompileJob, CompileResult
from repro.obs.metrics import MetricsRegistry, REGISTRY
from repro.obs.trace import TRACER


class FarmClient:
    """Submit jobs, wait for results, fold telemetry back in.

    ``compile`` never raises for farm trouble: timeouts, closed pools,
    transport loss and an open breaker all come back as ``None`` (caller
    compiles locally).
    """

    def __init__(self, pool: FarmPool, *, timeout: float = 60.0,
                 breaker: CircuitBreaker | None = None,
                 failure_threshold: int = 5,
                 reset_timeout: float = 5.0,
                 registry: MetricsRegistry | None = None,
                 tracer=None) -> None:
        self.pool = pool
        self.timeout = timeout
        self.tracer = tracer if tracer is not None else TRACER
        r = registry if registry is not None else REGISTRY
        self._registry = r
        self._requests = r.counter("farm.client.requests")
        self._timeouts = r.counter("farm.client.timeouts")
        self._errors = r.counter("farm.client.errors")
        self._fastfails = r.counter("farm.client.breaker_fastfails")
        self._opens = r.counter("farm.client.breaker_opens")
        self._closes = r.counter("farm.client.breaker_closes")
        self._state_gauge = r.gauge("farm.client.breaker_state")
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=failure_threshold, reset_timeout=reset_timeout)
        # observe transitions whoever owns the breaker; an injected one may
        # already carry a hook (chaos harness) — chain rather than replace
        prior = self.breaker.on_transition
        def _observe(old: str, new: str) -> None:
            self._state_gauge.value = BREAKER_STATE_VALUES[new]
            if new == OPEN:
                self._opens.value += 1
            elif new == CLOSED:
                self._closes.value += 1
            if self.tracer.enabled:
                self.tracer.instant("farm.breaker",
                                    {"from": old, "to": new})
            if prior is not None:
                prior(old, new)
        self.breaker.on_transition = _observe
        self._flights = FlightTable(
            timeouts=r.counter("farm.client.flight_timeouts"))

    # -- availability ------------------------------------------------------

    def available(self) -> bool:
        """Cheap, non-mutating: would the breaker admit a request now?

        The tiered engine checks this before running DBrew and building a
        job — while the breaker is open that work would be thrown away
        anyway.  Never claims the half-open probe.
        """
        return self.breaker.would_allow()

    # -- compilation -------------------------------------------------------

    def compile(self, job: CompileJob,
                timeout: float | None = None) -> CompileResult | None:
        """One farm round-trip; None means "compile locally instead"."""
        self._requests.value += 1
        if not self.breaker.allow():
            self._fastfails.value += 1
            return None
        wait = self.timeout if timeout is None else timeout

        def thunk() -> CompileResult | None:
            try:
                fut = self.pool.submit(job)
            except RuntimeError:  # pool closed
                self._errors.value += 1
                self.breaker.record_failure()
                return None
            try:
                result = fut.result(timeout=wait)
            except FutureTimeoutError:
                self._timeouts.value += 1
                fut.cancel()
                # stop the pool from retrying / crash-accounting a job
                # nobody is waiting for any more
                self.pool.forget(fut)
                self.breaker.record_failure()
                return None
            except (BrokenPipeError, OSError):
                self._errors.value += 1
                self.breaker.record_failure()
                return None
            # any structured result — even a negative verdict — proves the
            # farm transport alive
            self.breaker.record_success()
            self._absorb(result, job)
            return result

        result, _led = self._flights.run((job.key, job.epoch), thunk,
                                         timeout=wait)
        return result

    # -- telemetry folding -------------------------------------------------

    def _absorb(self, result: CompileResult, job: CompileJob) -> None:
        for name, value in result.stats:
            if name.startswith("farm.flight."):
                continue  # cumulative worker-lifetime gauges, not deltas
            self._registry.counter(f"farm.worker.{name}").value += int(value)
        if result.trace_records is not None and self.tracer.enabled:
            self.tracer.merge_records(result.trace_records,
                                      root_parent=job.parent_span_id)

    def snapshot(self) -> dict:
        return {
            "requests": self._requests.value,
            "timeouts": self._timeouts.value,
            "errors": self._errors.value,
            "breaker": self.breaker.snapshot(),
            "flights": self._flights.snapshot(),
        }
