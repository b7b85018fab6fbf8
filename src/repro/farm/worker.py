"""The farm worker: one process of the compile service.

``worker_main`` is the process entry point (top-level, so it pickles under
``spawn``).  The loop is deliberately simple — take a batch off the job
queue, announce each job (``("start", wid, seq)`` on the result queue, so
the pool can attribute an in-progress job if this process dies), run it,
push the result — with all the interesting parts in ``run_job``:

1. **warm path** — the job's result may already be in the shared disk
   store (published by any worker of any pool, ever): return it without
   compiling anything.  This is the cross-worker shared-cache hit the
   farm exists for.
2. **single-flight** — otherwise enter the
   :class:`~repro.cache.FileFlightTable` for the job key: one process
   compiles, the rest poll the store.  A killed leader's lock evaporates
   and a follower takes over (see the flight-table docstring).
3. **compile** — map the bytes the job carries
   (:meth:`~repro.farm.protocol.CompileJob.build_image`, fresh per job),
   run :meth:`~repro.jit.plan.Pipeline.compile` under the job's plan,
   then pull the *pristine post-O3 module* back out of the module-stage
   cache and publish it with the machine verdict.  The worker's own
   codegen output is throwaway — it exists for the machine proof —
   because machine code is position-dependent and the client emits the
   module into its own image.  No gate runs here: the client admits the
   bytes it installs.

Failure mapping: a :class:`~repro.errors.ReproError` is a content verdict
(the client would hit the same wall), published as ``"<rung>: <Type>:
<message>"`` and returned ``retryable=False``.  Three are not, and come
back ``retryable=True`` unpublished so the client compiles in-process: a
compile that read outside the shipped bytes (the job did not carry
what the compile needs), a budget exhaustion (the budget is not part of
the job key, so a verdict produced under a starved budget would poison
the shared store for every well-budgeted client) and any non-repro error.

Liveness: the worker runs a beat thread stamping a shared-memory heartbeat
cell every ``heartbeat_interval``; the pool's watchdog reads it to tell a
*hung* worker (alive, silent) from a crashed one.  ``config["chaos"]``
optionally arms scripted faults (die/hang on job-name prefix, dropped or
delayed results) interpreted here — the chaos harness and the resilience
tests drive every failure path above through real processes.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import replace
from typing import Any

from repro.cache import DiskStore, FileFlightTable, SpecializationCache
from repro.errors import BudgetExceededError, ReproError
from repro.farm import protocol
from repro.farm.protocol import CompileJob, CompileResult
from repro.guard.budget import Budget
from repro.jit.plan import Pipeline
from repro.obs import metrics as _metrics
from repro.obs.trace import TRACER as _TR


class _WorkerChaos:
    """Scripted per-worker faults, armed from ``config["chaos"]``.

    All decisions draw from a private ``random.Random`` seeded with
    ``seed ^ worker_id`` so a chaos scenario replays bit-identically.
    Recognized keys: ``die_on_name_prefix`` (SIGKILL self before running a
    matching job), ``hang_on_name_prefix`` (stop heartbeating and sleep —
    alive-but-silent, the watchdog's HUNG case), ``drop_result_rate``
    (complete the job, never report it), ``slow_job_s``/``slow_rate``
    (sleep before running), ``seed``.
    """

    def __init__(self, spec: dict, worker_id: int,
                 stop_beating: threading.Event) -> None:
        self.spec = spec
        self.rng = random.Random(int(spec.get("seed", 0)) ^ worker_id)
        self.stop_beating = stop_beating

    def before_job(self, job: CompileJob) -> None:
        die = self.spec.get("die_on_name_prefix")
        if die is not None and job.name.startswith(die):
            os.kill(os.getpid(), signal.SIGKILL)
        hang = self.spec.get("hang_on_name_prefix")
        if hang is not None and job.name.startswith(hang):
            self.stop_beating.set()
            while True:  # pragma: no cover - killed by the watchdog
                time.sleep(3600.0)
        slow = float(self.spec.get("slow_job_s", 0.0))
        if slow > 0.0 and self.rng.random() < float(
                self.spec.get("slow_rate", 1.0)):
            time.sleep(slow)

    def drop_result(self) -> bool:
        rate = float(self.spec.get("drop_result_rate", 0.0))
        return rate > 0.0 and self.rng.random() < rate


class FarmWorker:
    """Per-process worker state: shared store, flight table, IR cache."""

    def __init__(self, worker_id: int, disk_dir: str,
                 poll_interval: float = 0.005,
                 flight_timeout: float | None = 120.0) -> None:
        self.worker_id = worker_id
        self.store = DiskStore(disk_dir)
        self.flights = FileFlightTable(
            os.path.join(disk_dir, "flights"), poll_interval=poll_interval)
        self.flight_timeout = flight_timeout
        self.cache = SpecializationCache(disk_dir=disk_dir)
        #: previous values of the process-global counters reported per job
        self._counter_marks: dict[str, int] = {}

    # -- shared state ------------------------------------------------------

    def _counter_deltas(self) -> list[tuple[str, float]]:
        """Per-job deltas of the lifter memo counters (process-global)."""
        out = []
        for name in ("lift.facet_cache.hits", "lift.facet_cache.misses",
                     "lift.decode_memo.hits", "lift.decode_memo.misses"):
            value = _metrics.counter(name).value
            out.append((name, float(value - self._counter_marks.get(name, 0))))
            self._counter_marks[name] = value
        return out

    # -- one job -----------------------------------------------------------

    def run_job(self, job: CompileJob) -> CompileResult:
        t0 = time.perf_counter()
        if job.trace and not _TR.enabled:
            _TR.enable()
        mark = _TR.mark() if job.trace else (0, 0)
        span = _TR.start("farm.job", {"name": job.name, "tier": job.tier,
                                      "worker": self.worker_id}) \
            if job.trace else None
        try:
            result = self._run_job_inner(job, t0)
        finally:
            if span is not None:
                _TR.finish(span)
        if job.trace:
            result = replace(result, trace_records=_TR.export_records(mark))
        return result

    def _run_job_inner(self, job: CompileJob, t0: float) -> CompileResult:
        rkey = protocol.result_key(job.key)

        def probe() -> dict | None:
            return self.store.get(rkey)

        payload = probe()
        if payload is not None:
            return self._finish(job, t0, payload, cache_stage="farm")
        try:
            payload, leader = self.flights.run(
                job.key, lambda: self._compile_and_publish(job, rkey),
                probe, timeout=self.flight_timeout)
        except _Unpublished as exc:
            return self._fail(job, t0, str(exc), retryable=True)
        except BaseException as exc:  # pragma: no cover - defensive
            return self._fail(job, t0, f"internal error: {exc!r}",
                              retryable=True)
        return self._finish(job, t0, payload,
                            cache_stage=None if leader else "farm",
                            coalesced=not leader)

    def _compile_and_publish(self, job: CompileJob, rkey: str) -> dict:
        """The leader path: compile over the shipped bytes, then publish.

        Returns (and publishes) the shared payload dict; a refusal is
        published too, so every follower observes the same
        content-determined outcome without re-running the pipeline — the
        cross-process analogue of the negative cache.
        """
        image = job.build_image()
        plan = job.plan
        budget = protocol.thaw_budget(job.budget) or Budget()

        def publish(**payload: Any) -> dict:
            payload = {"ok": False, "reject_reason": None, "mode": plan.rung,
                       "module": None, "main_name": None,
                       "machine_verdict": None, **payload}
            self.store.put(rkey, payload)
            return payload

        try:
            res = Pipeline(image, cache=self.cache, budget=budget.start()) \
                .compile(plan, job.func, job.signature, job.thawed_fixes(),
                         job.name)
        except ReproError as exc:
            reason = f"{plan.rung}: {type(exc).__name__}: {exc}"
            if image.memory.faulted:
                raise _Unpublished(f"read outside the shipped bytes: "
                                   f"{reason}")
            if isinstance(exc, BudgetExceededError):
                raise _Unpublished(f"budget-starved refusal not published: "
                                   f"{reason}")
            refuted = exc.context.get("stage") == "machine-verify"
            return publish(reject_reason=reason,
                           machine_verdict="refuted" if refuted else None)
        # codegen placed globals in ``res.module``: ship the pristine
        # post-O3 module the pipeline stored under ``module_key``
        hit = self.cache.get_module(res.module_key) \
            if res.module_key is not None else None
        if hit is None:
            # unkeyable function (no extent digest): nothing shippable —
            # the client must compile locally; do not publish a verdict
            raise _Unpublished("post-O3 module not in the module cache")
        module, main_name = hit
        return publish(ok=True, module=module, main_name=main_name,
                       machine_verdict=res.machine_verdict)

    # -- result assembly ---------------------------------------------------

    def _finish(self, job: CompileJob, t0: float, payload: dict, *,
                cache_stage: str | None = None,
                coalesced: bool = False) -> CompileResult:
        return CompileResult(
            key=job.key, name=job.name, tier=job.tier, epoch=job.epoch,
            seq=job.seq, attempt=job.attempt, ok=bool(payload.get("ok")),
            retryable=False, mode=payload.get("mode"),
            reject_reason=payload.get("reject_reason"),
            module=payload.get("module"),
            main_name=payload.get("main_name"),
            cache_stage=cache_stage, coalesced=coalesced,
            stats=tuple(self._job_stats()),
            worker_pid=os.getpid(), seconds=time.perf_counter() - t0,
            machine_verdict=payload.get("machine_verdict"))

    def _fail(self, job: CompileJob, t0: float, reason: str, *,
              retryable: bool) -> CompileResult:
        return CompileResult(
            key=job.key, name=job.name, tier=job.tier, epoch=job.epoch,
            seq=job.seq, attempt=job.attempt, ok=False, retryable=retryable,
            reject_reason=reason, stats=tuple(self._job_stats()),
            worker_pid=os.getpid(), seconds=time.perf_counter() - t0)

    def _job_stats(self) -> list[tuple[str, float]]:
        stats = self._counter_deltas()
        fl = self.flights.snapshot()
        stats.extend((f"farm.flight.{k}", float(v)) for k, v in fl.items())
        return stats


class _Unpublished(Exception):
    """The farm could not do this job; the client compiles it in-process."""


def _beat_loop(cell: Any, interval: float, stop: threading.Event) -> None:
    """Stamp the shared heartbeat cell until told to stop.

    ``time.monotonic`` is system-wide on Linux, so the pool-side watchdog
    can compare the stamp against its own clock directly.
    """
    cell.value = time.monotonic()
    while not stop.wait(interval):
        cell.value = time.monotonic()


def worker_main(worker_id: int, job_q: Any, result_q: Any,
                config: dict, heartbeat: Any = None) -> None:
    """Process entry point: batches in, results out, None drains."""
    stop_beating = threading.Event()
    if heartbeat is not None:
        threading.Thread(
            target=_beat_loop,
            args=(heartbeat, config.get("heartbeat_interval", 0.5),
                  stop_beating),
            name="farm-beat", daemon=True).start()
    chaos = _WorkerChaos(config["chaos"], worker_id, stop_beating) \
        if config.get("chaos") else None
    worker = FarmWorker(
        worker_id, config["disk_dir"],
        poll_interval=config.get("poll_interval", 0.005),
        flight_timeout=config.get("flight_timeout", 120.0))
    while True:
        try:
            msg = job_q.get()
        except (EOFError, OSError):  # queue torn down under us
            return
        if msg is None:
            return
        kind, jobs = msg
        assert kind == "batch"
        for job in jobs:
            try:
                # announced before any work so the pool can attribute the
                # in-progress job if this process dies mid-compile
                result_q.put(("start", worker_id, job.seq))
            except (EOFError, OSError):  # pragma: no cover - shutdown race
                return
            if chaos is not None:
                chaos.before_job(job)
            try:
                result = worker.run_job(job)
            except BaseException as exc:  # pragma: no cover - defensive
                result = worker._fail(job, time.perf_counter(),
                                      f"worker error: {exc!r}",
                                      retryable=True)
            if chaos is not None and chaos.drop_result():
                continue
            try:
                result_q.put(("result", result))
            except (EOFError, OSError):  # pragma: no cover - shutdown race
                return
