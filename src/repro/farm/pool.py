"""Worker-pool lifecycle, batched job transport, and worker health.

:class:`FarmPool` owns the processes and the queues; it knows nothing
about compilation.  Four moving parts:

* a **dispatcher thread** drains the submit buffer into batch messages.
  Batching is load-adaptive rather than timer-based: while workers are
  keeping up, each job ships alone (lowest latency); when submissions
  outpace the dispatcher — a registration storm promoting hundreds of
  tiny functions — the buffer grows between wakeups and whole batches of
  up to ``batch_max`` jobs cross the queue in one pickle, amortizing the
  per-message transport cost exactly when it matters.  The dispatcher
  also owns the **retry heap**: jobs lost inside a dead worker come back
  through it after a :class:`~repro.farm.health.RetryPolicy` backoff.
* a **collector thread** resolves futures from the result queue and, on
  a poll cadence, runs the **watchdog** over every worker slot.  Each
  worker owns a shared-memory heartbeat cell refreshed by a beat thread
  inside the process, so the watchdog can tell a *hung* worker (alive,
  stale heartbeat — SIGSTOPped, wedged in a syscall, livelocked) from a
  *crashed* one (``is_alive`` false); hangs get SIGKILL first, both get
  respawned, and the jobs the dead worker held are retried, failed, or
  quarantined (below).
* a **poison quarantine**: the worker announces each job before running
  it (``("start", wid, seq)`` on the result queue), so when a worker
  dies the pool knows which job it was chewing.  A job whose execution
  has killed or hung ``poison_threshold`` successive workers is
  blacklisted into a :class:`~repro.cache.NegativeCache` — its future
  (and every later submit of the same key while the entry is fresh)
  resolves immediately with a retryable failure, and the pool stops
  crash-looping on it.  Innocent jobs merely *queued* on the dead worker
  are retried without poison accounting.
* the **worker processes** run :func:`repro.farm.worker.worker_main`.
  Start method comes from ``start_method`` / ``REPRO_FARM_START_METHOD``
  (default ``fork`` where available — workers inherit nothing mutable of
  consequence; everything they need arrives via the job or the shared
  store, which is also what makes ``spawn`` work unchanged).

``close()`` drains gracefully and is **idempotent and race-free** against
the collector: closing takes the same lock the watchdog respawns under,
so a crash during shutdown can neither resurrect a worker after the
teardown snapshot nor double-fail a future.  Stragglers are escalated
``terminate()`` → ``kill()`` — SIGTERM never reaches a SIGSTOPped worker,
SIGKILL always does.  Unresolved futures get ``BrokenPipeError`` so no
client waits on a dead pool.
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing as mp
import os
import queue as queue_mod
import random
import tempfile
import threading
import time
from concurrent.futures import Future, InvalidStateError

from repro.cache.negative import NegativeCache
from repro.cache.store import DiskStore
from repro.farm.health import (
    ALIVE,
    BOOTING,
    CRASHED,
    HUNG,
    HealthEvent,
    RetryPolicy,
    WorkerWatchdog,
)
from repro.farm.protocol import CompileJob, CompileResult
from repro.farm.worker import worker_main
from repro.obs.metrics import MetricsRegistry, REGISTRY
from repro.obs.trace import TRACER as _TR

#: environment override for the multiprocessing start method
START_METHOD_ENV = "REPRO_FARM_START_METHOD"


def _pick_start_method(requested: str | None) -> str:
    method = requested or os.environ.get(START_METHOD_ENV) or ""
    if method:
        return method
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class _WorkerSlot:
    """One worker process plus its private job queue and heartbeat cell."""

    __slots__ = ("wid", "proc", "job_q", "hb", "spawned_at", "current_seq")

    def __init__(self, wid, proc, job_q, hb, spawned_at) -> None:
        self.wid = wid
        self.proc = proc
        self.job_q = job_q
        #: shared double the worker's beat thread stamps with monotonic time
        self.hb = hb
        self.spawned_at = spawned_at
        #: seq of the job the worker last announced (0 = idle/unknown)
        self.current_seq = 0


class _JobState:
    """Pool-side bookkeeping for one unresolved job."""

    __slots__ = ("job", "attempts", "wid")

    def __init__(self, job: CompileJob) -> None:
        self.job = job
        #: dispatches so far (bumped when handed to a worker queue)
        self.attempts = 0
        #: slot the job was last dispatched to (None = pending/retrying)
        self.wid: int | None = None


class FarmPool:
    """A pool of compile-worker processes over one shared disk store."""

    def __init__(self, *, workers: int = 2, disk_dir: str | None = None,
                 start_method: str | None = None,
                 batch_max: int = 16, respawn: bool = True,
                 poll_interval: float = 0.05,
                 flight_timeout: float | None = 120.0,
                 heartbeat_interval: float = 0.5,
                 hang_timeout: float | None = None,
                 boot_timeout: float = 60.0,
                 retry: RetryPolicy | None = None,
                 retry_seed: int | None = None,
                 poison_threshold: int = 2,
                 quarantine: NegativeCache | None = None,
                 worker_chaos: dict | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        if disk_dir is None:
            self._own_dir = tempfile.TemporaryDirectory(prefix="repro-farm-")
            disk_dir = self._own_dir.name
        else:
            self._own_dir = None
        self.disk_dir = disk_dir
        #: the client-side handle on the shared store (warm results can be
        #: probed without a worker)
        self.store = DiskStore(disk_dir)
        self.batch_max = batch_max
        self.respawn = respawn
        self.poll_interval = poll_interval
        self.watchdog = WorkerWatchdog(heartbeat_interval=heartbeat_interval,
                                       hang_timeout=hang_timeout,
                                       boot_timeout=boot_timeout)
        self.retry = retry if retry is not None else RetryPolicy()
        self._retry_rng = random.Random(retry_seed)
        self.poison_threshold = max(1, poison_threshold)
        #: poisoned-job blacklist; injectable so an engine can share one
        self.quarantine = quarantine if quarantine is not None \
            else NegativeCache(ttl=60.0)
        self._worker_config = {
            "disk_dir": disk_dir,
            "flight_timeout": flight_timeout,
            "heartbeat_interval": heartbeat_interval,
        }
        if worker_chaos:
            #: scripted fault plan interpreted by the worker main loop
            #: (repro.testing.chaos) — absent in production configs
            self._worker_config["chaos"] = dict(worker_chaos)

        r = registry if registry is not None else REGISTRY
        self._jobs_ctr = r.counter("farm.jobs")
        self._batches = r.counter("farm.batches")
        self._batched_jobs = r.counter("farm.batched_jobs")
        self._results_ctr = r.counter("farm.results")
        self._respawns = r.counter("farm.respawns")
        self._lost = r.counter("farm.lost_futures")
        self._crashes = r.counter("farm.health.crashes")
        self._hangs = r.counter("farm.health.hangs")
        self._retries = r.counter("farm.health.retries")
        self._exhausted = r.counter("farm.health.exhausted")
        self._quarantined = r.counter("farm.health.quarantined")
        self._quarantine_served = r.counter("farm.health.quarantine_served")
        r.view("farm.heartbeat_age", self.heartbeat_ages)

        self._ctx = mp.get_context(_pick_start_method(start_method))
        self._result_q = self._ctx.Queue()
        #: every mutation of slots/futures/jobs/pending happens under this
        #: one lock (the condition wraps it); the watchdog's respawn and
        #: ``close``'s teardown serialize here, which is what makes a crash
        #: during shutdown unable to resurrect a worker
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        #: (process, private job queue, heartbeat) per slot.  One job queue
        #: PER WORKER, not one shared: ``mp.Queue.get`` holds the queue's
        #: reader lock while blocked, so a worker SIGKILLed while idle
        #: would leave a shared queue poisoned for every successor.  A
        #: private queue dies with its worker; the respawn gets a fresh one.
        self._slots: list[_WorkerSlot] = []
        self._slot_by_wid: dict[int, _WorkerSlot] = {}
        self._next_worker_id = 0
        self._rr = 0
        self._pending: list[CompileJob] = []
        self._futures: dict[int, Future] = {}
        self._jobs: dict[int, _JobState] = {}
        #: (due, seq) backoff heap drained by the dispatcher
        self._retry_heap: list[tuple[float, int]] = []
        #: job key -> successive workers its execution took down
        self._poison_counts: dict[str, int] = {}
        self._next_seq = 1
        self._closed = False
        #: serializes whole close() bodies (idempotence under racing closes)
        self._close_lock = threading.Lock()
        self._last_watchdog = time.monotonic()
        #: append-only log of watchdog/retry/quarantine decisions (reports,
        #: recovery-latency benches); bounded to keep long-lived pools sane
        self.health_events: list[HealthEvent] = []
        self._max_events = 4096

        with self._lock:
            for _ in range(max(1, workers)):
                self._slots.append(self._spawn())

        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="farm-dispatch", daemon=True)
        self._collector = threading.Thread(
            target=self._collect_loop, name="farm-collect", daemon=True)
        self._dispatcher.start()
        self._collector.start()

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self) -> _WorkerSlot:
        """Start one worker; caller holds ``self._lock``."""
        wid = self._next_worker_id
        self._next_worker_id += 1
        job_q = self._ctx.Queue()
        hb = self._ctx.Value("d", 0.0, lock=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(wid, job_q, self._result_q, self._worker_config, hb),
            name=f"farm-worker-{wid}", daemon=True)
        proc.start()
        slot = _WorkerSlot(wid, proc, job_q, hb, time.monotonic())
        self._slot_by_wid[wid] = slot
        return slot

    def _event(self, kind: str, **kw) -> None:
        if len(self.health_events) < self._max_events:
            self.health_events.append(
                HealthEvent(t=time.monotonic(), kind=kind, **kw))

    def _run_watchdog(self) -> None:
        """Classify every slot; kill hung workers, respawn, reassign jobs.

        Runs on the collector thread.  Futures are resolved outside the
        lock (client callbacks attached to them must not re-enter).
        """
        to_fail: list[tuple[Future, CompileResult]] = []
        with self._cv:
            if self._closed:
                return
            dead: list[int] = []
            for i, slot in enumerate(self._slots):
                verdict = self.watchdog.classify(
                    alive=slot.proc.is_alive(), heartbeat=slot.hb.value,
                    spawned_at=slot.spawned_at)
                if verdict in (ALIVE, BOOTING):
                    continue
                if verdict == HUNG:
                    # hung-but-alive: is_alive() can never reap it and its
                    # job queue is wedged with it — SIGKILL is the only
                    # transition that frees both
                    self._hangs.value += 1
                    self._event("hang", worker_id=slot.wid,
                                seq=slot.current_seq or None)
                    slot.proc.kill()
                    slot.proc.join(timeout=5.0)
                else:
                    self._crashes.value += 1
                    self._event("crash", worker_id=slot.wid,
                                seq=slot.current_seq or None)
                    slot.proc.join(timeout=0)
                try:
                    slot.job_q.close()
                except (OSError, ValueError):  # pragma: no cover
                    pass
                to_fail.extend(self._reassign_lost_jobs(slot, verdict))
                self._slot_by_wid.pop(slot.wid, None)
                if self.respawn:
                    self._slots[i] = self._spawn()
                    self._respawns.value += 1
                    self._event("respawn", worker_id=self._slots[i].wid)
                else:
                    dead.append(i)
            for i in reversed(dead):
                del self._slots[i]
            self._cv.notify_all()
        for fut, result in to_fail:
            self._resolve(fut, result)
        if _TR.enabled and to_fail:
            for _fut, result in to_fail:
                _TR.instant("farm.job_failed",
                            {"key": result.key,
                             "reason": result.reject_reason})

    def _reassign_lost_jobs(self, slot: _WorkerSlot, verdict: str,
                            ) -> list[tuple[Future, CompileResult]]:
        """Retry / fail / quarantine the jobs a dead worker held.

        Caller holds the lock.  Returns (future, result) pairs to resolve
        outside it.  The job the worker *announced* before dying is the
        poison suspect; jobs merely queued behind it are innocent and
        retried without poison accounting.
        """
        now = time.monotonic()
        out: list[tuple[Future, CompileResult]] = []
        lost = [seq for seq, st in self._jobs.items() if st.wid == slot.wid]
        culprit = slot.current_seq
        if not culprit and len(lost) == 1:
            # The start announcement rides the result queue's feeder
            # thread; a worker that dies fast enough (SIGKILL right after
            # pickup) loses it.  With a single job on the slot there is no
            # ambiguity — attribute it anyway so a fast-poisoning job
            # still hits the quarantine instead of burning every retry.
            culprit = lost[0]
        for seq in lost:
            st = self._jobs[seq]
            key = st.job.key
            if seq == culprit:
                count = self._poison_counts.get(key, 0) + 1
                self._poison_counts[key] = count
                if count >= self.poison_threshold:
                    self.quarantine.record(
                        key, "farm",
                        f"job {verdict} {count} successive workers",
                        {"verdict": verdict, "workers": count})
                    self._quarantined.value += 1
                    self._event("quarantine", seq=seq, key=key,
                                detail=verdict)
                    out.append(self._take_failed(
                        seq, f"quarantined: {verdict} {count} "
                             f"successive workers"))
                    continue
            if self.retry.exhausted(st.attempts):
                self._exhausted.value += 1
                self._event("exhausted", seq=seq, key=key)
                out.append(self._take_failed(
                    seq, f"farm retries exhausted after "
                         f"{st.attempts} dispatches ({verdict} worker)"))
                continue
            st.wid = None
            due = now + self.retry.delay(st.attempts, self._retry_rng)
            heapq.heappush(self._retry_heap, (due, seq))
            self._retries.value += 1
            self._event("retry", seq=seq, key=key, worker_id=slot.wid)
        return out

    def _take_failed(self, seq: int,
                     reason: str) -> tuple[Future, CompileResult]:
        """Remove one job's state; build its retryable failure result."""
        st = self._jobs.pop(seq)
        fut = self._futures.pop(seq)
        result = CompileResult(
            key=st.job.key, name=st.job.name, tier=st.job.tier,
            epoch=st.job.epoch, seq=seq, ok=False, retryable=True,
            reject_reason=reason, attempt=st.attempts)
        return fut, result

    @staticmethod
    def _resolve(fut: Future, result: CompileResult) -> None:
        try:
            if not fut.done():
                fut.set_result(result)
        except InvalidStateError:  # lost a race against cancel/close
            pass

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for s in self._slots if s.proc.is_alive())

    def heartbeat_ages(self) -> dict[int, float]:
        """Per-worker heartbeat age in seconds (registry view)."""
        with self._lock:
            return {s.wid: round(self.watchdog.heartbeat_age(
                s.hb.value, s.spawned_at), 6) for s in self._slots}

    # -- submission --------------------------------------------------------

    def submit(self, job: CompileJob) -> Future:
        """Queue one job; the Future resolves to its CompileResult.

        A job whose key sits fresh in the poison quarantine never reaches
        a worker: its future resolves immediately with a retryable
        failure, so the client compiles in-process instead of feeding the
        crash loop another worker.
        """
        if self._closed:
            raise RuntimeError("farm pool is closed")
        fut: Future = Future()
        entry = self.quarantine.check(job.key) if job.key else None
        if entry is not None:
            self._quarantine_served.value += 1
            fut.set_result(CompileResult(
                key=job.key, name=job.name, tier=job.tier, epoch=job.epoch,
                seq=0, ok=False, retryable=True,
                reject_reason=f"quarantined: {entry.reason}"))
            return fut
        with self._cv:
            if self._closed:
                raise RuntimeError("farm pool is closed")
            seq = self._next_seq
            self._next_seq += 1
            job = dataclasses.replace(job, seq=seq)
            fut._farm_seq = seq  # lets FarmClient.forget find the entry
            self._futures[seq] = fut
            self._jobs[seq] = _JobState(job)
            self._pending.append(job)
            self._jobs_ctr.value += 1
            self._cv.notify()
        return fut

    def forget(self, fut: Future) -> None:
        """Abandon a submitted job: drop its future, job state and any
        scheduled retry so nothing is compiled (or crash-accounted) for a
        caller that has stopped waiting.  Idempotent; unknown futures are
        ignored.  (Retry-heap entries are dropped lazily — a popped seq
        with no job state is skipped.)
        """
        seq = getattr(fut, "_farm_seq", None)
        if seq is None:
            return
        with self._lock:
            self._futures.pop(seq, None)
            self._jobs.pop(seq, None)
            try:
                self._pending.remove(
                    next(j for j in self._pending if j.seq == seq))
            except StopIteration:
                pass

    def _dispatch_loop(self) -> None:
        while True:
            with self._cv:
                while True:
                    now = time.monotonic()
                    self._promote_due_retries(now)
                    if self._pending or self._closed:
                        break
                    timeout = None
                    if self._retry_heap:
                        timeout = max(0.0, self._retry_heap[0][0] - now)
                    self._cv.wait(timeout)
                if self._closed and not self._pending:
                    return
                batch = self._pending[:self.batch_max]
                del self._pending[:len(batch)]
                self._batches.value += 1
                if len(batch) > 1:
                    self._batched_jobs.value += len(batch)
                # round-robin over alive workers; a batch landing on a
                # worker that dies before draining it comes back through
                # the watchdog's retry path
                slots = [s for s in self._slots if s.proc.is_alive()] \
                    or list(self._slots)
                if not slots:  # every worker dead, respawn disabled
                    self._pending[:0] = batch
                    if self._closed:
                        return
                    self._cv.wait(self.poll_interval)
                    continue
                self._rr = (self._rr + 1) % len(slots)
                slot = slots[self._rr]
                for job in batch:
                    st = self._jobs.get(job.seq)
                    if st is not None:
                        st.attempts += 1
                        st.wid = slot.wid
                batch = [dataclasses.replace(
                    j, attempt=self._jobs[j.seq].attempts)
                    for j in batch if j.seq in self._jobs]
            if not batch:  # every job was forgotten while pending
                continue
            try:
                slot.job_q.put(("batch", batch))
            except (ValueError, OSError):
                # queue closed under us: worker died between pick and put;
                # the watchdog will reap it and retry the assigned jobs
                continue

    def _promote_due_retries(self, now: float) -> None:
        """Move due retry-heap entries back into the pending list."""
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _due, seq = heapq.heappop(self._retry_heap)
            st = self._jobs.get(seq)
            if st is not None and st.wid is None:
                self._pending.append(st.job)

    # -- collection --------------------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            try:
                msg = self._result_q.get(timeout=self.poll_interval)
            except queue_mod.Empty:
                msg = None
                if self._closed and not self._futures:
                    return
            except (EOFError, OSError, ValueError):
                return
            else:
                if msg is None:
                    return
            now = time.monotonic()
            if now - self._last_watchdog >= self.poll_interval:
                # time-based, not timeout-based: a steady result stream
                # must not starve hang detection on the other workers
                self._last_watchdog = now
                self._run_watchdog()
            if msg is None:
                continue
            kind = msg[0]
            if kind == "start":
                _, wid, seq = msg
                with self._lock:
                    slot = self._slot_by_wid.get(wid)
                    if slot is not None:
                        slot.current_seq = seq
                continue
            _, result = msg
            self._results_ctr.value += 1
            with self._lock:
                fut = self._futures.pop(result.seq, None)
                self._jobs.pop(result.seq, None)
                self._poison_counts.pop(result.key, None)
                for s in self._slots:
                    if s.current_seq == result.seq:
                        s.current_seq = 0
            if fut is not None:
                self._resolve(fut, result)

    # -- drain / shutdown --------------------------------------------------

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until every submitted job has resolved (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._futures and not self._pending:
                    return True
            time.sleep(0.01)
        return False

    def close(self, *, timeout: float = 5.0) -> None:
        """Graceful drain: sentinels, join, then terminate stragglers.

        Idempotent (a second call — even concurrent — is a no-op that
        waits for the first to finish) and race-free against the
        watchdog: ``_closed`` flips under the same lock the watchdog
        respawns under, so once the teardown snapshot is taken no new
        worker can appear.  Stragglers escalate ``terminate()`` →
        ``kill()``: SIGTERM is never delivered to a SIGSTOPped worker,
        SIGKILL reaps even those.
        """
        with self._close_lock:
            with self._cv:
                if self._closed:
                    return
                self._closed = True
                slots = list(self._slots)
                self._cv.notify_all()
            for slot in slots:
                try:
                    slot.job_q.put(None)
                except (ValueError, OSError):
                    pass
            for slot in slots:
                slot.proc.join(timeout=timeout)
            for slot in slots:
                if slot.proc.is_alive():
                    slot.proc.terminate()
                    slot.proc.join(timeout=1.0)
            for slot in slots:
                if slot.proc.is_alive():
                    slot.proc.kill()
                    slot.proc.join(timeout=5.0)
            # fail any future that will never resolve now
            with self._lock:
                leftovers = list(self._futures.values())
                self._futures.clear()
                self._jobs.clear()
                self._pending.clear()
                self._retry_heap.clear()
            for fut in leftovers:
                try:
                    if not fut.done():
                        self._lost.value += 1
                        fut.set_exception(
                            BrokenPipeError("farm pool closed"))
                except InvalidStateError:  # racing collector resolution
                    pass
            for slot in slots:
                try:
                    slot.job_q.close()
                except (OSError, ValueError):
                    pass
            self._result_q.close()
            self._collector.join(timeout=1.0)
            self._dispatcher.join(timeout=1.0)
            if self._own_dir is not None:
                try:
                    self._own_dir.cleanup()
                except OSError:  # pragma: no cover - windows file locks etc.
                    pass

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            inflight = len(self._futures)
            retry_pending = sum(1 for _d, s in self._retry_heap
                                if s in self._jobs)
        return {
            "jobs": self._jobs_ctr.value,
            "batches": self._batches.value,
            "batched_jobs": self._batched_jobs.value,
            "results": self._results_ctr.value,
            "respawns": self._respawns.value,
            "lost_futures": self._lost.value,
            "alive_workers": self.alive_workers(),
            "inflight": inflight,
            "retry_pending": retry_pending,
            "crashes": self._crashes.value,
            "hangs": self._hangs.value,
            "retries": self._retries.value,
            "exhausted": self._exhausted.value,
            "quarantined": self._quarantined.value,
            "quarantine_served": self._quarantine_served.value,
        }
