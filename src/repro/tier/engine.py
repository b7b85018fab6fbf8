"""TieredEngine: background compilation behind zero-stall dispatch.

The engine owns a small :class:`~concurrent.futures.ThreadPoolExecutor` of
compile workers plus the dispatch table of registered
:class:`~repro.tier.handle.DispatchHandle` objects.  The life of a handle:

1. **register** — the handle starts at T0 (the original code); the first
   call costs exactly a counter bump and an attribute read.
2. **promotion** — when the call counter crosses a governor threshold the
   dispatch slow path *enqueues* a compile job and returns immediately;
   callers keep running the current tier while the worker compiles.
3. **install** — the worker installs the result by swapping the handle's
   immutable :class:`TierCode` record under the handle lock, but only if
   the job's fixation *epoch* still matches the handle; a ``refix`` racing
   with a compile supersedes it and the stale result is discarded, never
   installed.
4. **demotion** — measured per-call costs reported via
   :meth:`DispatchHandle.observe` feed the governor's EWMA; a tier that is
   consistently worse than a lower ready tier is demoted (with back-off,
   so it does not flap).

Tier meanings (:mod:`repro.tier.policy`) — each is one
:class:`~repro.jit.plan.Plan`, decided by :meth:`TieredEngine._plan_for`:

* **T1** is the cheap rung: :meth:`O3Options.lightweight` — the paper's
  Sec. VII "small subset of passes" proposal; with fixes it runs
  ``llvm-fix``, otherwise a plain lift-and-regenerate.
* **T2** is the full specialization (``dbrew+llvm`` when there is anything
  to specialize) with the differential gate as *admission control* — a
  rejected candidate pins the handle at its current tier instead of ever
  serving unverified code.

Worker compiles are *cooperative*: each job's
:class:`~repro.guard.Budget` gets a yield hook that blocks on the
engine's run gate, so :meth:`pause` throttles in-flight compiles at their
next trace-point/sweep/stage checkpoint without any stage knowing about
threads.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.analysis.checkers import DEFAULT_PREGATE
from repro.cache import SpecializationCache
from repro.cpu.image import Image
from repro.errors import ReproError
from repro.guard import Budget, GateOptions, GuardedTransformer
from repro.instrument.passes import InstrumentOptions
from repro.ir.passes import O3Options
from repro.jit.plan import DEFAULT_O3, Plan, TransformResult
from repro.lift import FunctionSignature, LiftOptions
from repro.lift.fixation import FixedMemory
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACER as _TR, Span
from repro.tier.handle import DispatchHandle, TierCode
from repro.tier.policy import (
    NUM_TIERS, T1, EdgeProfile, TierGovernor, TierPolicy, tier_verified,
)


def _per_upgrade() -> dict[int, int]:
    return dict.fromkeys(range(1, NUM_TIERS), 0)


@dataclass
class TierStats:
    """Aggregate engine counters: the record an engine holds in its
    :class:`~repro.obs.metrics.MetricsRegistry` under ``tier``, beside the
    ``guard`` and ``cache`` records of its T2 guards and default cache."""

    registered: int = 0
    #: compile jobs submitted / installed / rejected, by target tier
    submitted: dict[int, int] = field(default_factory=_per_upgrade)
    installs: dict[int, int] = field(default_factory=_per_upgrade)
    rejections: dict[int, int] = field(default_factory=_per_upgrade)
    #: wall seconds spent inside compile jobs, by target tier
    compile_seconds: dict[int, float] = field(
        default_factory=lambda: dict.fromkeys(range(1, NUM_TIERS), 0.0))
    #: finished jobs discarded because a refix superseded their epoch
    stale_discards: int = 0
    demotions: int = 0
    refixes: int = 0
    #: TransformResults observed via the per-call profiling hook
    pipeline_results: int = 0
    #: of those, served by joining another thread's in-flight compile
    coalesced: int = 0
    #: pipeline results served from a warm cache stage (stage -> count)
    cache_served: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class _Job:
    """One queued background compile."""

    handle: DispatchHandle
    target: int
    epoch: int
    seq: int
    #: the submitting context's span (None when tracing is off) — the
    #: worker adopts it so its compile span nests under the dispatch site
    parent_span: Span | None = None


class TieredEngine:
    """Hotness-profiled tiered execution over one image."""

    def __init__(self, image: Image, *,
                 cache: SpecializationCache | None = None,
                 policy: TierPolicy | None = None,
                 max_workers: int = 2,
                 clock: Callable[[], float] = time.monotonic,
                 budget_factory: Callable[[], Budget] | None = None,
                 machine_verify: bool = False,
                 registry: MetricsRegistry | None = None,
                 profile: str = "calls") -> None:
        if profile not in ("calls", "edges"):
            raise ValueError(f"unknown profile source {profile!r}")
        self.image = image
        #: one registry owns every layer's metrics under this engine: tier
        #: counters here, cache.* via the default cache, guard.* via the
        #: per-job T2 GuardedTransformers (get-or-create shares counters)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cache = cache if cache is not None \
            else SpecializationCache(registry=self.registry)
        self.policy = policy if policy is not None else TierPolicy()
        self.clock = clock
        #: per-job budget source; the engine chains its throttle gate onto
        #: whatever yield hook the factory's budgets already carry
        self.budget_factory = budget_factory
        #: statically verify every fresh T1/T2 emission against its source
        #: IR (:mod:`repro.analysis.machine`) before installing it; a
        #: refuted proof rejects the job, an inconclusive proof on the
        #: ungated T1 tier downgrades to a one-off differential gate
        self.machine_verify = machine_verify
        #: governor hotness source: "calls" (raw invocation counts) or
        #: "edges" — T1 compiles instrumented with edge counters
        #: (``repro.instrument``) and each handle's governor promotes on
        #: basic-block heat read from the live probe buffer
        self.profile = profile
        self.stats = self.registry.record("tier", TierStats)
        self._queue_depth = self.registry.gauge("tier.queue_depth")
        self._dispatch_seconds = self.registry.histogram(
            "tier.dispatch_seconds",
            (1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 1e-4, 1e-3))
        self.registry.view("tier.cycles_ewma", self._ewma_view)
        self.handles: dict[str, DispatchHandle] = {}
        self._lock = threading.RLock()
        self._seq = itertools.count()
        self._closed = False
        #: set = run, cleared = throttle workers at their next checkpoint
        self._run_gate = threading.Event()
        self._run_gate.set()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-tier")

    def _ewma_view(self) -> dict[str, dict[int, float]]:
        """Registry view: per-handle governor EWMAs (owned by the policy
        layer, which stays metrics-free; exposed read-only here)."""
        with self._lock:
            return {name: dict(h.governor.cycles)
                    for name, h in self.handles.items()}

    # -- registration ------------------------------------------------------

    def register(self, func: str | int, signature: FunctionSignature, *,
                 fixes: dict[int, int | float | FixedMemory] | None = None,
                 mem_regions: Sequence[tuple[int, int]] = (),
                 probes: Sequence[tuple] = (),
                 name: str | None = None,
                 dbrew_func: str | int | None = None,
                 policy: TierPolicy | None = None) -> DispatchHandle:
        """Front a (function, fixation) pair with a dispatch handle.

        ``fixes``/``mem_regions``/``probes``/``dbrew_func`` have the same
        meaning as in :meth:`GuardedTransformer.transform`; they define the
        fixation key the upgrade tiers compile for.  The handle starts at
        T0 and is immediately dispatchable.
        """
        if self._closed:
            raise RuntimeError("TieredEngine is closed")
        entry = self.image.symbol(func) if isinstance(func, str) else func
        base = func if isinstance(func, str) else f"f{func:x}"
        hname = name or f"{base}.tiered"
        governor = TierGovernor(policy=policy or self.policy,
                                clock=self.clock)
        handle = DispatchHandle(self, hname, func, entry, signature, fixes,
                                mem_regions, probes, dbrew_func, governor)
        if _TR.enabled:
            # __class__ swap to a timed subclass: DispatchHandle.address()
            # itself stays the bare three-step hot path when tracing is off
            handle._enable_dispatch_trace(self._dispatch_seconds)
        with self._lock:
            if hname in self.handles:
                raise ValueError(f"handle {hname!r} already registered")
            self.handles[hname] = handle
            self.stats.registered += 1
        return handle

    def refix(self, handle: DispatchHandle,
              fixes: dict[int, int | float | FixedMemory] | None = None, *,
              mem_regions: Sequence[tuple[int, int]] = (),
              probes: Sequence[tuple] = ()) -> None:
        """Supersede the handle's fixation key (new parameter values).

        Bumps the compile epoch — in-flight jobs for the old key finish
        but their results are discarded at install time — drops every
        upgrade tier, rebases hotness, and falls back to T0 until the new
        key earns its promotions.
        """
        with handle._cv:
            handle.epoch += 1
            handle.fixes = dict(fixes) if fixes else None
            handle.mem_regions = tuple(mem_regions)
            handle.probes = tuple(probes)
            handle.governor.rebase(handle.calls)
            handle._version += 1
            t0 = TierCode(0, handle.entry, handle.name, handle._version,
                          handle.epoch, "original")
            handle.codes = {0: t0}
            handle._code = t0
            handle._next_review = handle.governor.next_review(handle.calls, 0)
            handle._cv.notify_all()
        with self._lock:
            self.stats.refixes += 1

    # -- dispatch slow path ------------------------------------------------

    def _review(self, handle: DispatchHandle) -> None:
        """Counter crossed a threshold: maybe enqueue a compile.

        Non-blocking by construction: if another thread holds the handle
        lock (an install or a concurrent review), this call just returns —
        the counter keeps climbing and a later call retries.
        """
        if self._closed:
            return
        job = None
        if not handle._cv.acquire(blocking=False):
            return
        try:
            cur = handle._code.tier
            target = handle.governor.next_target(handle.calls, cur,
                                                 handle.in_flight)
            if target is not None:
                handle.in_flight.add(target)
                job = _Job(handle, target, handle.epoch, next(self._seq),
                           _TR.current() if _TR.enabled else None)
            handle._next_review = handle.governor.next_review(
                handle.calls, cur)
        finally:
            handle._cv.release()
        if job is not None:
            with self._lock:
                self.stats.submitted[job.target] += 1
                self._queue_depth.inc()
            if _TR.enabled:
                _TR.instant("tier.promote", {"handle": handle.name,
                                             "target": job.target})
            self._pool.submit(self._run_job, job)

    def _observe(self, handle: DispatchHandle, tier: int,
                 cycles: float) -> None:
        with handle._cv:
            demote_to = handle.governor.observe(tier, cycles)
            if demote_to is None or demote_to not in handle.codes \
                    or handle._code.tier != tier:
                return
            handle.governor.on_demote(tier, handle.calls)
            handle._code = handle.codes[demote_to]
            handle._next_review = handle.governor.next_review(
                handle.calls, demote_to)
            handle._cv.notify_all()
        with self._lock:
            self.stats.demotions += 1
        if _TR.enabled:
            _TR.instant("tier.demote", {"handle": handle.name,
                                        "from": tier, "to": demote_to})

    # -- background compilation --------------------------------------------

    def _job_budget(self) -> Budget:
        budget = self.budget_factory() if self.budget_factory else Budget()
        inner = budget.yield_hook

        def hook() -> None:
            self._run_gate.wait()
            if inner is not None:
                inner()

        budget.yield_hook = hook
        return budget

    def _note_result(self, result: TransformResult) -> None:
        with self._lock:
            self.stats.pipeline_results += 1
            if result.coalesced:
                self.stats.coalesced += 1
            if result.cache_stage is not None:
                self.stats.cache_served[result.cache_stage] = (
                    self.stats.cache_served.get(result.cache_stage, 0) + 1)

    def _run_job(self, job: _Job) -> None:
        if not _TR.enabled:
            return self._run_job_impl(job)
        # worker threads do not inherit the submit-site context: adopt the
        # captured parent so the compile span nests under the dispatch span
        token = _TR.adopt(job.parent_span)
        try:
            with _TR.span("tier.compile", {"handle": job.handle.name,
                                           "target": job.target,
                                           "seq": job.seq}):
                return self._run_job_impl(job)
        finally:
            _TR.release(token)

    def _run_job_impl(self, job: _Job) -> None:
        handle = job.handle
        self._run_gate.wait()
        if handle.epoch != job.epoch or self._closed:
            with handle._cv:
                handle.in_flight.discard(job.target)
                handle._cv.notify_all()
            with self._lock:
                self.stats.stale_discards += 1
                self._queue_depth.dec()
            return

        t0 = time.perf_counter()
        addr = mode = reject_reason = None
        verified = False
        out_name = f"{handle.name}.t{job.target}.e{job.epoch}.s{job.seq}"
        try:
            plan = self._plan_for(handle, job.target)
            addr, mode, verified, reject_reason = self._compile(
                handle, job.target, plan, out_name)
        except ReproError as exc:
            reject_reason = f"{type(exc).__name__}: {exc}"
        except BaseException as exc:  # pragma: no cover - defensive
            reject_reason = f"internal error: {exc!r}"
        seconds = time.perf_counter() - t0

        outcome = "stale"
        with handle._cv:
            handle.in_flight.discard(job.target)
            try:
                if handle.epoch != job.epoch:
                    with self._lock:
                        self.stats.stale_discards += 1
                elif reject_reason is not None or addr is None:
                    outcome = "reject"
                    handle.governor.on_reject(
                        job.target, reject_reason or "no result")
                    with self._lock:
                        self.stats.rejections[job.target] += 1
                else:
                    outcome = "install"
                    handle._version += 1
                    installed = TierCode(job.target, addr, out_name,
                                         handle._version, job.epoch,
                                         mode or "?", verified)
                    handle.codes[job.target] = installed
                    if job.target > handle._code.tier:
                        handle._code = installed
                    handle.governor.on_install(job.target)
                    with self._lock:
                        self.stats.installs[job.target] += 1
                handle._next_review = handle.governor.next_review(
                    handle.calls, handle._code.tier)
            finally:
                handle._cv.notify_all()
        with self._lock:
            self.stats.compile_seconds[job.target] += seconds
            self._queue_depth.dec()
        if _TR.enabled:
            _TR.instant(f"tier.{outcome}",
                        {"handle": handle.name, "target": job.target,
                         "seconds": seconds,
                         "reason": reject_reason})

    def _plan_for(self, handle: DispatchHandle, target: int) -> Plan:
        """The pipeline policy of one tier of one handle — decided here,
        once, and handed whole to :meth:`GuardedTransformer.from_plan`.

        **T1**, the cheap tier: the lightweight pass subset, served
        ungated — it is produced by the same lifter/codegen as everything
        else and the differential gate is T2's admission control, where
        specialization actually changes semantics-relevant structure.  An
        *inconclusive* machine proof downgrades that privilege to a
        mandatory one-off gate.  With ``profile="edges"`` an unfixed T1 is
        compiled with probes and runs the full boundary stack; a handle
        registered without probe vectors gets a ``min_conclusive=0`` gate
        (sampled integers cannot exercise pointer parameters), which
        matches plain T1's trust level while still comparing every probe
        that *is* conclusive.

        **T2**, the full tier: the strongest applicable rung under the
        guard's whole policy.  T2 is *the* specialization tier, so a
        failure there must pin the handle (reported as a rejection), not
        silently install a rung the cheaper tiers already cover.
        """
        rung, o3, inject = "llvm", O3Options.lightweight(), None
        pregate, gate, gate_options = (), "if-inconclusive", GateOptions()
        if target != T1:
            if handle.fixes or handle.mem_regions:
                rung = "dbrew+llvm"
            o3 = DEFAULT_O3
            pregate, gate = DEFAULT_PREGATE, "always"
        elif handle.fixes:
            # the fixation wrapper calls the lifted original, which only
            # exists inside the module — the inliner must collapse that
            # call or codegen has no symbol to resolve it against
            rung, o3 = "llvm-fix", o3.replace(enable_inline=True)
        elif self.profile == "edges":
            inject = InstrumentOptions()
            gate = "always"
            if not handle.probes:
                gate_options = replace(gate_options, min_conclusive=0)
        return Plan(rung, LiftOptions(), o3, inject=inject, pregate=pregate,
                    machine_verify=self.machine_verify, gate=gate,
                    gate_options=gate_options)

    def _compile(self, handle: DispatchHandle, target: int, plan: Plan,
                 out_name: str,
                 ) -> tuple[int | None, str | None, bool, str | None]:
        """Run ``plan`` in-process, under the guard restricted to the
        plan's rung: a failure is a rejection (never a weaker rung) and
        leaves the guard's rung quarantine and eviction behind.
        ``guard.*`` in the engine's registry counts T2 admissions only."""
        guard = GuardedTransformer.from_plan(
            self.image, plan, cache=self.cache, budget=self._job_budget(),
            registry=self.registry if target != T1 else None)
        if plan.inject is None:
            # the hook's telemetry describes cache traffic, which an
            # instrumented compile never has
            guard.pipeline.on_result = self._note_result
        res = guard.transform(
            handle.func, handle.signature, handle.fixes,
            mem_regions=handle.mem_regions, name=out_name,
            probes=handle.probes, ladder=(plan.rung,),
            dbrew_func=handle.dbrew_func if target != T1 else None)
        if res.degraded:
            return None, None, False, res.failure_summary()
        if res.result.probes is not None:
            # attach before the install commits: a stale-epoch discard
            # leaves a frozen buffer behind, which is safe — the governor
            # takes max(calls, heat), so a dead profile degrades to call
            # counting
            handle.governor.profile = EdgeProfile(res.result.probes.buffer)
            return res.addr, "llvm+instr", False, None
        return res.addr, res.mode, tier_verified(
            target, res.verified, res.result.machine_gated), None

    # -- scheduling controls -----------------------------------------------

    def pause(self) -> None:
        """Throttle background compiles at their next budget checkpoint."""
        self._run_gate.clear()

    def resume(self) -> None:
        self._run_gate.set()

    @property
    def paused(self) -> bool:
        return not self._run_gate.is_set()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no compile is queued or running; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in list(self.handles.values()):
            with handle._cv:
                remaining = None if deadline is None else \
                    deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    if handle.in_flight:
                        return False
                    continue
                if not handle._cv.wait_for(lambda: not handle.in_flight,
                                           remaining):
                    return False
        return True

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and shut the pool down.

        The run gate is re-opened first so paused workers can finish (or
        discard) instead of deadlocking the shutdown.
        """
        self._closed = True
        self.resume()
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "TieredEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "closed": self._closed,
                "paused": self.paused,
                "stats": asdict(self.stats),
                "handles": {n: h.snapshot()
                            for n, h in self.handles.items()},
            }
