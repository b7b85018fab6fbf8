"""Seeded, deterministic chaos orchestration for the compile farm.

The fault-injection layer of PR 2 (:mod:`repro.testing.faults`) attacks
the in-process pipeline; this module attacks the *service*: it runs a real
:class:`~repro.tier.TieredEngine` over a real :class:`~repro.farm.FarmPool`
— live worker processes, a shared on-disk store — while a scripted
adversary injects the full fault taxonomy of DESIGN §12:

=================  ==========================================================
fault kind         what happens
=================  ==========================================================
``kill``           SIGKILL a random worker mid-whatever
``stop``           SIGSTOP a random worker (alive-but-silent: the watchdog's
                   *hung* case; SIGKILL-respawned, never SIGCONT'd)
``torn_write``     truncate a random published store record mid-byte
``bitflip``        flip one byte of a random published store record
``slow_io``        workers sleep before random jobs (armed at spawn)
``drop_result``    workers complete random jobs but never report them
``clock_skew``     the breaker's clock jumps forward by seconds
``budget``         every third compile budget is pre-exhausted
=================  ==========================================================

and checks the paper's global invariants after every scenario:

1. **no divergence** — every guest call, during and after the chaos,
   returns exactly what the farm-less oracle computes;
2. **zero-stall dispatch** — ``handle.address()`` never blocks on a
   compile (bounded far below one compile, generous to scheduler noise);
3. **termination** — every registered compile terminates: served,
   degraded to a lower tier, or quarantined; ``drain`` returns;
4. **store integrity** — the store never serves bytes that fail their
   checksum (verified by a raw post-scenario scan of every record).

**Determinism**: the fault *script* is a pure function of the seed.  Each
step draws a fixed number of values from a private ``random.Random(seed)``
— whether or not a fault fires, whatever targets currently exist — so the
decision stream replays bit-identically and a failing scenario reproduces
from its seed alone (``run_scenario(seed)``).  What the faults *land on*
(which worker pid, which store key) depends on runtime state; what is
*decided* does not.

``run_suite`` drives N seeds and aggregates violations and recovery
latencies for CI (``benchmarks/bench_chaos.py`` emits BENCH_chaos.json).
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import tempfile
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from repro.cache.store import _HEADER, _MAGIC
from repro.guard.budget import Budget
from repro.obs.metrics import MetricsRegistry

#: the full fault taxonomy (DESIGN §12); scenarios may run any subset
FAULT_KINDS = ("kill", "stop", "torn_write", "bitflip", "slow_io",
               "drop_result", "clock_skew", "budget")

#: dispatch slower than this is a stall, not scheduler noise: orders of
#: magnitude above a context switch, orders below one farm compile
DISPATCH_STALL_SECONDS = 1.0


@dataclass(frozen=True)
class ChaosOptions:
    """One scenario's shape.  Defaults are sized for a 1-CPU CI box."""

    workers: int = 2
    #: distinct guest functions registered (each its own oracle)
    functions: int = 3
    #: driver iterations; each calls every function and may inject a fault
    steps: int = 30
    calls_per_step: int = 2
    #: probability a step injects a fault (drawn from the seeded stream)
    fault_rate: float = 0.35
    faults: tuple[str, ...] = FAULT_KINDS
    heartbeat_interval: float = 0.25
    hang_timeout: float | None = None
    farm_timeout: float = 30.0
    drain_timeout: float = 180.0
    start_method: str | None = None
    #: tier promotion thresholds (low: chaos wants compiles in flight fast)
    promote_calls: tuple[int, int] = (2, 6)
    step_sleep: float = 0.02
    #: extra pure-dispatch laps after the drain; their latencies land in
    #: ``report.dispatch_warm`` so a chaos run's *warm* p99 can be compared
    #: against a fault-free run's (the zero-stall recovery bar)
    warm_laps: int = 0


@dataclass
class ChaosEvent:
    """One injected fault."""

    step: int
    t: float
    kind: str
    detail: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {"step": self.step, "t": round(self.t, 6),
                "kind": self.kind, "detail": self.detail}


@dataclass
class ScenarioReport:
    """Everything one scenario observed; ``ok`` iff no invariant broke."""

    seed: int
    events: list[ChaosEvent] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    calls: int = 0
    #: dispatch latencies: (p50, p99, max) seconds
    dispatch: dict[str, float] = field(default_factory=dict)
    #: post-drain pure-dispatch latencies (``ChaosOptions.warm_laps``)
    dispatch_warm: dict[str, float] = field(default_factory=dict)
    #: seconds from each worker death (crash/hang event) to its respawn
    recovery_latencies: list[float] = field(default_factory=list)
    pool: dict[str, Any] = field(default_factory=dict)
    store: dict[str, Any] = field(default_factory=dict)
    client: dict[str, Any] = field(default_factory=dict)
    engine: dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed, "ok": self.ok,
            "violations": list(self.violations),
            "events": [e.as_dict() for e in self.events],
            "calls": self.calls, "dispatch": dict(self.dispatch),
            "dispatch_warm": dict(self.dispatch_warm),
            "recovery_latencies": [round(x, 6)
                                   for x in self.recovery_latencies],
            "pool": dict(self.pool), "store": dict(self.store),
            "client": dict(self.client), "seconds": round(self.seconds, 3),
        }


# -- workload ----------------------------------------------------------------


def _source(n: int) -> str:
    """``n`` loop kernels with distinct coefficients (distinct oracles)."""
    return "\n".join(
        f"long f{k}(long a, long b) {{ long s = {k}; "
        f"for (long i = 0; i < a; i++) s += i * b + {k + 1}; return s; }}"
        for k in range(n))


def _oracle(k: int) -> Callable[[int, int], int]:
    def f(a: int, b: int) -> int:
        s = k
        for i in range(a):
            s += i * b + k + 1
        return s
    return f


class _SkewClock:
    """A monotonic clock the ``clock_skew`` fault jumps forward."""

    def __init__(self) -> None:
        self.skew = 0.0

    def __call__(self) -> float:
        return time.monotonic() + self.skew


# -- invariant helpers -------------------------------------------------------


def _quantiles(samples: list[float]) -> dict[str, float]:
    if not samples:
        return {"p50": 0.0, "p99": 0.0, "max": 0.0}
    s = sorted(samples)
    return {"p50": s[len(s) // 2],
            "p99": s[min(len(s) - 1, int(len(s) * 0.99))],
            "max": s[-1]}


def _record_checksum_ok(data: bytes) -> bool:
    """Does one raw store record pass its own header checksum?"""
    if not data.startswith(_MAGIC):
        return False
    if len(data) < _HEADER.size:
        return False
    _magic, crc, length = _HEADER.unpack_from(data)
    payload = data[_HEADER.size:]
    return len(payload) == length and zlib.crc32(payload) == crc


def _scan_store_integrity(store) -> list[str]:
    """Post-scenario integrity invariant: no key may *serve* a value whose
    on-disk bytes fail the checksum.  Run only after drain (no writers),
    so the raw read and the ``get`` observe the same record."""
    bad = []
    for key in store.keys():
        try:
            with open(store._path(key), "rb") as fh:
                data = fh.read()
        except OSError:
            continue  # quarantined/republished between listdir and read
        served = store.get(key)
        if served is not None and not _record_checksum_ok(data):
            bad.append(key)
    return bad


# -- fault injection ---------------------------------------------------------


def _inject(kind: str, target_draw: int, pool, store, skew_clock,
            rng_amount: float) -> str:
    """Land one scripted fault on current runtime state; returns detail.

    ``target_draw`` and ``rng_amount`` come from the seeded stream (drawn
    by the caller whether or not the fault fires); everything else is
    whatever exists right now.
    """
    if kind == "kill" or kind == "stop":
        with pool._lock:
            procs = [s.proc for s in pool._slots if s.proc.is_alive()]
        if not procs:
            return "no-alive-worker"
        proc = procs[target_draw % len(procs)]
        sig = signal.SIGKILL if kind == "kill" else signal.SIGSTOP
        try:
            os.kill(proc.pid, sig)
        except (OSError, TypeError):
            return "worker-gone"
        return f"pid={proc.pid}"
    if kind in ("torn_write", "bitflip"):
        keys = sorted(store.keys())
        if not keys:
            return "no-records"
        key = keys[target_draw % len(keys)]
        path = store._path(key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            if len(data) < 2:
                return "record-too-small"
            if kind == "torn_write":
                cut = 1 + target_draw % (len(data) - 1)
                with open(path, "wb") as fh:
                    fh.write(data[:cut])
                return f"{key} cut@{cut}"
            pos = target_draw % len(data)
            mutated = bytearray(data)
            mutated[pos] ^= 0xA5
            with open(path, "wb") as fh:
                fh.write(bytes(mutated))
            return f"{key} flip@{pos}"
        except OSError:
            return "record-vanished"
    if kind == "clock_skew":
        jump = 0.5 + rng_amount * 10.0
        skew_clock.skew += jump
        return f"+{jump:.2f}s"
    # slow_io / drop_result / budget are armed statically per scenario (the
    # workers and budget factory read the seed); the step event records
    # that the stream *selected* them so replays line up
    return "armed-at-spawn"


# -- the orchestrator --------------------------------------------------------


def run_scenario(seed: int, options: ChaosOptions | None = None,
                 workdir: str | None = None) -> ScenarioReport:
    """One full chaos scenario; deterministic fault script per ``seed``."""
    from repro import FarmClient, FarmPool, FunctionSignature, Simulator, \
        TieredEngine, compile_c
    from repro.farm.health import CircuitBreaker
    from repro.tier import TierPolicy

    opts = options if options is not None else ChaosOptions()
    rng = random.Random(seed)
    report = ScenarioReport(seed=seed)
    t_start = time.monotonic()

    own_dir = None
    if workdir is None:
        own_dir = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = own_dir.name

    prog = compile_c(_source(opts.functions))
    oracles = [_oracle(k) for k in range(opts.functions)]

    worker_chaos: dict[str, Any] = {"seed": seed}
    if "slow_io" in opts.faults:
        worker_chaos.update(slow_job_s=0.2, slow_rate=0.3)
    if "drop_result" in opts.faults:
        worker_chaos.update(drop_result_rate=0.15)

    budget_counter = itertools.count()

    def budget_factory() -> Budget:
        if "budget" in opts.faults and next(budget_counter) % 3 == 2:
            return Budget(deadline_seconds=1e-6)
        return Budget()

    skew_clock = _SkewClock()
    pool = FarmPool(
        workers=opts.workers, disk_dir=os.path.join(workdir, "farm"),
        start_method=opts.start_method,
        heartbeat_interval=opts.heartbeat_interval,
        hang_timeout=opts.hang_timeout,
        retry_seed=seed,
        worker_chaos=worker_chaos if len(worker_chaos) > 1 else None,
        registry=MetricsRegistry())
    client = FarmClient(
        pool, breaker=CircuitBreaker(failure_threshold=5, reset_timeout=1.0,
                                     clock=skew_clock),
        registry=MetricsRegistry())
    engine = TieredEngine(
        prog.image, farm=client, farm_timeout=opts.farm_timeout,
        policy=TierPolicy(promote_calls=opts.promote_calls),
        budget_factory=budget_factory, registry=MetricsRegistry())
    sim = Simulator(prog.image)
    dispatch_samples: list[float] = []

    def check_calls(step: int) -> None:
        a = 5 + (step % 7)
        for k, handle in enumerate(handles):
            for _ in range(opts.calls_per_step):
                t0 = time.perf_counter()
                addr = handle.address()
                dt = time.perf_counter() - t0
                dispatch_samples.append(dt)
                if dt > DISPATCH_STALL_SECONDS:
                    report.violations.append(
                        f"dispatch stall: f{k} step {step} took {dt:.3f}s")
                want = oracles[k](a, 3)
                report.calls += 1
                try:
                    got = sim.call(addr, (a, 3)).rax
                except Exception as exc:
                    # a faulting guest call is divergence too: the original
                    # code never faults on these inputs
                    report.violations.append(
                        f"divergence: f{k}({a},3) faulted "
                        f"{type(exc).__name__}: {exc} (step {step}, "
                        f"handle {handle.snapshot()})")
                    continue
                if got != want:
                    report.violations.append(
                        f"divergence: f{k}({a},3) -> {got}, oracle {want} "
                        f"(step {step}, tier {handle.tier})")

    try:
        handles = [
            engine.register(f"f{k}", FunctionSignature(("i", "i"), "i"),
                            fixes={1: 3}, probes=((10,), (5,)))
            for k in range(opts.functions)]
        for step in range(opts.steps):
            # fixed draw count per step: the script replays by seed alone
            r_fire = rng.random()
            r_kind = rng.randrange(len(opts.faults)) if opts.faults else 0
            r_target = rng.randrange(1 << 30)
            r_amount = rng.random()
            if opts.faults and r_fire < opts.fault_rate:
                kind = opts.faults[r_kind]
                detail = _inject(kind, r_target, pool, pool.store,
                                 skew_clock, r_amount)
                report.events.append(ChaosEvent(
                    step=step, t=time.monotonic() - t_start,
                    kind=kind, detail=detail))
            check_calls(step)
            time.sleep(opts.step_sleep)

        # invariant 3: every compile terminates (served / degraded /
        # quarantined) — drain must return, then the quiet-farm checks run
        if not engine.drain(timeout=opts.drain_timeout):
            report.violations.append(
                f"termination: engine.drain exceeded {opts.drain_timeout}s")
        if not pool.drain(timeout=opts.drain_timeout):
            report.violations.append(
                f"termination: pool.drain exceeded {opts.drain_timeout}s")

        # post-chaos correctness pass over a quiet farm
        check_calls(opts.steps)

        # warm-dispatch measurement: every compile has terminated, so each
        # address() is a pure table read — the recovery bar compares this
        # p99 between chaotic and fault-free runs
        if opts.warm_laps > 0:
            warm_samples: list[float] = []
            for _ in range(opts.warm_laps):
                for handle in handles:
                    t0 = time.perf_counter()
                    handle.address()
                    warm_samples.append(time.perf_counter() - t0)
            report.dispatch_warm = {k: round(v, 9) for k, v in
                                    _quantiles(warm_samples).items()}

        # invariant 4: the store never serves checksum-failing bytes
        for key in _scan_store_integrity(pool.store):
            report.violations.append(f"store integrity: {key} served "
                                     f"despite failing checksum")

        report.dispatch = {k: round(v, 6) for k, v in
                           _quantiles(dispatch_samples).items()}
        report.recovery_latencies = _pair_recoveries(pool.health_events)
        report.pool = pool.snapshot()
        report.store = pool.store.snapshot()
        report.client = client.snapshot()
        report.engine = asdict(engine.stats)
        # drop unpicklable/nested bits not useful in a JSON report
        report.engine.pop("cache_served", None)
    finally:
        try:
            engine.close()
        finally:
            pool.close()
            if own_dir is not None:
                try:
                    own_dir.cleanup()
                except OSError:  # pragma: no cover
                    pass
    report.seconds = time.monotonic() - t_start
    return report


def _pair_recoveries(events) -> list[float]:
    """Death→respawn latencies out of the pool's health-event log."""
    out: list[float] = []
    pending: list[float] = []
    for ev in events:
        if ev.kind in ("crash", "hang"):
            pending.append(ev.t)
        elif ev.kind == "respawn" and pending:
            out.append(ev.t - pending.pop(0))
    return [round(x, 6) for x in out]


def run_suite(seeds, options: ChaosOptions | None = None,
              on_report: Callable[[ScenarioReport], None] | None = None,
              ) -> dict[str, Any]:
    """Run one scenario per seed; aggregate for CI / BENCH_chaos.json."""
    reports = []
    for seed in seeds:
        rep = run_scenario(seed, options)
        reports.append(rep)
        if on_report is not None:
            on_report(rep)
    all_recov = [x for r in reports for x in r.recovery_latencies]
    all_faults: dict[str, int] = {}
    for r in reports:
        for ev in r.events:
            all_faults[ev.kind] = all_faults.get(ev.kind, 0) + 1
    return {
        "scenarios": len(reports),
        "violations": sum(len(r.violations) for r in reports),
        "failed_seeds": [r.seed for r in reports if not r.ok],
        "calls": sum(r.calls for r in reports),
        "faults_injected": all_faults,
        "recovery_latency": _quantiles(all_recov),
        "dispatch_p99_max": max((r.dispatch.get("p99", 0.0)
                                 for r in reports), default=0.0),
        "reports": [r.as_dict() for r in reports],
    }


__all__ = [
    "ChaosEvent",
    "ChaosOptions",
    "DISPATCH_STALL_SECONDS",
    "FAULT_KINDS",
    "ScenarioReport",
    "run_scenario",
    "run_suite",
]
