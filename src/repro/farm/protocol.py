"""The farm wire protocol: picklable jobs, results and image snapshots.

Everything that crosses the process boundary lives here, and everything
here must pickle identically under both ``fork`` and ``spawn`` start
methods (tests/farm/test_protocol_roundtrip.py round-trips every field).

Three design constraints shape the records:

* **machine code is position-dependent, IR modules are not** — lifted IR
  bakes absolute guest addresses into address arithmetic, and codegen
  assembles against a concrete image base.  So a job ships an
  :class:`ImageSpec` reference (guest bytes + symbols + allocator state)
  the worker rebuilds *at the original addresses*, and a result ships the
  pristine post-O3 :class:`~repro.ir.module.Module` — the client runs the
  (cheap) code generation itself, into its own image, under its own
  ``codegen_lock``.  Worker-side codegen still happens, but only to give
  the T2 differential gate something to execute.
* **budgets and tracers do not pickle** — a job carries plain budget
  *limits* (re-armed worker-side) and a parent *span id* plus a wall-clock
  anchor (re-anchored by :meth:`repro.obs.trace.Tracer.merge_records`),
  never the live objects.
* **image snapshots are big, jobs are small** — an :class:`ImageSpec` for
  the default layout is megabytes; shipping one per job would swamp the
  queues.  Jobs reference the spec by content key in the shared disk
  store; the client publishes it once per image generation and workers
  memoize the parsed spec per key.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.cache import keys as cache_keys
from repro.cpu.image import Image
from repro.guard.budget import Budget
from repro.guard.verify import GateOptions
from repro.ir.module import Module
from repro.jit.plan import Plan
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory
from repro.mem.memory import Memory
from repro.tier.policy import T1

#: disk-store key prefixes for the farm's shared-state channels
IMAGE_SPEC_PREFIX = "farmimg"
RESULT_PREFIX = "farmres"


# -- image snapshot ----------------------------------------------------------


@dataclass(frozen=True)
class MemSegment:
    """One mapped region: ``data`` is the zero-trimmed prefix of ``size``
    bytes at ``addr`` (guest images are mostly zeroes — trimming keeps the
    pickled spec proportional to actual content, not address space)."""

    addr: int
    size: int
    data: bytes


@dataclass(frozen=True)
class ImageSpec:
    """Everything needed to rebuild a client image bit-identically.

    Cursors and limits are captured so worker-side allocations (rodata for
    fixed-memory globals, JIT space for gate candidates) land in the same
    *free* space they would client-side — addresses allocated by the
    worker must not collide with client allocations baked into the IR.
    """

    segments: tuple[MemSegment, ...]
    symbols: tuple[tuple[str, int], ...]
    func_sizes: tuple[tuple[str, int], ...]
    #: (code, rodata, data, jit) bump-allocator cursors
    cursors: tuple[int, int, int, int]
    #: (code, rodata, data, jit) region limits
    limits: tuple[int, int, int, int]
    generation: int = 0

    @classmethod
    def capture(cls, image: Image) -> "ImageSpec":
        segments = tuple(
            MemSegment(start, len(data), data.rstrip(b"\x00"))
            for start, data in image.memory.snapshot())
        return cls(
            segments=segments,
            symbols=tuple(sorted(image.symbols.items())),
            func_sizes=tuple(sorted(image.func_sizes.items())),
            cursors=(image._code_cursor, image._rodata_cursor,
                     image._data_cursor, image._jit_cursor),
            limits=(image._code_limit, image._rodata_limit,
                    image._data_limit, image._jit_limit),
            generation=image.generation,
        )

    def build(self) -> Image:
        """A fresh image with this spec's exact memory/symbol/cursor state.

        Bypasses ``Image.__init__`` (which maps the default layout): the
        spec's own regions are authoritative, including custom sizes.
        """
        img = Image.__new__(Image)
        img.memory = Memory()
        for seg in self.segments:
            img.memory.map(seg.addr, seg.size, seg.data)
        img.symbols = dict(self.symbols)
        img.func_sizes = dict(self.func_sizes)
        (img._code_cursor, img._rodata_cursor,
         img._data_cursor, img._jit_cursor) = self.cursors
        (img._code_limit, img._rodata_limit,
         img._data_limit, img._jit_limit) = self.limits
        img._invalidation_hooks = []
        img.codegen_lock = threading.RLock()
        img.generation = self.generation
        return img

    def digest(self) -> str:
        """Content key: identical guest state -> identical key, in any
        process (drives worker-side spec memoization).  Memoized on the
        instance."""
        d = self.__dict__.get("_digest_memo")
        if d is None:
            parts = [b"%d:%d:" % (s.addr, s.size) + s.data for s in self.segments]
            parts.append(repr(self.symbols).encode())
            parts.append(repr(self.func_sizes).encode())
            parts.append(repr((self.cursors, self.limits,
                               self.generation)).encode())
            d = cache_keys.digest_bytes(*parts)
            object.__setattr__(self, "_digest_memo", d)
        return d


# -- option sanitizers -------------------------------------------------------


def freeze_fixes(
    fixes: dict[int, int | float | FixedMemory] | None,
) -> tuple[tuple[int, int | float | FixedMemory], ...] | None:
    """Fixation dict -> sorted tuple (hashable, deterministic pickle)."""
    if not fixes:
        return None
    return tuple(sorted(fixes.items()))


def thaw_fixes(
    frozen: tuple[tuple[int, int | float | FixedMemory], ...] | None,
) -> dict[int, int | float | FixedMemory] | None:
    return dict(frozen) if frozen else None


def freeze_budget(budget: Budget | None) -> tuple | None:
    """A budget's *limits* (deadline + fuel); the worker re-arms a fresh
    :class:`Budget` from them — clocks and yield hooks never travel."""
    if budget is None:
        return None
    return (budget.deadline_seconds, tuple(sorted(budget.limits.items())))


def thaw_budget(frozen: tuple | None) -> Budget | None:
    if frozen is None:
        return None
    deadline, limits = frozen
    kwargs = {f"max_{name}": limit for name, limit in limits}
    return Budget(deadline_seconds=deadline, **kwargs)


# -- the job/result records --------------------------------------------------


@dataclass(frozen=True)
class CompileJob:
    """One rewrite request shipped to a worker.

    ``key`` is the content-addressed identity of the *work* (function
    bytes + fixation + tier + options): the cross-process single-flight
    key, the shared-store result key and the client-side machine-cache
    key are all derived from it.
    """

    key: str
    name: str
    #: target tier (repro.tier.policy.T1 / T2)
    tier: int
    func: str | int
    signature: FunctionSignature
    fixes: tuple[tuple[int, int | float | FixedMemory], ...] | None
    mem_regions: tuple[tuple[int, int], ...]
    probes: tuple
    dbrew_func: str | int | None
    #: shared-store key of the ImageSpec to rebuild (publishes once per
    #: image generation; see ImageSpec docstring)
    image_key: str
    #: the engine's plan, run by the worker under a guard restricted to
    #: ``plan.rung``.  A T1 plan arrives with ``gate="never"``: an
    #: inconclusive proof is gated by the client, against its own emission
    #: of the shipped module.  Its pregate, ``machine_verify`` and ``gate``
    #: are not part of ``key``: they only reject output, they cannot change
    #: accepted code; the machine verdict travels back in the published
    #: payload, so the proof is paid once per key
    plan: Plan
    budget: tuple | None = None
    epoch: int = 0
    seq: int = 0
    #: dispatch count stamped by the pool (1 = first try); lets workers
    #: and results attribute retries after worker death
    attempt: int = 0
    #: tracing requested: the worker records spans and returns them
    trace: bool = False
    #: client-side span id the merged worker spans re-root under
    parent_span_id: int | None = None

    def thawed_fixes(self) -> dict[int, int | float | FixedMemory] | None:
        return thaw_fixes(self.fixes)


@dataclass(frozen=True)
class CompileResult:
    """What comes back: a position-independent module, never an address.

    ``ok=False`` splits on ``retryable``: True means the farm could not do
    the work (unkeyed function, worker crash, transport loss) and the
    client should compile in-process; False means the *pipeline verdict*
    is negative (gate rejection, ladder exhaustion) — content-determined,
    so retrying locally would only repeat it, and the engine records a
    rejection instead.
    """

    key: str
    name: str
    tier: int
    epoch: int = 0
    seq: int = 0
    #: dispatches the job took (mirrors CompileJob.attempt)
    attempt: int = 0
    ok: bool = False
    retryable: bool = False
    mode: str | None = None
    verified: bool = False
    reject_reason: str | None = None
    module: Module | None = None
    main_name: str | None = None
    #: "farm" when served from the shared store without compiling
    cache_stage: str | None = None
    #: this worker joined another process's in-flight compile
    coalesced: bool = False
    #: worker-side counters folded into the client registry (facet-cache
    #: hits, flight accounting, pipeline stage seconds, ...)
    stats: tuple[tuple[str, float], ...] = ()
    trace_records: dict | None = field(default=None, hash=False)
    worker_pid: int = 0
    seconds: float = 0.0
    #: machine-level translation-validation verdict recorded by whichever
    #: worker compiled this job key first (None = verification not run)
    machine_verdict: str | None = None


# -- content keys ------------------------------------------------------------


def compute_job_key(image: Image, func: str | int,
                    signature: FunctionSignature,
                    fixes: dict[int, int | float | FixedMemory] | None,
                    mem_regions, probes,
                    dbrew_func: str | int | None, plan: Plan, tier: int, *,
                    image_key: str | None = None,
                    instrument: str | None = None) -> str | None:
    """Content identity of one farm job, or None when unkeyable.

    Built from the same ingredients as the staged cache keys (function
    bytes, signature, fixation *contents*, the plan's option digests) plus
    the farm-level coordinates the staged keys do not see: tier, the guard
    ladder (``plan.rung`` above T1, none for T1), probe vectors and gate
    options — two jobs that would gate differently must never collapse
    into one single-flight.  What can only reject work (the plan's
    pregate, ``machine_verify`` and ``gate``) is not keyed.

    ``instrument`` is the :meth:`InstrumentOptions.digest` of an
    instrumented job (None for plain compiles): an instrumented artifact
    writes probe effects a plain one does not, so the two must stay
    digest-distinct even when every other ingredient matches.

    ``image_key`` folds the published :class:`ImageSpec`'s content key in
    when given.  Shipped modules are position-dependent on the snapshot
    the worker rebuilds (allocator cursors decide where worker-side
    allocations land), so results computed against *different* snapshots
    must never be served interchangeably under one key.  Identical images
    produce identical spec keys, so legitimate cross-client sharing is
    unaffected.

    None (unknown function extent, unreadable fixed memory) means the farm
    cannot prove two requests identical, so the caller compiles locally.
    """
    extent = cache_keys.function_extent(image, func)
    if extent is None:
        return None
    code = cache_keys.digest_bytes(image.memory.read(extent[0], extent[1]))
    if dbrew_func is not None:
        dextent = cache_keys.function_extent(image, dbrew_func)
        if dextent is None:
            return None
        dbrew_code = cache_keys.digest_bytes(
            image.memory.read(dextent[0], dextent[1]))
    else:
        dbrew_code = "-"
    try:
        fdigest = cache_keys.fixes_digest(fixes, image.memory)
    except Exception:
        return None
    return cache_keys.digest_str(
        "farmjob", code, dbrew_code,
        cache_keys.signature_digest(signature), fdigest,
        repr(sorted(mem_regions)), repr(tuple(probes)),
        f"t{tier}", plan.rung if tier != T1 else "",
        cache_keys.lift_options_digest(plan.lift, image),
        cache_keys.options_digest(plan.o3),
        cache_keys.options_digest(plan.gate_options or GateOptions()),
        image_key or "-",
        instrument or "-",
    )


def image_spec_key(digest: str) -> str:
    return f"{IMAGE_SPEC_PREFIX}-{digest}"


def result_key(job_key: str) -> str:
    return f"{RESULT_PREFIX}-{job_key}"
