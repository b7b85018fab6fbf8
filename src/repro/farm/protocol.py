"""The farm wire protocol: picklable jobs and results.

Everything that crosses the process boundary lives here, and everything
here must pickle identically under both ``fork`` and ``spawn`` start
methods (tests/farm/test_protocol_roundtrip.py round-trips every field).

Three design constraints shape the records:

* **a job carries every byte its compile reads** — lifted IR bakes
  absolute guest addresses in, and the lifter, the fixation stage and the
  machine proof read guest memory.  So :func:`build_job` ships those
  ranges of the live client image, read when the job is built: the lift
  source and its known callees, every :class:`FixedMemory` fix and the
  client's rodata up to its cursor (the proof folds rodata loads), plus
  the four allocator cursors.  The worker maps exactly that, with fresh
  space above each cursor for its own throwaway codegen; a compile that
  reads anywhere else fails retryably instead of reading zeros.  Nothing
  is published ahead of a job, so nothing can go stale between the two.
* **a result carries a module, never an address** — the worker returns
  the pristine post-O3 :class:`~repro.ir.module.Module` and its machine
  verdict.  Every stage that touches the client image runs in the client:
  DBrew before the job is built (a ``dbrew+llvm`` rung ships as ``llvm``
  over DBrew's output), then code generation into its own image and
  admission (pregate, gate) of the bytes it installs.
* **budgets and tracers do not pickle** — a job carries plain budget
  *limits* (re-armed worker-side) and a parent *span id* plus a wall-clock
  anchor (re-anchored by :meth:`repro.obs.trace.Tracer.merge_records`),
  never the live objects.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.cache import keys as cache_keys
from repro.cpu.image import (
    DATA_BASE, JIT_BASE, PROBE_BASE, RODATA_BASE, Image,
)
from repro.errors import MemoryAccessError
from repro.guard.budget import Budget
from repro.ir.module import Module
from repro.jit.plan import Plan
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory
from repro.mem.memory import FaultNotingMemory

#: disk-store key prefix of published results
RESULT_PREFIX = "farmres"

#: where each allocator's free space ends: the base of the region above it
#: (code, rodata, data, jit)
_REGION_ENDS = (RODATA_BASE, DATA_BASE, JIT_BASE, PROBE_BASE)


# -- shipped bytes -----------------------------------------------------------


@dataclass(frozen=True)
class MemSegment:
    """One shipped range: ``data`` is the zero-trimmed prefix of ``size``
    bytes at ``addr`` (rodata is mostly zeroes — trimming keeps the pickled
    job proportional to actual content, not address space)."""

    addr: int
    size: int
    data: bytes


def _merged(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``(addr, size)`` ranges with overlapping and touching ones joined:
    an access that spans two of them in the client must not straddle two
    mappings in the worker."""
    out: list[list[int]] = []
    for addr, size in sorted(ranges):
        if out and addr <= out[-1][1]:
            out[-1][1] = max(out[-1][1], addr + size)
        else:
            out.append([addr, addr + size])
    return [(lo, hi - lo) for lo, hi in out]


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
    """One lift-and-optimise request shipped to a worker.

    ``key`` is the content identity of the *work* (see :func:`build_job`):
    the cross-process single-flight key and the shared-store result key.
    """

    key: str
    name: str
    #: target tier (repro.tier.policy.T1 / T2)
    tier: int
    #: the lift source: a name or entry address among ``functions``
    func: str | int
    signature: FunctionSignature
    fixes: tuple[tuple[int, int | float | FixedMemory], ...] | None
    #: every byte the compile reads, read from the client image when the
    #: job was built
    segments: tuple[MemSegment, ...]
    #: ``(symbol, addr, size)`` of the lift source and its known callees
    functions: tuple[tuple[str, int, int], ...]
    #: the client's (code, rodata, data, jit) allocator cursors: the
    #: worker's own allocations land in the free space above them
    cursors: tuple[int, int, int, int]
    #: the engine's plan, compiled by the worker as given.  Its pregate and
    #: gate are the client's to run, and ``machine_verify``, which only
    #: rejects, is not part of ``key``: the verdict travels back in the
    #: published payload, so the proof is paid once per key
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

    def build_image(self) -> Image:
        """The worker's image: the shipped bytes at their client addresses,
        fresh space above each cursor and nothing else.

        Bypasses ``Image.__init__`` (which maps the default layout).
        """
        img = Image.__new__(Image)
        img.memory = mem = FaultNotingMemory()
        for seg in self.segments:
            mem.map(seg.addr, seg.size, seg.data)
        for cursor, end in zip(self.cursors, _REGION_ENDS):
            mem.map(cursor, end - cursor)  # lazily zeroed: free until used
        img.symbols = {name: addr for name, addr, _ in self.functions}
        img.func_sizes = {name: size for name, _, size in self.functions}
        (img._code_cursor, img._rodata_cursor,
         img._data_cursor, img._jit_cursor) = self.cursors
        (img._code_limit, img._rodata_limit,
         img._data_limit, img._jit_limit) = _REGION_ENDS
        img._invalidation_hooks = []
        img.codegen_lock = threading.RLock()
        img.generation = 0
        return img


@dataclass(frozen=True)
class CompileResult:
    """What comes back: a position-independent module, never an address.

    ``ok=False`` splits on ``retryable``: True means the farm could not do
    the work (a read outside the shipped bytes, a starved budget, worker
    crash, transport loss) and the client should compile in-process; False
    means the compile itself refused (a typed error, a refuted proof) —
    content-determined, so retrying locally would only repeat it, and the
    engine records a rejection instead.
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


# -- building a job ----------------------------------------------------------


def build_job(image: Image, func: str | int, signature: FunctionSignature,
              fixes: dict[int, int | float | FixedMemory] | None,
              plan: Plan, tier: int, name: str,
              **fields) -> CompileJob | None:
    """The job that compiles ``func`` under ``plan``, or None when the
    farm cannot ship it (an unknown function extent, unreadable fixed
    memory): the caller then compiles in-process.

    The job's key digests every shipped byte with its address, the
    functions, the signature, the fixes, the tier and the plan's rung, lift
    and O3 options — everything the worker's compile reads.  The cursors
    are not keyed: they place the worker's throwaway emission, not the
    module.  What can only reject work (the plan's pregate,
    ``machine_verify``, gate and gate options) is not keyed either.
    ``fields`` fills the job's bookkeeping fields (budget, epoch, ...).
    """
    if plan.rung != "llvm-fix":
        fixes = None  # only fixation reads them (Pipeline.compile)
    functions = []
    for f in (func, *plan.lift.known_functions):
        extent = cache_keys.function_extent(image, f)
        if extent is None:
            return None
        symbol = f if isinstance(f, str) else image.symbol_at(f)
        functions.append((symbol, *extent))
    ranges = [(addr, size) for _, addr, size in functions]
    ranges += [(v.addr, v.size) for v in (fixes or {}).values()
               if isinstance(v, FixedMemory)]
    # the bytes and the cursors of one moment: an install allocates and
    # writes under this lock
    with image.codegen_lock:
        cursors = (image._code_cursor, image._rodata_cursor,
                   image._data_cursor, image._jit_cursor)
        if cursors[1] > RODATA_BASE:
            ranges.append((RODATA_BASE, cursors[1] - RODATA_BASE))
        try:
            segments = tuple(
                MemSegment(addr, size,
                           image.memory.read(addr, size).rstrip(b"\x00"))
                for addr, size in _merged(ranges))
        except MemoryAccessError:
            return None
    key = cache_keys.digest_str(
        "farmjob",
        cache_keys.digest_bytes(*(b"%d:%d:" % (s.addr, s.size) + s.data
                                  for s in segments)),
        repr(sorted(functions)), cache_keys.signature_digest(signature),
        cache_keys.fixes_digest(fixes, image.memory), f"t{tier}", plan.rung,
        cache_keys.lift_options_digest(plan.lift, image),
        cache_keys.options_digest(plan.o3))
    return CompileJob(
        key=key, name=name, tier=tier, func=func, signature=signature,
        fixes=freeze_fixes(fixes), segments=segments,
        functions=tuple(functions), cursors=cursors, plan=plan, **fields)


def result_key(job_key: str) -> str:
    return f"{RESULT_PREFIX}-{job_key}"
