"""Compile farm: a multi-process rewrite service over a shared disk cache.

PR 4's :class:`~repro.tier.TieredEngine` moved LLVM-grade optimization off
the application's critical path into background *threads*; this package
moves it off the application's *cores* into a pool of worker processes —
the offload model BAAR argues for, built from four pieces:

* :mod:`repro.farm.protocol` — picklable :class:`CompileJob` /
  :class:`CompileResult` records.  A job carries every byte its compile
  reads (the lift source, fixed memory and rodata, at their client
  addresses) and a result carries a position-independent post-O3 module;
* :mod:`repro.farm.pool` — :class:`FarmPool`: worker lifecycle (spawn,
  respawn-on-crash, graceful drain), batched job transport over
  ``multiprocessing`` queues, result collection;
* :mod:`repro.farm.worker` — the worker process main loop: map the
  shipped bytes, lift and optimise under a per-job
  :class:`~repro.guard.Budget`, publish the post-O3 module and its
  machine verdict to the shared :class:`~repro.cache.DiskStore`, all
  under the cross-process single-flight of
  :class:`~repro.cache.FileFlightTable`;
* :mod:`repro.farm.client` — :class:`FarmClient`: the in-process facade
  the tiered engine calls; adds thread-level request coalescing and
  merges worker trace records into the client tracer.

Failure is always soft: a dead pool, a lost job, a timeout or an unkeyed
function all surface as ``None``/``retryable`` results, and the engine
falls back to compiling in-process — exactly the degradation ladder the
rest of the system already follows.  :mod:`repro.farm.health` holds the
policy pieces that bound every failure in *time* as well: the per-worker
heartbeat watchdog (hung vs crashed workers), bounded retry with backoff
and jitter, poisoned-job quarantine, and the client-side
:class:`CircuitBreaker` that degrades a sick farm to in-process tiers
immediately instead of one timeout per request.
"""

from repro.farm.client import FarmClient
from repro.farm.health import (
    CircuitBreaker,
    HealthEvent,
    RetryPolicy,
    WorkerWatchdog,
)
from repro.farm.pool import FarmPool
from repro.farm.protocol import CompileJob, CompileResult, MemSegment

__all__ = [
    "CircuitBreaker",
    "CompileJob",
    "CompileResult",
    "FarmClient",
    "FarmPool",
    "HealthEvent",
    "MemSegment",
    "RetryPolicy",
    "WorkerWatchdog",
]
