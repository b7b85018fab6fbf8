"""The specialization code cache (two-level, per-stage memoization).

Runtime rewriting pays its compile latency on the request path (the paper's
Fig. 10 measures decode -> lift -> -O3 -> codegen stage by stage), yet a
server that specializes the same function for the same parameters twice
repeats all of it.  :class:`SpecializationCache` amortizes that the way
production rewriters do (Instrew/Rellume keep lifted functions keyed by
address+bytes; BAAR caches accelerated regions), but content-addressed, so
a hit can land at any stage boundary:

``machine``
    The strongest hit: this exact specialization was already compiled and
    installed *in this image*.  Nothing runs; the existing entry address is
    returned (and aliased under the newly requested name).  Machine entries
    are per-image and die on :meth:`Image.patch_code` invalidation.

``module``
    The post--O3 IR module for (code bytes, fixation, O3 options) is known.
    Only code generation runs.

``lifted``
    The lifted (pre-fixation, pre-O3) module for (code bytes, signature,
    lift options) is known.  Decode+lift are skipped; fixation, -O3 and
    codegen run.  This is the stage that fires when the *same* function is
    re-specialized for *different* parameters.

``rewrite``
    DBrew whole-rewrite memoization (per image): same entry bytes + same
    ``set_par``/``set_mem`` configuration -> the previously emitted code.

IR-stage entries (``lifted``/``module``) are position-independent pickles:
with a ``disk_dir`` they survive process restarts and are promoted back
into the in-memory LRU on first use.
"""

from __future__ import annotations

import copy
import threading
import weakref
from dataclasses import dataclass
from typing import Any

from repro.cache import keys as K
from repro.cache.flight import FlightTable
from repro.cache.negative import NegativeCache, NegativeEntry
from repro.cache.store import DiskStore, LRUStore
from repro.cpu.image import Image
from repro.ir.module import Function, Module
from repro.obs.metrics import CounterView, MetricsRegistry

STAGES = ("machine", "module", "lifted", "rewrite")


class CacheStats:
    """Hit/miss accounting, per stage and per transform.

    Backed by a :class:`~repro.obs.metrics.MetricsRegistry` (private by
    default, shareable via the ``registry`` argument) so one
    ``snapshot()``/``reset()`` is authoritative across cache, guard and
    tier accounting.  The legacy attributes remain thin read/write views
    over the registry-owned metrics.
    """

    disk_hits = CounterView("_disk_hits")
    stores = CounterView("_stores")
    invalidations = CounterView("_invalidations")
    #: whole-transform outcomes: a transform is a hit if *any* stage hit
    transforms = CounterView("_transforms")
    transform_hits = CounterView("_transform_hits")
    #: failure-quarantine traffic (see repro.cache.negative)
    negative_hits = CounterView("_negative_hits")
    negative_misses = CounterView("_negative_misses")
    negative_stores = CounterView("_negative_stores")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.stage_hits = r.family("cache.stage_hits",
                                   {s: 0 for s in STAGES})
        self.stage_misses = r.family("cache.stage_misses",
                                     {s: 0 for s in STAGES})
        self._disk_hits = r.counter("cache.disk_hits")
        self._stores = r.counter("cache.stores")
        self._invalidations = r.counter("cache.invalidations")
        self._transforms = r.counter("cache.transforms")
        self._transform_hits = r.counter("cache.transform_hits")
        self._negative_hits = r.counter("cache.negative.hits")
        self._negative_misses = r.counter("cache.negative.misses")
        self._negative_stores = r.counter("cache.negative.stores")

    @property
    def hit_rate(self) -> float:
        """Fraction of transforms served (at least partially) from cache."""
        if self.transforms == 0:
            return 0.0
        return self.transform_hits / self.transforms

    def snapshot(self) -> dict[str, Any]:
        return {
            "stage_hits": dict(self.stage_hits),
            "stage_misses": dict(self.stage_misses),
            "disk_hits": self.disk_hits,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "transforms": self.transforms,
            "transform_hits": self.transform_hits,
            "hit_rate": self.hit_rate,
            "negative_hits": self.negative_hits,
            "negative_misses": self.negative_misses,
            "negative_stores": self.negative_stores,
        }


@dataclass
class MachineEntry:
    """An installed specialization: everything needed to answer without
    compiling (the function/module references let :class:`TransformResult`
    stay fully populated on a machine-stage hit)."""

    addr: int
    name: str
    size: int
    function: Function
    module: Module
    #: the installed code passed a differential verification gate; only
    #: gated entries may be served by :class:`GuardedTransformer` without
    #: re-running the gate (entries installed by an unguarded
    #: BinaryTransformer stay ungated and are verified on first guarded use)
    gated: bool = False
    #: machine-level translation-validation verdict recorded at install
    #: time ("proved"/"inconclusive"; refuted entries are never installed).
    #: None when the installing transformer ran without ``machine_verify``.
    #: Served with every machine-stage hit, so the proof is paid once per
    #: installed-code key.
    machine_verdict: str | None = None


class _ImageState:
    """Per-image mutable cache state (machine + rewrite entries, digest
    memo).  Dropped wholesale when the image's guest bytes are patched."""

    def __init__(self, capacity: int, stats: CacheStats) -> None:
        self.generation = 0
        self.machine = LRUStore(capacity)
        self.rewrites = LRUStore(capacity)
        self.code_digests: dict[tuple[int, int], str] = {}
        self._stats = stats

    def on_patch(self, addr: int, size: int) -> None:
        """Invalidation hook: guest bytes changed somewhere.

        Deliberately coarse — one patch drops every position-dependent
        entry for this image.  Correctness never depends on precision here
        (stage keys are content digests), only the memoized digests and the
        skip-everything machine entries do.
        """
        self.generation += 1
        self.machine.clear()
        self.rewrites.clear()
        self.code_digests.clear()
        self._stats.invalidations += 1


class SpecializationCache:
    """Content-addressed cache for compiled specializations.

    ``capacity`` bounds each in-memory IR stage store (entries, LRU);
    ``machine_capacity`` bounds the per-image installed-code stores;
    ``disk_dir`` enables the on-disk second level for IR stages.

    Thread-safe: the stage stores and the quarantine lock internally (see
    :mod:`repro.cache.store` / :mod:`repro.cache.negative`), image binding
    holds the cache's own lock, and :attr:`flights` coalesces concurrent
    compiles of one key into a single pipeline run.  Stats counters are
    plain int increments — atomic enough under the GIL for telemetry.
    """

    def __init__(self, *, capacity: int = 256, machine_capacity: int = 1024,
                 disk_dir: str | None = None,
                 negative: NegativeCache | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        #: the metrics registry backing all of this cache's accounting —
        #: stats counters and flight-table counters alike; pass a shared
        #: registry to aggregate with other subsystems
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = CacheStats(self.registry)
        self._lifted = LRUStore(capacity)
        self._modules = LRUStore(capacity)
        self._machine_capacity = machine_capacity
        self._disk = DiskStore(disk_dir) if disk_dir else None
        self._images: "weakref.WeakKeyDictionary[Image, _ImageState]" = \
            weakref.WeakKeyDictionary()
        self._attach_lock = threading.Lock()
        #: failure quarantine (see repro.cache.negative); shared with the
        #: guard ladder so a failed specialization is served its fallback
        #: without re-running the pipeline
        self.negative = negative if negative is not None \
            else NegativeCache(capacity=capacity * 4)
        #: in-flight compile coalescing (see repro.cache.flight); shared by
        #: every transformer attached to this cache, so N concurrent misses
        #: on one machine key run one pipeline.  Its led/coalesced counters
        #: live in this cache's registry (unified snapshot/reset).
        self.flights = FlightTable(
            led=self.registry.counter("cache.flight.led"),
            coalesced=self.registry.counter("cache.flight.coalesced"))

    # -- image binding ---------------------------------------------------------

    def attach_image(self, image: Image) -> _ImageState:
        """Bind to an image: registers the patch-invalidation hook.

        Locked — two threads racing the first attach must not register two
        invalidation hooks (the loser's machine store would survive a
        ``patch_code`` unflushed).
        """
        state = self._images.get(image)
        if state is None:
            with self._attach_lock:
                state = self._images.get(image)
                if state is None:
                    state = _ImageState(self._machine_capacity, self.stats)
                    image.add_invalidation_hook(state.on_patch)
                    self._images[image] = state
        return state

    def code_digest(self, image: Image, func: str | int) -> str | None:
        """Memoized digest of a function's installed bytes (cleared when
        the image is patched, so it can never go stale)."""
        extent = K.function_extent(image, func)
        if extent is None:
            return None
        state = self.attach_image(image)
        d = state.code_digests.get(extent)
        if d is None:
            d = K.digest_bytes(image.memory.read(extent[0], extent[1]))
            state.code_digests[extent] = d
        return d

    # -- machine stage ---------------------------------------------------------

    def get_machine(self, image: Image, mkey: str) -> MachineEntry | None:
        entry = self.attach_image(image).machine.get(mkey)
        self._count("machine", entry is not None)
        return entry

    def put_machine(self, image: Image, mkey: str, entry: MachineEntry) -> None:
        self.attach_image(image).machine.put(mkey, entry)
        self.stats.stores += 1

    def mark_machine_gated(self, image: Image, mkey: str) -> None:
        """Record that the installed entry passed the verification gate."""
        entry = self.attach_image(image).machine.get(mkey)
        if entry is not None:
            entry.gated = True

    def evict_machine(self, image: Image, mkey: str) -> None:
        """Drop one installed entry (e.g. proven divergent by the gate).

        Without this, gate-rejected code would survive in the positive
        store and be served unverified once its quarantine entry expires.
        """
        self.attach_image(image).machine.discard(mkey)
        self.stats.invalidations += 1

    # -- IR stages (module / lifted) -------------------------------------------

    def get_module(self, mkey: str) -> tuple[Module, str] | None:
        return self._get_ir(self._modules, "module", mkey)

    def put_module(self, mkey: str, module: Module, func_name: str) -> None:
        self._put_ir(self._modules, "module", mkey, module, func_name)

    def get_lifted(self, lkey: str) -> tuple[Module, str] | None:
        return self._get_ir(self._lifted, "lifted", lkey)

    def put_lifted(self, lkey: str, module: Module, func_name: str) -> None:
        self._put_ir(self._lifted, "lifted", lkey, module, func_name)

    def _get_ir(self, store: LRUStore, stage: str,
                key: str) -> tuple[Module, str] | None:
        entry = store.get(key)
        if entry is None and self._disk is not None:
            entry = self._disk.get(f"{stage}-{key}")
            if entry is not None:
                self.stats.disk_hits += 1
                store.put(key, entry)
        self._count(stage, entry is not None)
        if entry is None:
            return None
        module, func_name = entry
        # the caller will mutate (fixation/O3/global placement): hand out a
        # private copy, keep the cached one pristine
        return copy.deepcopy(module), func_name

    def _put_ir(self, store: LRUStore, stage: str, key: str,
                module: Module, func_name: str) -> None:
        # stored pristine and only ever copied again: no use lists to keep
        entry = (module.detached_copy(), func_name)
        store.put(key, entry)
        if self._disk is not None:
            self._disk.put(f"{stage}-{key}", entry)
        self.stats.stores += 1

    # -- DBrew rewrites ---------------------------------------------------------

    def get_rewrite(self, image: Image, rkey: str) -> tuple[int, int] | None:
        """``(addr, size)`` of a memoized rewrite's emitted code."""
        entry = self.attach_image(image).rewrites.get(rkey)
        self._count("rewrite", entry is not None)
        return entry

    def put_rewrite(self, image: Image, rkey: str, addr: int, size: int) -> None:
        # the size, not the symbol the code was installed under: a later
        # rewrite may re-point that name at another function's code
        self.attach_image(image).rewrites.put(rkey, (addr, size))
        self.stats.stores += 1

    # -- failure quarantine ------------------------------------------------------

    def check_negative(self, key: str) -> NegativeEntry | None:
        """A fresh quarantine entry for this transform key, or None."""
        entry = self.negative.check(key)
        if entry is not None:
            self.stats.negative_hits += 1
        else:
            self.stats.negative_misses += 1
        return entry

    def put_negative(self, key: str, rung: str, reason: str,
                     context: dict | None = None) -> NegativeEntry:
        """Quarantine a failed transform under its content key."""
        self.stats.negative_stores += 1
        return self.negative.record(key, rung, reason, context)

    # -- accounting --------------------------------------------------------------

    def _count(self, stage: str, hit: bool) -> None:
        if hit:
            self.stats.stage_hits[stage] += 1
        else:
            self.stats.stage_misses[stage] += 1

    def note_transform(self, cache_stage: str | None) -> None:
        """Record one whole transform's outcome (called by the engine)."""
        self.stats.transforms += 1
        if cache_stage is not None:
            self.stats.transform_hits += 1

    @property
    def evictions(self) -> int:
        n = self._lifted.evictions + self._modules.evictions
        for state in self._images.values():
            n += state.machine.evictions + state.rewrites.evictions
        return n

    def __len__(self) -> int:
        n = len(self._lifted) + len(self._modules)
        for state in self._images.values():
            n += len(state.machine) + len(state.rewrites)
        return n
