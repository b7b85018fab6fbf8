"""The specialization code cache (in-memory, per-stage memoization).

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
    are per-image, keyed by the module key they were emitted from, and die
    on :meth:`Image.patch_code` invalidation.

``module``
    The post--O3 IR module for (code at its address, fixation, O3 options)
    is known.  Only code generation runs.

``lifted``
    The lifted (pre-fixation, pre-O3) module for (code at its address,
    signature, lift options) is known.  Decode+lift are skipped; fixation,
    -O3 and codegen run.  This is the stage that fires when the *same*
    function is re-specialized for *different* parameters.

``rewrite``
    DBrew whole-rewrite memoization (per image): same entry code at the
    same address + same ``set_par``/``set_mem`` configuration -> the
    previously emitted code.

The pipeline (:mod:`repro.jit.plan`) makes every look-up and store.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.cache import keys as K
from repro.cache.negative import NegativeCache, NegativeEntry
from repro.cache.store import LRUStore
from repro.cpu.image import Image
from repro.ir.module import Function, Module
from repro.obs.metrics import MetricsRegistry

STAGES = ("machine", "module", "lifted", "rewrite")

T = TypeVar("T")


@dataclass
class NegativeStats:
    """Failure-quarantine traffic through the cache (see
    :mod:`repro.cache.negative`)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


def _per_stage() -> dict[str, int]:
    return dict.fromkeys(STAGES, 0)


@dataclass
class CacheStats:
    """Hit/miss accounting, per stage and per transform.

    The record a cache holds under ``cache`` in its own
    :class:`~repro.obs.metrics.MetricsRegistry`, whose
    ``snapshot()``/``reset()`` is the one read and the one reset.
    """

    stage_hits: dict[str, int] = field(default_factory=_per_stage)
    stage_misses: dict[str, int] = field(default_factory=_per_stage)
    stores: int = 0
    invalidations: int = 0
    #: whole-transform outcomes: a transform is a hit if *any* stage hit
    transforms: int = 0
    transform_hits: int = 0
    negative: NegativeStats = field(default_factory=NegativeStats)

    @property
    def hit_rate(self) -> float:
        """Fraction of transforms served (at least partially) from cache."""
        if self.transforms == 0:
            return 0.0
        return self.transform_hits / self.transforms


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
    """Per-image mutable cache state (machine + rewrite entries, digest and
    key memos).  Dropped wholesale when the image's guest bytes are
    patched."""

    def __init__(self, capacity: int, stats: CacheStats) -> None:
        self.generation = 0
        self.machine = LRUStore(capacity)
        self.rewrites = LRUStore(capacity)
        self.code_digests: dict[tuple[int, int], str] = {}
        #: a request's inputs -> the keys derived from them (see
        #: :meth:`SpecializationCache.derived_keys`)
        self.derived: dict[tuple, object] = {}
        self.capacity = capacity
        #: held by :meth:`on_patch` and by a memo store, so a value derived
        #: from the bytes before a patch cannot land after it
        self.lock = threading.Lock()
        self._stats = stats

    def memoized(self, memo: dict, key: object, derive: Callable[[], T]) -> T:
        """``memo[key]``, or ``derive()`` stored there unless a patch
        overtook the derivation.  A plain dict (one look-up hashes its key
        once), emptied when it reaches ``capacity`` entries."""
        value = memo.get(key)
        if value is None:
            generation = self.generation
            value = derive()
            with self.lock:
                if self.generation == generation:
                    if len(memo) >= self.capacity:
                        memo.clear()
                    memo[key] = value
        return value

    def on_patch(self, addr: int, size: int) -> None:
        """Invalidation hook: guest bytes changed somewhere.

        Deliberately coarse — one patch drops every position-dependent
        entry for this image.  Correctness never depends on precision here
        (stage keys are content digests), only the memoized digests and the
        skip-everything machine entries do.
        """
        with self.lock:
            self.generation += 1
            self.machine.clear()
            self.rewrites.clear()
            self.code_digests.clear()
            self.derived.clear()
        self._stats.invalidations += 1


class SpecializationCache:
    """Content-addressed cache for compiled specializations.

    ``capacity`` bounds each in-memory IR stage store (entries, LRU);
    ``machine_capacity`` bounds the per-image installed-code stores.

    Thread-safe: the stage stores and the quarantine lock internally (see
    :mod:`repro.cache.store` / :mod:`repro.cache.negative`) and image
    binding holds the cache's own lock.  Nothing coalesces misses: two
    threads missing on one key each compile and install a correct copy,
    and the last store wins.  Stats counters are plain int increments —
    atomic enough under the GIL for telemetry.
    """

    def __init__(self, *, capacity: int = 256,
                 machine_capacity: int = 1024) -> None:
        #: the cache's private metrics registry: all of its accounting
        self.registry = MetricsRegistry()
        self.stats = self.registry.record("cache", CacheStats)
        self._lifted = LRUStore(capacity)
        self._modules = LRUStore(capacity)
        self._machine_capacity = machine_capacity
        self._images: "weakref.WeakKeyDictionary[Image, _ImageState]" = \
            weakref.WeakKeyDictionary()
        self._attach_lock = threading.Lock()
        #: failure quarantine (see repro.cache.negative); shared with the
        #: guard ladder so a failed specialization is served its fallback
        #: without re-running the pipeline
        self.negative = NegativeCache(capacity=capacity * 4)

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
        """Memoized :func:`~repro.cache.keys.code_digest` of a function's
        installed bytes (cleared when the image is patched, so it can never
        go stale)."""
        extent = K.function_extent(image, func)
        if extent is None:
            return None
        state = self.attach_image(image)
        return state.memoized(state.code_digests, extent,
                              lambda: K.code_digest(image, extent))

    def derived_keys(self, image: Image, inputs: tuple,
                     derive: Callable[[], T]) -> T:
        """``derive()``, memoized per image under ``inputs``.

        ``inputs`` holds everything the derived keys are digests of — an
        extent standing for the code bytes in it, values for the rest, the
        bytes of fixed memory read by the caller on every request (a write
        to data has no hook) — so one look-up replaces re-deriving them.
        The memo is dropped with the code digests when the image is
        patched; a derivation a patch overtook is not stored.
        """
        state = self.attach_image(image)
        return state.memoized(state.derived, inputs, derive)

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
        self._put_ir(self._modules, mkey, module, func_name)

    def evict_module(self, mkey: str) -> None:
        """Drop one post-O3 module: the module of a rejected candidate must
        not be re-emitted by the next compile."""
        self._modules.discard(mkey)
        self.stats.invalidations += 1

    def get_lifted(self, lkey: str) -> tuple[Module, str] | None:
        return self._get_ir(self._lifted, "lifted", lkey)

    def put_lifted(self, lkey: str, module: Module, func_name: str) -> None:
        self._put_ir(self._lifted, lkey, module, func_name)

    def _get_ir(self, store: LRUStore, stage: str,
                key: str) -> tuple[Module, str] | None:
        entry = store.get(key)
        self._count(stage, entry is not None)
        if entry is None:
            return None
        module, func_name = entry
        # the caller will mutate (fixation/O3/global placement): hand out a
        # private copy, keep the cached one pristine
        return module.copy(), func_name

    def _put_ir(self, store: LRUStore, key: str, module: Module,
                func_name: str) -> None:
        # stored pristine and only ever copied again: no use lists to keep
        store.put(key, (module.copy(attached=False), func_name))
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
            self.stats.negative.hits += 1
        else:
            self.stats.negative.misses += 1
        return entry

    def put_negative(self, key: str, rung: str, reason: str,
                     context: dict | None = None) -> NegativeEntry:
        """Quarantine a failed transform under its content key."""
        self.stats.negative.stores += 1
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
