"""Concurrent hammer tests for the cache stores.

Eight threads mixing misses, hits and evictions on a small-capacity
LRUStore: before the stores took a lock, the ``OrderedDict`` underneath
corrupts under this load — ``move_to_end`` racing ``popitem`` raises
``KeyError``, iteration during ``put`` raises ``RuntimeError: OrderedDict
mutated during iteration``, and link-list corruption loses entries.  The
tiny switch interval forces the interpreter to preempt threads inside
those compound operations, so the pre-lock failure reproduces in well
under a second rather than once a week in CI.

Nothing coalesces concurrent misses, so the last test races whole
compiles of one key through one shared cache and image.
"""

import sys
import threading
import time

import pytest

from repro import BinaryTransformer, FunctionSignature, compile_c
from repro.cache import NegativeCache, SpecializationCache
from repro.cache.store import LRUStore
from repro.cpu import Simulator
from repro.testing.faults import inject_faults

N_THREADS = 8
OPS = 800


@pytest.fixture(autouse=True)
def _aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def hammer(n_threads, worker):
    errors = []
    barrier = threading.Barrier(n_threads)

    def run(tid):
        try:
            barrier.wait()
            worker(tid)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "a worker hung"
    assert not errors, errors


def test_lru_hammer_miss_hit_evict():
    store = LRUStore(capacity=16)  # far below the live key range: constant
    # eviction pressure while other threads hit

    def worker(tid):
        for i in range(OPS):
            key = f"k{(tid * OPS + i) % 64}"
            if i % 3 == 0:
                store.put(key, (tid, i))
            elif i % 3 == 1:
                v = store.get(key)
                assert v is None or isinstance(v, tuple)
            else:
                for k in store.keys():  # iteration during mutation
                    assert isinstance(k, str)
                store.discard(key)

    hammer(N_THREADS, worker)
    assert len(store) <= 16
    assert store.evictions > 0


def test_lru_hammer_single_hot_key():
    # everyone fighting over one key maximizes move_to_end/popitem overlap
    store = LRUStore(capacity=2)

    def worker(tid):
        for i in range(OPS):
            store.put("hot", i)
            store.get("hot")
            store.put(f"cold{tid}-{i % 8}", i)  # forces "hot" toward eviction

    hammer(N_THREADS, worker)
    assert len(store) <= 2


def test_negative_cache_hammer_record_check():
    neg = NegativeCache(ttl=0.001, capacity=32)

    def worker(tid):
        for i in range(OPS):
            key = f"g{(tid + i) % 48}"
            if i % 2 == 0:
                neg.record(key, "llvm", f"fault {tid}", {"tid": tid})
            else:
                entry = neg.check(key)
                if entry is not None:
                    assert entry.failures >= 1
            if i % 17 == 0:
                neg.forget(key)

    hammer(N_THREADS, worker)
    assert len(neg) <= 32


def test_attach_image_registers_one_invalidation_hook():
    from repro import compile_c

    prog = compile_c("long f(long a, long b) { return a + b; }")
    cache = SpecializationCache()
    barrier = threading.Barrier(N_THREADS)
    errors = []

    def worker():
        try:
            barrier.wait()
            for _ in range(50):
                cache.attach_image(prog.image)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # double-checked locking: exactly one hook, one per-image state
    assert len(prog.image._invalidation_hooks) == 1


def test_a_memo_never_keeps_a_value_of_overwritten_bytes():
    """Readers memoize the digest of ``f`` (and a key derived from it)
    while a writer patches ``f`` back and forth: a digest computed from
    the bytes before a patch must not land in a memo after the patch
    emptied it.  Between two of its patches the writer finds every entry
    equal to a fresh derivation."""
    from repro.cache import keys
    from repro.cpu import Image
    from repro.x86.asm import assemble
    from repro.x86.asmparser import parse_asm

    img = Image()
    code, _ = assemble(parse_asm("mov eax, 7\nret"),
                       base=img.next_code_addr())
    addr = img.add_function("f", code)  # C7 C0 imm32, C3
    cache = SpecializationCache()
    state = cache.attach_image(img)
    extent = keys.function_extent(img, "f")

    def derive():
        return keys.code_digest(img, extent)

    def worker(tid):
        for i in range(4 * OPS):
            if tid == 0:
                fresh = derive()
                memos = list(state.code_digests.values()) \
                    + list(state.derived.values())
                assert set(memos) <= {fresh}, i
                img.patch_code(addr + 2, (7 + i % 2).to_bytes(4, "little"))
            else:
                cache.code_digest(img, "f")
                cache.derived_keys(img, ("f", extent), derive)

    hammer(N_THREADS, worker)


def slow_opt(result, *args):
    time.sleep(0.05)  # widen the window; keep the real result
    return None


def test_concurrent_same_key_misses_each_install_a_correct_copy():
    """Threads behind a barrier miss on one machine key of one shared
    cache while -O3 is slowed, so their compiles overlap: each gets code
    that computes the function, and the machine store holds one entry for
    the key, which a later request is served."""
    prog = compile_c("long f(long a, long b) { return (a + 1) * b; }")
    cache = SpecializationCache()
    sig = FunctionSignature(("i", "i"), "i")
    n = 4
    results = [None] * n

    def worker(i):
        tx = BinaryTransformer(prog.image, cache=cache)
        results[i] = tx.llvm_identity("f", sig, name=f"f.race{i}")

    with inject_faults("opt", every=True, corrupt=slow_opt):
        hammer(n, worker)

    sim = Simulator(prog.image)
    for i, r in enumerate(results):
        assert r.name == f"f.race{i}"
        assert sim.call_int(r.name, (4, 5)) == 25
    (mkey,) = {r.machine_key for r in results}
    assert list(cache.attach_image(prog.image).machine.keys()) == [mkey]
    again = BinaryTransformer(prog.image, cache=cache).llvm_identity(
        "f", sig, name="f.after")
    assert again.cache_stage == "machine"
    assert again.addr in {r.addr for r in results}
