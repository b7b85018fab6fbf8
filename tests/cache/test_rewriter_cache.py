"""The pipeline's DBrew rewrite stage and its key sensitivity."""

from repro.cache import SpecializationCache
from repro.cc import compile_c
from repro.cpu import Simulator
from repro.jit.plan import Pipeline
from repro.lift import FunctionSignature

SRC = """
long f(long* v, long n) {
    long s = 0;
    for (long i = 0; i < n; i++) s += v[i] * v[i];
    return s;
}
"""
SIG = FunctionSignature(("i", "i"), "i")


def _vector_image():
    img = compile_c(SRC).image
    v = img.alloc_data(8 * 4)
    for i in range(4):
        img.memory.write_u64(v + 8 * i, i + 1)
    return img, v


def _rewrite(img, v, cache, name, n=4):
    """DBrew ``f`` with ``v`` and its 32 bytes fixed, and ``n`` unless it
    is None; returns (entry, served by the rewrite stage)."""
    fixes = {0: v} if n is None else {0: v, 1: n}
    return Pipeline(img, cache=cache).rewrite("f", SIG, fixes, ((v, v + 32),),
                                              name)


def test_identical_rewrite_is_memoized():
    img, v = _vector_image()
    cache = SpecializationCache()
    a1, served = _rewrite(img, v, cache, "f.d1")
    assert not served and cache.stats.stage_misses["rewrite"] == 1
    a2, served = _rewrite(img, v, cache, "f.d2")
    assert served and cache.stats.stage_hits["rewrite"] == 1
    assert a2 == a1  # no new code emitted, existing entry aliased
    sim = Simulator(img)
    want = sum((i + 1) ** 2 for i in range(4))
    assert sim.call_int("f.d1", (0, 0)) == want
    assert sim.call_int("f.d2", (0, 0)) == want


def test_different_config_misses():
    img, v = _vector_image()
    cache = SpecializationCache()
    a4, _ = _rewrite(img, v, cache, "f.n4", n=4)
    a3, served = _rewrite(img, v, cache, "f.n3", n=3)
    assert not served
    assert cache.stats.stage_hits["rewrite"] == 0
    assert cache.stats.stage_misses["rewrite"] == 2
    assert a3 != a4
    sim = Simulator(img)
    assert sim.call_int("f.n4", (0, 0)) == 30
    assert sim.call_int("f.n3", (0, 0)) == 14


def test_fixed_region_contents_feed_rewrite_key():
    img, v = _vector_image()
    cache = SpecializationCache()
    _rewrite(img, v, cache, "f.m1")
    # DBrew folded v's *values* into the emitted code; changing them must
    # miss even though the configuration (addresses) is unchanged
    img.memory.write_u64(v, 10)
    _, served = _rewrite(img, v, cache, "f.m2")
    assert not served
    assert cache.stats.stage_hits["rewrite"] == 0
    assert cache.stats.stage_misses["rewrite"] == 2
    sim = Simulator(img)
    assert sim.call_int("f.m2", (0, 0)) == 100 + 4 + 9 + 16


def test_rewrite_without_cache_unchanged():
    img, v = _vector_image()
    a1, served1 = _rewrite(img, v, None, "f.p1")
    a2, served2 = _rewrite(img, v, None, "f.p2")
    assert a1 != a2  # two independent rewrites, both correct
    assert not served1 and not served2
    sim = Simulator(img)
    assert sim.call_int("f.p1", (0, 0)) == sim.call_int("f.p2", (0, 0)) == 30


def test_hit_serves_its_own_size_after_the_name_moved_on():
    """Two configurations rewritten under one output name re-point that
    symbol; a later hit on the first must still carry the first's size —
    ``function_extent`` digests it for the DBrew+LLVM composition key."""
    img, v = _vector_image()
    cache = SpecializationCache()
    folded, _ = _rewrite(img, v, cache, "f.spec")
    size = img.func_sizes["f.spec"]
    # n left free: the loop stays, the emitted code is longer
    loop, _ = _rewrite(img, v, cache, "f.spec", n=None)
    assert loop != folded and img.func_sizes["f.spec"] != size
    assert _rewrite(img, v, cache, "f.again") == (folded, True)
    assert cache.stats.stage_hits["rewrite"] == 1
    assert img.func_sizes["f.again"] == size
    assert Simulator(img).call_int("f.again", (0, 0)) == 30
