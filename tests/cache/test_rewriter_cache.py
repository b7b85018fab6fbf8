"""DBrew whole-rewrite memoization and its key sensitivity."""

from repro.cache import SpecializationCache
from repro.cc import compile_c
from repro.cpu import Simulator
from repro.dbrew import Rewriter

SRC = """
long f(long* v, long n) {
    long s = 0;
    for (long i = 0; i < n; i++) s += v[i] * v[i];
    return s;
}
"""


def _vector_image():
    img = compile_c(SRC).image
    v = img.alloc_data(8 * 4)
    for i in range(4):
        img.memory.write_u64(v + 8 * i, i + 1)
    return img, v


def _rewriter(img, v, cache, n=4):
    return (Rewriter(img, "f", cache=cache).set_signature(("i", "i"))
            .set_par(0, v).set_par(1, n).set_mem(v, v + 32))


def test_identical_rewrite_is_memoized():
    img, v = _vector_image()
    cache = SpecializationCache()
    a1 = _rewriter(img, v, cache).rewrite(name="f.d1")
    assert cache.stats.stage_misses["rewrite"] == 1
    a2 = _rewriter(img, v, cache).rewrite(name="f.d2")
    assert cache.stats.stage_hits["rewrite"] == 1
    assert a2 == a1  # no new code emitted, existing entry aliased
    sim = Simulator(img)
    want = sum((i + 1) ** 2 for i in range(4))
    assert sim.call_int("f.d1", (0, 0)) == want
    assert sim.call_int("f.d2", (0, 0)) == want


def test_rewrite_digest_feeds_composition_key():
    img, v = _vector_image()
    cache = SpecializationCache()
    r = _rewriter(img, v, cache)
    r.rewrite(name="f.dx")
    assert r.last_digest is not None
    r2 = _rewriter(img, v, cache)
    r2.rewrite(name="f.dy")
    assert r2.last_digest == r.last_digest  # served from cache, same code


def test_different_config_misses():
    img, v = _vector_image()
    cache = SpecializationCache()
    a4 = _rewriter(img, v, cache, n=4).rewrite(name="f.n4")
    a3 = _rewriter(img, v, cache, n=3).rewrite(name="f.n3")
    assert cache.stats.stage_hits["rewrite"] == 0
    assert cache.stats.stage_misses["rewrite"] == 2
    assert a3 != a4
    sim = Simulator(img)
    assert sim.call_int("f.n4", (0, 0)) == 30
    assert sim.call_int("f.n3", (0, 0)) == 14


def test_fixed_region_contents_feed_rewrite_key():
    img, v = _vector_image()
    cache = SpecializationCache()
    _rewriter(img, v, cache).rewrite(name="f.m1")
    # DBrew folded v's *values* into the emitted code; changing them must
    # miss even though the configuration (addresses) is unchanged
    img.memory.write_u64(v, 10)
    _rewriter(img, v, cache).rewrite(name="f.m2")
    assert cache.stats.stage_hits["rewrite"] == 0
    assert cache.stats.stage_misses["rewrite"] == 2
    sim = Simulator(img)
    assert sim.call_int("f.m2", (0, 0)) == 100 + 4 + 9 + 16


def test_rewrite_without_cache_unchanged():
    img, v = _vector_image()
    a1 = _rewriter(img, v, None).rewrite(name="f.p1")
    a2 = _rewriter(img, v, None).rewrite(name="f.p2")
    assert a1 != a2  # two independent rewrites, both correct
    sim = Simulator(img)
    assert sim.call_int("f.p1", (0, 0)) == sim.call_int("f.p2", (0, 0)) == 30


def test_hit_serves_its_own_size_after_the_name_moved_on():
    """Two configurations rewritten under one output name re-point that
    symbol; a later hit on the first must still carry the first's size —
    ``function_extent`` digests it for the DBrew+LLVM composition key."""
    img, v = _vector_image()
    cache = SpecializationCache()
    folded = _rewriter(img, v, cache).rewrite(name="f.spec")
    size = img.func_sizes["f.spec"]
    # n left free: the loop stays, the emitted code is longer
    loop = (Rewriter(img, "f", cache=cache).set_signature(("i", "i"))
            .set_par(0, v).set_mem(v, v + 32).rewrite(name="f.spec"))
    assert loop != folded and img.func_sizes["f.spec"] != size
    r = _rewriter(img, v, cache)
    assert r.rewrite(name="f.again") == folded
    assert cache.stats.stage_hits["rewrite"] == 1
    assert img.func_sizes["f.again"] == size
    assert r.last_digest == cache.code_digest(img, "f.again")
    assert Simulator(img).call_int("f.again", (0, 0)) == 30
