"""BinaryTransformer + SpecializationCache integration: stage hits,
invalidation, eviction bounds and the hit-rate counters."""

from dataclasses import asdict

import pytest

from repro.cache import SpecializationCache
from repro.cc import compile_c
from repro.cpu import Simulator
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory

from repro.jit import BinaryTransformer

SIG = FunctionSignature(("i", "i"), "i")
SRC = "long f(long a, long b) { return a * b + 7; }"


def test_repeated_transform_hits_machine_stage():
    img = compile_c(SRC).image
    cache = SpecializationCache()
    tx = BinaryTransformer(img, cache=cache)
    cold = tx.llvm_identity("f", SIG, name="f.v0")
    assert cold.cache_stage is None

    warm = [tx.llvm_identity("f", SIG, name=f"f.v{i}") for i in range(1, 6)]
    for res in warm:
        assert res.cache_stage == "machine"
        assert res.addr == cold.addr          # same installed code
        assert res.total_seconds == 0.0       # nothing compiled
    # every requested name aliases the one installed copy
    sim = Simulator(img)
    for i in range(6):
        assert sim.call_int(f"f.v{i}", (6, 9)) == 61


def test_distinct_keys_install_distinct_code():
    img = compile_c(SRC).image
    tx = BinaryTransformer(img, cache=SpecializationCache())
    a = tx.llvm_identity("f", SIG, name="f.a")
    b = tx.llvm_fixed("f", SIG, {1: 7}, name="f.b")
    assert a.cache_stage is None and b.cache_stage != "machine"
    assert a.machine_key != b.machine_key
    assert a.addr != b.addr


def test_hit_rate_counter_reports_all_warm_transforms():
    img = compile_c(SRC).image
    cache = SpecializationCache()
    tx = BinaryTransformer(img, cache=cache)
    tx.llvm_identity("f", SIG, name="f.cold")
    before = asdict(cache.stats)
    assert cache.stats.hit_rate == 0.0
    for i in range(10):
        tx.llvm_identity("f", SIG, name=f"f.warm{i}")
    after = asdict(cache.stats)
    warm_transforms = after["transforms"] - before["transforms"]
    warm_hits = after["transform_hits"] - before["transform_hits"]
    assert warm_transforms == 10
    assert warm_hits == 10  # 100% hit rate once warm
    assert cache.stats.hit_rate == pytest.approx(10 / 11)


def test_respecialization_hits_lifted_stage():
    img = compile_c(SRC).image
    cache = SpecializationCache()
    tx = BinaryTransformer(img, cache=cache)
    r1 = tx.llvm_fixed("f", SIG, {0: 3}, name="f.x3")
    assert r1.cache_stage is None
    # same function, new fixation value: decode+lift skipped, O3+codegen run
    r2 = tx.llvm_fixed("f", SIG, {0: 4}, name="f.x4")
    assert r2.cache_stage == "lifted"
    assert r2.lift_seconds == 0.0
    assert r2.optimize_seconds > 0.0
    sim = Simulator(img)
    assert sim.call_int("f.x3", (0, 10)) == 37
    assert sim.call_int("f.x4", (0, 10)) == 47


def test_fixed_memory_contents_feed_the_key():
    img = compile_c(
        "long f(long* cfg, long x) { return cfg[0] * x + cfg[1]; }").image
    data = img.alloc_data(16)
    img.memory.write_u64(data, 3)
    img.memory.write_u64(data + 8, 100)
    cache = SpecializationCache()
    tx = BinaryTransformer(img, cache=cache)
    sig = FunctionSignature(("i", "i"), "i")
    fixes = {0: FixedMemory(data, 16)}
    tx.llvm_fixed("f", sig, fixes, name="f.c1")
    # same region, same bytes: full machine hit
    assert tx.llvm_fixed("f", sig, fixes, name="f.c2").cache_stage == "machine"
    # same region, different bytes: must NOT reuse the specialized module
    img.memory.write_u64(data, 5)
    r3 = tx.llvm_fixed("f", sig, fixes, name="f.c3")
    assert r3.cache_stage == "lifted"
    sim = Simulator(img)
    assert sim.call_int("f.c1", (0, 7)) == 121   # baked-in 3*x+100
    assert sim.call_int("f.c3", (0, 7)) == 135   # baked-in 5*x+100


def test_a_second_image_hits_the_module_stage():
    img, img2 = compile_c(SRC).image, compile_c(SRC).image
    cache = SpecializationCache()
    BinaryTransformer(img, cache=cache).llvm_identity("f", SIG, name="f.j0")
    res = BinaryTransformer(img2, cache=cache).llvm_identity("f", SIG,
                                                            name="f.j1")
    # the post-O3 module is image-independent and reused; machine entries
    # are per image, so only codegen reruns, into the second image
    assert res.cache_stage == "module"
    assert Simulator(img2).call_int("f.j1", (2, 3)) == 13


def test_patch_invalidates_machine_entries():
    img = compile_c(SRC).image
    cache = SpecializationCache()
    tx = BinaryTransformer(img, cache=cache)
    tx.llvm_identity("f", SIG, name="f.a")
    assert tx.llvm_identity("f", SIG, name="f.b").cache_stage == "machine"

    addr = img.symbol("f")
    img.patch_code(addr, img.memory.read(addr, 1))  # same byte, still a patch
    assert cache.stats.invalidations == 1
    # machine entries died with the generation, but the patched bytes are
    # identical, so the content-addressed IR stages still hit
    res = tx.llvm_identity("f", SIG, name="f.c")
    assert res.cache_stage == "module"
    sim = Simulator(img)
    assert sim.call_int("f.c", (6, 9)) == 61


def test_capacity_bounds_and_evictions():
    img = compile_c("""
    long f0(long a, long b) { return a + b; }
    long f1(long a, long b) { return a - b; }
    long f2(long a, long b) { return a ^ b; }
    """).image
    cache = SpecializationCache(capacity=1, machine_capacity=1)
    tx = BinaryTransformer(img, cache=cache)
    for i in range(3):
        tx.llvm_identity(f"f{i}", SIG, name=f"f{i}.tx")
    # 1 lifted + 1 module + 1 machine entry at most survive
    assert len(cache) <= 3
    assert cache.evictions >= 4
    # the most recent function is still warm, the oldest fell out
    assert tx.llvm_identity("f2", SIG, name="f2.tx2").cache_stage == "machine"
    assert tx.llvm_identity("f0", SIG, name="f0.tx2").cache_stage is None


def test_cache_disabled_is_fully_transparent():
    img = compile_c(SRC).image
    tx = BinaryTransformer(img)  # no cache
    r1 = tx.llvm_identity("f", SIG, name="f.n1")
    r2 = tx.llvm_identity("f", SIG, name="f.n2")
    assert r1.cache_stage is None and r2.cache_stage is None
    assert r2.total_seconds > 0.0
    sim = Simulator(img)
    assert sim.call_int("f.n1", (6, 9)) == sim.call_int("f.n2", (6, 9)) == 61
