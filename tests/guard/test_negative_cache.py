"""Failure quarantine: TTL windows, back-off, retry budget, stats."""

from repro.cache import NegativeCache, SpecializationCache
from repro.cache.negative import MAX_RETRIES, MAX_TTL


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make(**kw):
    clk = FakeClock()
    kw.setdefault("ttl", 10.0)
    return NegativeCache(clock=clk, **kw), clk


def test_fresh_entry_is_served_until_ttl():
    nc, clk = make()
    nc.record("k", "llvm", "LiftError: nope")
    entry = nc.check("k")
    assert entry is not None and entry.reason == "LiftError: nope"
    assert entry.served == 1
    clk.now = 9.9
    assert nc.check("k") is not None
    clk.now = 10.1
    assert nc.check("k") is None  # expired: the rung may be retried
    assert nc.expirations == 1


def test_expired_entry_survives_for_backoff():
    nc, clk = make()
    nc.record("k", "llvm", "first")
    clk.now = 11.0
    assert nc.check("k") is None
    entry = nc.record("k", "llvm", "second")  # the retry failed again
    assert entry.failures == 2
    assert entry.ttl == 20.0  # doubled
    assert entry.expiry == 31.0  # now + doubled ttl


def test_ttl_backoff_is_capped():
    nc, clk = make(ttl=MAX_TTL / 2.5)
    for _ in range(3):  # 0.4, 0.8, then 1.6 capped to 1.0 x MAX_TTL
        entry = nc.record("k", "llvm", "again")
    assert entry.ttl == MAX_TTL
    clk.now = MAX_TTL - 0.1
    assert nc.check("k") is not None
    clk.now = MAX_TTL + 0.1
    assert nc.check("k") is None


def test_entry_becomes_permanent_after_retry_budget():
    nc, clk = make()
    for _ in range(MAX_RETRIES):
        entry = nc.record("k", "llvm", "always")
    assert not entry.permanent
    clk.now = 1e9  # far past any TTL
    assert nc.check("k") is None
    entry = nc.record("k", "llvm", "always")  # one failure past the budget
    assert entry.permanent
    clk.now = 2e9
    assert nc.check("k") is not None  # permanent entries never expire


def test_forget_drops_entry():
    nc, _ = make()
    nc.record("k", "llvm", "x")
    nc.forget("k")
    assert nc.check("k") is None
    assert len(nc) == 0


def test_context_is_copied_into_entry():
    nc, _ = make()
    ctx = {"stage": "lift", "addr": 0x1000}
    entry = nc.record("k", "llvm", "x", ctx)
    ctx["addr"] = 0  # caller mutation must not leak in
    assert entry.context["addr"] == 0x1000


def test_capacity_evicts_lru():
    nc, _ = make(capacity=2)
    nc.record("a", "llvm", "x")
    nc.record("b", "llvm", "x")
    nc.record("c", "llvm", "x")
    assert nc.check("a") is None
    assert nc.check("b") is not None
    assert nc.check("c") is not None


def test_specialization_cache_counts_negative_traffic():
    cache = SpecializationCache()
    assert cache.check_negative("k") is None
    cache.put_negative("k", "llvm", "LiftError: nope", {"stage": "lift"})
    assert cache.check_negative("k") is not None
    s = cache.registry.snapshot()
    assert s["cache.negative.misses"] == 1
    assert s["cache.negative.hits"] == 1
    assert s["cache.negative.stores"] == 1
