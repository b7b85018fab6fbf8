"""Unit tests for the cache's in-memory LRU store."""

from repro.cache import LRUStore


def test_lru_basic_roundtrip():
    s = LRUStore(4)
    s.put("a", 1)
    s.put("b", 2)
    assert s.get("a") == 1
    assert s.get("b") == 2
    assert s.get("missing") is None
    assert len(s) == 2
    assert "a" in s and "c" not in s


def test_lru_eviction_bounds_capacity():
    s = LRUStore(3)
    for i in range(10):
        s.put(f"k{i}", i)
        assert len(s) <= 3
    assert s.evictions == 7
    # only the newest three survive
    assert s.get("k9") == 9 and s.get("k8") == 8 and s.get("k7") == 7
    assert s.get("k0") is None


def test_lru_get_refreshes_recency():
    s = LRUStore(2)
    s.put("old", 1)
    s.put("new", 2)
    assert s.get("old") == 1  # touch: "old" becomes most recent
    s.put("newer", 3)         # evicts "new", not "old"
    assert s.get("old") == 1
    assert s.get("new") is None


def test_lru_overwrite_does_not_grow():
    s = LRUStore(2)
    s.put("a", 1)
    s.put("a", 2)
    assert len(s) == 1
    assert s.get("a") == 2
    assert s.evictions == 0


def test_lru_discard_and_clear():
    s = LRUStore(4)
    s.put("a", 1)
    s.put("b", 2)
    s.discard("a")
    s.discard("not-there")  # no-op
    assert s.get("a") is None and s.get("b") == 2
    s.clear()
    assert len(s) == 0

