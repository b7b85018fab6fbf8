"""Cache storage: a bounded, thread-safe in-memory LRU.

Recently used entries stay hot and eviction is strictly bounded by entry
count (IR modules dominate the footprint, and the entry count maps directly
to the number of distinct specializations kept warm).

The store is thread-safe: a caller may share one cache between threads,
and nothing coalesces their misses (two threads missing on one key both
compile and both ``put``), so every compound operation (put+evict,
check-then-move) holds a lock.
The ``OrderedDict`` operations underneath are *not* individually atomic —
``move_to_end`` during ``popitem`` or iteration during ``put`` corrupts or
raises — which is exactly what tests/cache/test_thread_safety.py hammers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterator


class LRUStore:
    """Ordered-dict LRU with a hard entry capacity.

    All operations hold an internal lock; ``keys`` returns a snapshot list
    so callers can iterate while other threads mutate the store.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("LRU capacity must be >= 1")
        self.capacity = capacity
        self.evictions = 0
        self._data: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: str) -> Any | None:
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return None
            return self._data[key]

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def discard(self, key: str) -> None:
        with self._lock:
            self._data.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._data.keys()))

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

