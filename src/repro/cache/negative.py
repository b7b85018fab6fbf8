"""Failure quarantine: negative entries for transforms that did not work.

A specialization that fails (unsupported construct, budget exhaustion,
verification divergence) costs the *whole* pipeline before the ladder can
fall back.  Re-running that pipeline on every request for the same function
turns one pathological input into a standing CPU tax.  The quarantine
remembers failures the same way the positive stores remember successes —
content-addressed keys — so a repeat request is served its fallback
instantly.

Entries carry a TTL and a retry budget:

* while an entry is *fresh* (``now < expiry``) the failed rung is skipped;
* when the TTL lapses the rung is retried — the input may have been
  patched, or a transient budget squeeze may be gone;
* every repeated failure doubles the TTL (capped at :data:`MAX_TTL`) up
  to :data:`MAX_RETRIES` re-attempts, after which the entry becomes
  permanent: the quarantine stops burning pipeline time on an input that
  provably never transforms.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cache.store import LRUStore

#: the longest a doubled quarantine window grows (seconds)
MAX_TTL = 3600.0
#: failures after which an entry never expires
MAX_RETRIES = 8


@dataclass
class NegativeEntry:
    """One quarantined failure (a rung that failed for a given key)."""

    key: str
    rung: str
    reason: str
    #: structured ReproError.context of the recorded failure
    context: dict[str, Any] = field(default_factory=dict)
    failures: int = 1
    ttl: float = 30.0
    expiry: float = 0.0
    permanent: bool = False
    #: times this entry short-circuited the pipeline
    served: int = 0

    def fresh(self, now: float) -> bool:
        return self.permanent or now < self.expiry


class NegativeCache:
    """LRU-bounded quarantine with TTL back-off and a retry budget.

    ``ttl`` is the initial quarantine window; each repeated failure doubles
    it up to :data:`MAX_TTL`.  After :data:`MAX_RETRIES` failures the entry
    stops expiring.  ``clock`` is injectable for deterministic tests.

    Thread-safe: :meth:`check` mutates served counters and :meth:`record`
    is a read-modify-write of the TTL back-off state, so both hold one
    lock — concurrent failures of the same key from callers on several
    threads must not lose failure counts (a lost count under-backs-off
    and re-runs a provably failing pipeline).
    """

    def __init__(self, *, capacity: int = 1024, ttl: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.ttl = ttl
        self._clock = clock
        self._store = LRUStore(capacity)
        self._lock = threading.RLock()
        self.expirations = 0

    def check(self, key: str) -> NegativeEntry | None:
        """A fresh quarantine entry for ``key``, or None (miss/expired).

        An expired entry stays in the store (its failure count drives the
        back-off when the retry fails again) but is not served.
        """
        with self._lock:
            entry: NegativeEntry | None = self._store.get(key)
            if entry is None:
                return None
            if not entry.fresh(self._clock()):
                self.expirations += 1
                return None
            entry.served += 1
            return entry

    def record(self, key: str, rung: str, reason: str,
               context: dict[str, Any] | None = None) -> NegativeEntry:
        """Quarantine (or re-quarantine, with back-off) a failure."""
        with self._lock:
            now = self._clock()
            entry: NegativeEntry | None = self._store.get(key)
            if entry is None:
                entry = NegativeEntry(key=key, rung=rung, reason=reason,
                                      context=dict(context or {}),
                                      ttl=self.ttl)
            else:
                entry.failures += 1
                entry.rung = rung
                entry.reason = reason
                entry.context = dict(context or {})
                entry.ttl = min(entry.ttl * 2, MAX_TTL)
            entry.expiry = now + entry.ttl
            if entry.failures > MAX_RETRIES:
                entry.permanent = True
            self._store.put(key, entry)
            return entry

    def forget(self, key: str) -> None:
        """Drop a quarantine entry (e.g. after a successful retry)."""
        self._store.discard(key)

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)
