"""In-flight request coalescing ("single-flight") for compile pipelines.

A cache answers *completed* compiles; it does nothing for the thundering
herd — N concurrent callers that all miss on the same key start N identical
pipeline runs, and N-1 of them are pure waste (worse: they race to install
N copies of the same code).  :class:`FlightTable` closes that window the
way Go's ``singleflight`` does for HTTP caches: the first caller of a key
becomes the *leader* and runs the compile; every concurrent caller of the
same key becomes a *follower* and blocks until the leader finishes, then
observes the leader's outcome.

The table is keyed by opaque tuples (the engine uses the machine-stage
cache key, the tiered engine adds tier and epoch), holds its lock only for
bookkeeping — never across a compile — and propagates the leader's
exception to all followers, so a failing compile fails every coalesced
request identically (the guard ladder then quarantines the key once).

:class:`FileFlightTable` promotes the same invariant from threads to
*processes* for the compile farm: leadership is a held POSIX advisory lock
on a per-key file under the shared cache directory, and the "result" a
follower observes is whatever the leader published to the shared disk
store (followers poll a ``probe`` callable rather than parking on an
in-process event).  ``flock`` ownership dies with its process, which gives
the failure semantics for free: a SIGKILLed leader drops the lock, the
next polling follower acquires it, sees the result unpublished, and takes
over as the new leader — no cross-process refcounts, no stale-owner
recovery protocol.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Hashable

from repro.cache.store import advisory_lock
from repro.obs.metrics import Counter


class _Flight:
    """One in-flight compile: an event the followers park on."""

    __slots__ = ("done", "result", "error", "followers")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.followers = 0


class FlightTable:
    """Coalesces concurrent calls with the same key into one execution.

    ``run(key, thunk)`` returns ``(result, leader)`` — ``leader`` tells the
    caller whether its own thunk ran (a follower's never does).  A follower
    re-raises the leader's exception.  Counters: ``led`` completed leader
    runs, ``coalesced`` follower joins, ``in_flight`` current table size.
    """

    def __init__(self, *, led: Counter | None = None,
                 coalesced: Counter | None = None,
                 timeouts: Counter | None = None) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Hashable, _Flight] = {}
        # counters may be injected by a metrics registry owner (the
        # specialization cache), unifying flight accounting with the one
        # authoritative snapshot/reset; standalone tables own private ones
        self._led = led if led is not None else Counter("flight.led")
        self._coalesced = coalesced if coalesced is not None \
            else Counter("flight.coalesced")
        self._timeouts = timeouts if timeouts is not None \
            else Counter("flight.timeouts")

    @property
    def led(self) -> int:
        return self._led.value

    @property
    def coalesced(self) -> int:
        return self._coalesced.value

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._flights)

    def run(self, key: Hashable, thunk: Callable[[], Any],
            timeout: float | None = None) -> tuple[Any, bool]:
        """Execute ``thunk`` once per concurrent ``key``; join otherwise.

        ``timeout`` bounds a *follower's* wait (the leader is never
        interrupted); on timeout the follower falls back to running the
        thunk itself rather than hanging a caller on a stuck leader.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
            else:
                leader = False
                flight.followers += 1
                self._coalesced.value += 1
        if leader:
            try:
                flight.result = thunk()
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                    self._led.value += 1
                flight.done.set()
            return flight.result, True
        if not flight.done.wait(timeout):
            # stuck leader: don't hang the caller, compile independently
            self._timeouts.value += 1
            return thunk(), True
        if flight.error is not None:
            raise flight.error
        return flight.result, False

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"led": self._led.value, "coalesced": self._coalesced.value,
                    "timeouts": self._timeouts.value,
                    "in_flight": len(self._flights)}


class FileFlightTable:
    """Cross-process single-flight over a shared directory.

    ``run(key, thunk, probe)`` guarantees that of all *processes*
    concurrently calling with the same key, one runs ``thunk`` (the
    leader) while the rest poll ``probe`` — a cheap shared-state check
    (e.g. a :class:`~repro.cache.store.DiskStore` get) that returns the
    published result or None.  The thunk must publish its result where the
    probe can see it *before* returning; the table itself moves no data
    between processes, only the right to compile.

    Leadership is a non-blocking ``flock`` on ``<root>/<key>.lock``.  Lock
    files are never unlinked: removal would hand a later acquirer a fresh
    inode while the current leader still holds the old one, and two
    "leaders" would run concurrently.  A directory of empty ``.lock``
    files is the (tiny) price of a race-free protocol; ``sweep()`` exists
    for offline cleanup.

    Failure semantics (the farm's worker-lifecycle contract):

    * leader killed mid-compile -> its ``flock`` evaporates; the first
      follower whose poll acquires the lock re-probes and, still seeing no
      result, becomes the new leader (counted in ``takeovers``);
    * follower exceeds ``timeout`` -> it stops waiting and runs the thunk
      itself (counted in ``timeouts``), so one wedged-but-alive leader
      degrades to duplicated work, never to a stalled caller.
    """

    def __init__(self, root: str, *, poll_interval: float = 0.005,
                 led: Counter | None = None,
                 coalesced: Counter | None = None,
                 takeovers: Counter | None = None,
                 timeouts: Counter | None = None) -> None:
        self.root = root
        self.poll_interval = poll_interval
        os.makedirs(root, exist_ok=True)
        self._led = led if led is not None else Counter("file_flight.led")
        self._coalesced = coalesced if coalesced is not None \
            else Counter("file_flight.coalesced")
        self._takeovers = takeovers if takeovers is not None \
            else Counter("file_flight.takeovers")
        self._timeouts = timeouts if timeouts is not None \
            else Counter("file_flight.timeouts")

    @property
    def led(self) -> int:
        return self._led.value

    @property
    def coalesced(self) -> int:
        return self._coalesced.value

    @property
    def takeovers(self) -> int:
        return self._takeovers.value

    @property
    def timeouts(self) -> int:
        return self._timeouts.value

    def _lock_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.lock")

    def run(self, key: str, thunk: Callable[[], Any],
            probe: Callable[[], Any | None],
            timeout: float | None = None) -> tuple[Any, bool]:
        """Execute ``thunk`` in exactly one process per concurrent ``key``.

        Returns ``(result, leader)``.  A follower's result comes from
        ``probe``; the leader's from its own thunk.  The fast path — the
        result is already published — probes once and returns without
        touching the lock at all.
        """
        hit = probe()
        if hit is not None:
            self._coalesced.value += 1
            return hit, False
        deadline = None if timeout is None else time.monotonic() + timeout
        path = self._lock_path(key)
        waited = False
        while True:
            with advisory_lock(path, blocking=False) as held:
                if held:
                    # the lock serializes leaders; re-probe inside it — a
                    # prior leader may have published between our probe
                    # and our acquire (or died after publishing)
                    hit = probe()
                    if hit is not None:
                        self._coalesced.value += 1
                        return hit, False
                    if waited:
                        self._takeovers.value += 1
                    result = thunk()
                    self._led.value += 1
                    return result, True
            waited = True
            if deadline is not None and time.monotonic() >= deadline:
                # wedged-but-alive leader: duplicate the work rather than
                # hang the caller (mirrors FlightTable's follower timeout)
                self._timeouts.value += 1
                return thunk(), True
            time.sleep(self.poll_interval)
            hit = probe()
            if hit is not None:
                self._coalesced.value += 1
                return hit, False

    def sweep(self) -> int:
        """Remove all lock files (offline maintenance only).

        Never call while any process may be inside :meth:`run` on this
        directory — see the class docstring for why unlinking live lock
        files breaks mutual exclusion.
        """
        removed = 0
        for name in os.listdir(self.root):
            if name.endswith(".lock"):
                try:
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def snapshot(self) -> dict[str, int]:
        return {"led": self._led.value, "coalesced": self._coalesced.value,
                "takeovers": self._takeovers.value,
                "timeouts": self._timeouts.value}
