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
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable

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
