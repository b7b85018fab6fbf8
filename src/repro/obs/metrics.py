"""Typed metrics registry: counters, gauges and fixed-bucket histograms.

Every subsystem used to keep its own ad-hoc stats object (``GuardStats``,
``CacheStats``, tier EWMAs ...) with its own reset semantics.  The registry
unifies them: metrics are created once (get-or-create by name), read and
reset through one authoritative ``snapshot()``/``reset()`` pair, and the
legacy stats attributes become thin views over registry-owned objects.

Design constraints:

* Increments on the hot path must stay cheap — a ``Counter`` bump is one
  attribute addition under the GIL, no lock.
* ``CounterFamily`` subclasses ``dict`` so code and tests that treat the
  old dict-valued stats fields as dicts (indexing, ``.values()``,
  ``dict(...)``) keep working unchanged.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Mapping

__all__ = [
    "Counter",
    "CounterFamily",
    "CounterView",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
]


class Counter:
    """A monotonically increasing integer (resettable to zero)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can go up and down (queue depths, sizes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-boundary histogram; ``observe`` is a bisect plus two adds.

    ``bounds`` are upper bucket edges; an implicit +inf bucket catches the
    overflow.  ``counts[i]`` holds observations with ``value <= bounds[i]``.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: Iterable[float]) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.total += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper edge of the bucket holding it."""
        if self.total == 0:
            return 0.0
        target = q * self.total
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.total}, sum={self.sum:.6g})"


class CounterView:
    """Descriptor exposing a registry :class:`Counter` as a plain int.

    Legacy stats objects had int attributes that callers read and wrote
    (``stats.transforms += 1``).  Routing them through the registry keeps
    one authoritative snapshot/reset; this descriptor keeps the old
    attribute protocol working on top of the registry-owned counter stored
    at ``_<name>`` on the instance.
    """

    def __init__(self, attr: str) -> None:
        self.attr = attr

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return getattr(obj, self.attr).value

    def __set__(self, obj, value) -> None:
        getattr(obj, self.attr).value = value


class CounterFamily(dict):
    """A dict of label -> count registered as one named metric.

    Subclassing ``dict`` keeps the legacy stats API intact: callers index
    it, iterate it and copy it with ``dict(...)`` exactly as they did when
    the stats field was a plain dict.
    """

    def __init__(self, name: str, initial: Mapping | None = None) -> None:
        super().__init__(initial or {})
        self.name = name

    def inc(self, label, amount: int = 1) -> None:
        self[label] = self.get(label, 0) + amount

    def reset(self) -> None:
        for k in self:
            self[k] = 0


class MetricsRegistry:
    """Get-or-create metric container with authoritative snapshot/reset.

    Two stats objects binding the same registry and metric names share the
    underlying counters — that is how per-subsystem stats aggregate when a
    parent (e.g. ``TieredEngine``) hands its registry to per-job children.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}
        self._views: dict[str, Callable[[], object]] = {}

    # -- creation (get-or-create by name; type mismatch is a bug) --------
    def _get(self, name: str, factory: Callable[[], object], cls: type):
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = factory()
                self._metrics[name] = m
            elif not isinstance(m, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(m).__name__}, not {cls.__name__}")
            return m

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), Gauge)

    def histogram(self, name: str, bounds: Iterable[float]) -> Histogram:
        return self._get(name, lambda: Histogram(name, bounds), Histogram)

    def family(self, name: str, initial: Mapping | None = None) -> CounterFamily:
        return self._get(name, lambda: CounterFamily(name, initial),
                         CounterFamily)

    def view(self, name: str, fn: Callable[[], object]) -> None:
        """Register a read-only derived value included in snapshots.

        Views are for state owned elsewhere (tier EWMAs live in the
        governor); ``reset()`` does not touch them.
        """
        with self._lock:
            self._views[name] = fn

    # -- authoritative snapshot / reset ----------------------------------
    def snapshot(self) -> dict:
        """One flat JSON-serialisable mapping of every metric and view."""
        out: dict[str, object] = {}
        with self._lock:
            metrics = list(self._metrics.items())
            views = list(self._views.items())
        for name, m in sorted(metrics):
            if isinstance(m, Counter):
                out[name] = m.value
            elif isinstance(m, Gauge):
                out[name] = m.value
            elif isinstance(m, Histogram):
                out[name] = m.snapshot()
            elif isinstance(m, CounterFamily):
                out[name] = dict(m)
        for name, fn in sorted(views):
            try:
                out[name] = fn()
            except Exception:  # view sources may already be closed
                out[name] = None
        return out

    def reset(self) -> None:
        """Zero every owned metric (views are derived and untouched)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            m.reset()  # type: ignore[attr-defined]


#: Process-global default registry.  Subsystem stats objects default to a
#: private registry (tests rely on per-instance counters); the global one
#: backs :func:`counter` and the CLI snapshot.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)
