"""Typed metrics registry: counters, gauges, histograms and stats records.

A subsystem's stats (``CacheStats``, ``GuardStats``, the -O3
scheduler's and the instrumenter's) are plain ``@dataclass`` records of
ints, dicts and nested records, each counter declared once as a field.  The
registry holds them: :meth:`MetricsRegistry.record` is get-or-create by
prefix, so two owners binding one registry share one record, and
``snapshot()``/``reset()`` flatten and zero every record's fields under its
prefix (a nested record adds its field name: ``cache.negative.hits``).

Design constraints:

* Increments on the hot path must stay cheap — a record bump is one
  attribute (or dict item) addition under the GIL, no lock.
* A field named with a trailing underscore to avoid a Python keyword is
  reported without it (``pass_`` -> ``guard.gate.pass``).
"""

from __future__ import annotations

import threading
from dataclasses import fields, is_dataclass
from typing import Callable, Iterable, TypeVar

__all__ = [
    "Counter",
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


R = TypeVar("R")


class MetricsRegistry:
    """Get-or-create metric container with authoritative snapshot/reset.

    Two owners binding the same registry and name share the metric or
    record — that is how per-subsystem stats aggregate when a caller hands
    one registry to several transformers and caches.
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

    def record(self, prefix: str, cls: type[R]) -> R:
        """The ``cls`` stats record held under ``prefix``, made with its
        defaults on first use: every owner binding this registry and
        prefix shares it (two guards on one registry add up in one)."""
        return self._get(prefix, cls, cls)

    def view(self, name: str, fn: Callable[[], object]) -> None:
        """Register a read-only derived value included in snapshots.

        Views are for state owned elsewhere; ``reset()`` does not touch
        them.
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
            else:
                _flatten(name, m, out)
        for name, fn in sorted(views):
            try:
                out[name] = fn()
            except Exception:  # view sources may already be closed
                out[name] = None
        return out

    def reset(self) -> None:
        """Zero every owned metric and record in place (views are derived
        and untouched)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            if is_dataclass(m):
                _zero(m)
            else:
                m.reset()  # type: ignore[attr-defined]


def _flatten(prefix: str, record: object, out: dict[str, object]) -> None:
    for f in fields(record):
        name = f"{prefix}.{f.name.rstrip('_')}"
        value = getattr(record, f.name)
        if is_dataclass(value):
            _flatten(name, value, out)
        else:
            out[name] = dict(value) if isinstance(value, dict) else value


def _zero(record: object) -> None:
    """Zero a record's counters; a dict keeps its keys, as its labels."""
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            _zero(value)
        elif isinstance(value, dict):
            for label in value:
                value[label] = 0
        else:
            setattr(record, f.name, 0)


#: Process-global default registry.  Subsystem stats objects default to a
#: private registry (tests rely on per-instance counters); the global one
#: backs :func:`counter` and the CLI snapshot.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)
