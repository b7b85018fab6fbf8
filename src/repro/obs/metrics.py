"""Typed metrics registry: counters and stats records.

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
from typing import Callable, TypeVar

__all__ = [
    "Counter",
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


R = TypeVar("R")


class MetricsRegistry:
    """Get-or-create metric container with authoritative snapshot/reset.

    Two owners binding the same registry and name share the metric or
    record — that is how every instrumenter adds up in the process-wide
    :data:`REGISTRY`; each cache and each guard keeps a private one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

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

    def record(self, prefix: str, cls: type[R]) -> R:
        """The ``cls`` stats record held under ``prefix``, made with its
        defaults on first use: every owner binding this registry and
        prefix shares it (two guards on one registry add up in one)."""
        return self._get(prefix, cls, cls)

    # -- authoritative snapshot / reset ----------------------------------
    def snapshot(self) -> dict:
        """One flat JSON-serialisable mapping of every metric."""
        out: dict[str, object] = {}
        with self._lock:
            metrics = list(self._metrics.items())
        for name, m in sorted(metrics):
            if isinstance(m, Counter):
                out[name] = m.value
            else:
                _flatten(name, m, out)
        return out

    def reset(self) -> None:
        """Zero every counter and record in place."""
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


#: Process-global registry: it backs :func:`counter`, the -O3 scheduler's
#: and the instrumenter's records and the CLI snapshot.  A cache's and a
#: guard's stats live in a registry of their own.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)
