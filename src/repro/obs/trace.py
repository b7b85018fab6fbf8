"""Hierarchical span tracer.

A ``Span`` is one timed region of the pipeline (a rewrite, a lifted block,
an O3 pass).  Spans nest: the current span is tracked in a
``contextvars.ContextVar`` so children started anywhere in the same
context pick up their parent automatically.

Cost contract (DESIGN §10): with tracing disabled every instrumentation
site is a single attribute check (``if _TR.enabled:``) — no allocation,
no lock, no clock read.  The checks below are ordered so the disabled
path returns before touching anything else.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["Span", "Tracer", "TRACER"]

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None)


class Span:
    """One timed region.  ``t1 < 0`` means still open."""

    __slots__ = ("name", "span_id", "parent_id", "t0", "t1", "tid",
                 "attrs", "_token")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 t0: float, tid: int, attrs: dict | None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = t0
        self.t1 = -1.0
        self.tid = tid
        self.attrs = attrs
        self._token = None

    @property
    def duration(self) -> float:
        return (self.t1 - self.t0) if self.t1 >= 0 else 0.0

    def __repr__(self) -> str:
        state = f"{self.duration * 1e6:.1f}us" if self.t1 >= 0 else "open"
        return f"Span({self.name}, {state})"


class Tracer:
    """Collects spans while ``enabled`` is True.

    ``enabled`` is a plain attribute: instrumentation sites read it once
    and skip everything when False.  Finished spans append to a list under
    a lock (a caller may trace from several threads at once).
    """

    def __init__(self, clock=time.perf_counter, max_spans: int = 1_000_000):
        self.enabled = False
        self.clock = clock
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._next_id = 1
        self.spans: list[Span] = []
        self.epoch = 0.0  # clock value at last enable()

    # -- lifecycle -------------------------------------------------------
    def enable(self) -> None:
        self.epoch = self.clock()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self.spans = []
            self._next_id = 1

    # -- span API --------------------------------------------------------
    def start(self, name: str, attrs: dict | None = None) -> Span:
        """Open a span as a child of the context's current span."""
        parent = _CURRENT.get()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(name, sid, parent.span_id if parent is not None else None,
                    self.clock(), threading.get_ident(), attrs)
        span._token = _CURRENT.set(span)
        return span

    def finish(self, span: Span) -> None:
        span.t1 = self.clock()
        tok = span._token
        span._token = None
        if tok is not None:
            try:
                _CURRENT.reset(tok)
            except ValueError:
                # Token created in another context (cross-thread finish);
                # fall back to clearing the slot.
                _CURRENT.set(None)
        with self._lock:
            if len(self.spans) < self.max_spans:
                self.spans.append(span)

    @contextmanager
    def span(self, name: str, attrs: dict | None = None) -> Iterator[Span | None]:
        """``with TRACER.span("lift"):`` — no-op when disabled."""
        if not self.enabled:
            yield None
            return
        s = self.start(name, attrs)
        try:
            yield s
        finally:
            self.finish(s)

    def current(self) -> Span | None:
        return _CURRENT.get()


#: Process-global tracer.  All pipeline instrumentation binds this at
#: import time so the disabled check is one global load + attribute read.
TRACER = Tracer()
