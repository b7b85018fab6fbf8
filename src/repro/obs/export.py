"""Exporters: Chrome trace-event JSON and flat metrics snapshots.

``trace_to_chrome`` emits the Trace Event Format understood by
``about://tracing`` / Perfetto: one complete event (``ph: "X"``) per span,
timestamps in microseconds relative to the tracer's enable epoch.
"""

from __future__ import annotations

import json
import os

from repro.obs.metrics import MetricsRegistry, REGISTRY
from repro.obs.trace import Tracer, TRACER

__all__ = ["trace_to_chrome", "write_chrome_trace", "metrics_to_json",
           "write_metrics"]


def trace_to_chrome(tracer: Tracer | None = None) -> dict:
    """Render the tracer's finished spans as a Chrome trace-event dict."""
    tr = tracer if tracer is not None else TRACER
    pid = os.getpid()
    epoch = tr.epoch
    events = []
    for s in tr.spans:
        if s.t1 < 0:
            continue  # never finished; an open span has no duration
        ev = {
            "name": s.name,
            "ph": "X",
            "ts": (s.t0 - epoch) * 1e6,
            "dur": (s.t1 - s.t0) * 1e6,
            "pid": pid,
            "tid": s.tid,
        }
        args = dict(s.attrs) if s.attrs else {}
        args["span_id"] = s.span_id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        ev["args"] = args
        events.append(ev)
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, tracer: Tracer | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(trace_to_chrome(tracer), fh, indent=1)


def metrics_to_json(registry: MetricsRegistry | None = None) -> dict:
    """Flat JSON-serialisable snapshot of a registry (default: global)."""
    reg = registry if registry is not None else REGISTRY
    return reg.snapshot()


def write_metrics(path: str, registry: MetricsRegistry | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(metrics_to_json(registry), fh, indent=2, sort_keys=True,
                  default=str)
