"""Pipeline observability: span tracing, metrics registry, trace export.

Quick start::

    from repro.obs import TRACER, write_chrome_trace

    TRACER.enable()
    ...  # run the pipeline
    TRACER.disable()
    write_chrome_trace("trace.json")          # about://tracing-loadable
    python -m repro.obs.report trace.json     # per-stage breakdown

Counts live in a :class:`MetricsRegistry`: named counters plus the
subsystems' stats records (``registry.record(prefix, cls)``), all read
through one ``snapshot()`` and zeroed by one ``reset()``.
"""

from repro.obs import metrics
from repro.obs.export import (metrics_to_json, trace_to_chrome,
                              write_chrome_trace, write_metrics)
from repro.obs.metrics import Counter, MetricsRegistry, REGISTRY
from repro.obs.trace import Span, Tracer, TRACER

__all__ = [
    "Counter",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "TRACER",
    "Tracer",
    "metrics",
    "metrics_to_json",
    "trace_to_chrome",
    "write_chrome_trace",
    "write_metrics",
]
