"""Pipeline counts: the metrics registry.

Counts live in a :class:`MetricsRegistry`: named counters plus the
subsystems' stats records (``registry.record(prefix, cls)``), all read
through one ``snapshot()`` and zeroed by one ``reset()``.

Time is kept by one clock per layer, outside this package: every result
carries its own stage seconds (``TransformResult.lift_seconds`` ...,
``RungAttempt.seconds`` of a rung that did not serve,
``GuardResult.seconds``), and the benchmark
ledger times each layer from outside the code (``run.py --traced``).
"""

from repro.obs import metrics
from repro.obs.metrics import Counter, MetricsRegistry, REGISTRY

__all__ = [
    "Counter",
    "MetricsRegistry",
    "REGISTRY",
    "metrics",
]
