"""Pipeline counts: the metrics registry.

Counts live in a :class:`MetricsRegistry`: named counters plus the
subsystems' stats records (``registry.record(prefix, cls)``), all read
through one ``snapshot()`` and zeroed by one ``reset()``; it holds the
x86 decoder's memo counters too, since that layer may not import it.

Time is kept by one clock per layer, outside this package: every result
carries its own stage seconds (``TransformResult.lift_seconds`` ...,
``RungAttempt.seconds`` of a rung that did not serve,
``GuardResult.seconds``), and the benchmark
ledger times each layer from outside the code (``run.py --traced``).
"""

from repro.obs import metrics
from repro.obs.metrics import Counter, MetricsRegistry, REGISTRY
from repro.x86 import decoder as _decoder

REGISTRY.hold("x86.decode_memo", _decoder.MEMO_STATS)

__all__ = [
    "Counter",
    "MetricsRegistry",
    "REGISTRY",
    "metrics",
]
