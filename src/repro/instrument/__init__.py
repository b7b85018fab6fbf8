"""Instrumentation as a first-class workload (DESIGN §15).

IR-level probes — call/edge profiling counters, memory-access tracing,
value watchpoints — injected as passes over the lifted module and
re-JITted through the standard pipeline, guarded by the same boundaries
as any specialization: the probe-ops pregate, machine-level translation
validation, and the differential gate under an effects-whitelist.
:func:`strip_instrumentation` is the machine-checkable inverse.  The
counters are read by the caller, who decides from them when a rewrite
pays off.
"""

from repro.instrument.api import (
    InstrumentedFunction, Instrumenter, audit_probe_state,
)
from repro.instrument.buffer import (
    EV_LOAD, EV_STORE, ProbeBuffer, ProbeEvent,
)
from repro.instrument.passes import (
    PROBE_CALL, PROBE_EDGE, PROBE_MEM, PROBE_WATCH,
    InstrumentOptions, ProbePlan, inject_probes, is_instrumented,
    plan_probes, strip_instrumentation,
)

__all__ = [
    "EV_LOAD",
    "EV_STORE",
    "InstrumentOptions",
    "InstrumentedFunction",
    "Instrumenter",
    "PROBE_CALL",
    "PROBE_EDGE",
    "PROBE_MEM",
    "PROBE_WATCH",
    "ProbeBuffer",
    "ProbeEvent",
    "ProbePlan",
    "audit_probe_state",
    "inject_probes",
    "is_instrumented",
    "plan_probes",
    "strip_instrumentation",
]
