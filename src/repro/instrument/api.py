"""The instrumenter: lift -> O3 -> inject -> JIT -> prove -> gate -> install.

Instrumentation is a *workload*, not a debug mode: an instrumented
function is one :class:`~repro.jit.plan.Plan` — the ``llvm`` rung with the
probe-injection stage — run by the same :class:`~repro.jit.plan.Pipeline`
through the same trust boundaries as any specialization (DESIGN §16):
probes go in *after* O3, the probe-ops pregate proves them effect-only,
``machine_verify`` proves the emitted bytes equivalent to the instrumented
IR (probe stores included), and the differential gate compares
instrumented against original execution under the effects-whitelist —
identical return values, identical program memory, only the probe buffer
may differ.

Only then is the install handed back.  A rejected step raises exactly
like a rejected specialization would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.image import Image
from repro.errors import VerificationError
from repro.guard.verify import GateOptions, GateReport
from repro.instrument.buffer import ProbeBuffer
from repro.instrument.passes import InstrumentOptions, ProbePlan
from repro.ir.module import Function, Module
from repro.ir.passes import O3Options
from repro.jit.plan import Pipeline, Plan
from repro.lift import FunctionSignature, LiftOptions
from repro.obs import metrics as _metrics

@dataclass
class InstrumentStats:
    """Process-wide instrumentation counts (``instrument.*``), held by the
    global registry from the first ``Instrumenter`` on."""

    installs: int = 0
    #: probes installed, by kind
    probes: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("call", "edge", "mem", "watch"), 0))
    #: installs refused, by the stage that refused them
    rejected: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("static-verify", "machine-verify"), 0))


@dataclass
class InstrumentedFunction:
    """One installed instrumented function plus its probe state."""

    name: str
    addr: int
    #: original entry the instrumented copy was lifted from
    source: int
    signature: FunctionSignature
    options: InstrumentOptions
    function: Function
    module: Module
    plan: ProbePlan
    buffer: ProbeBuffer
    gate_report: GateReport | None = None
    machine_verdict: str | None = None
    #: per-stage wall time: lift/opt/inject/pregate/codegen/verify/gate
    seconds: dict = field(default_factory=dict)


class Instrumenter:
    """Builds gate-verified instrumented copies of image functions."""

    def __init__(self, image: Image, *,
                 gate_options: GateOptions | None = None,
                 machine_verify: bool = True) -> None:
        self.image = image
        self.gate_options = gate_options or GateOptions()
        self.machine_verify = machine_verify
        self.stats = _metrics.REGISTRY.record("instrument", InstrumentStats)

    def instrument(self, func: str | int, signature: FunctionSignature,
                   *, options: InstrumentOptions | None = None,
                   probes: tuple = (), name: str | None = None,
                   ) -> InstrumentedFunction:
        """Install an instrumented copy of ``func``; returns its handle.

        ``probes`` are differential-gate argument vectors (one value per
        signature parameter), exactly as for specialization gates.
        """
        options = options or InstrumentOptions()
        entry = self.image.symbol(func) if isinstance(func, str) else func
        out_name = name or (f"{func}.instr" if isinstance(func, str)
                            else f"fn_{entry:#x}.instr")
        plan = Plan("llvm", LiftOptions(), O3Options.lightweight(),
                    inject=options, machine_verify=self.machine_verify,
                    gate="always", gate_options=self.gate_options)
        pipeline = Pipeline(self.image)
        try:
            res = pipeline.run(plan, entry, signature, None, out_name,
                               probes=probes)
        except VerificationError as exc:
            stage = exc.context.get("stage")
            if stage in self.stats.rejected:
                self.stats.rejected[stage] += 1
            raise
        probe_plan, buffer = res.probes
        seconds = {"lift": res.lift_seconds, "opt": res.optimize_seconds,
                   "inject": res.inject_seconds,
                   "pregate": res.pregate_seconds,
                   "codegen": res.codegen_seconds,
                   "machine_verify": res.machine_verify_seconds,
                   "gate": res.gate_seconds}

        stats = self.stats
        stats.installs += 1
        if options.call_counter:
            stats.probes["call"] += 1
        if options.edge_counters:
            stats.probes["edge"] += len(probe_plan.block_names)
        stats.probes["mem"] += len(probe_plan.mem_sites)
        stats.probes["watch"] += len(probe_plan.watch_sites)
        return InstrumentedFunction(
            name=out_name, addr=res.addr, source=entry, signature=signature,
            options=options, function=res.function, module=res.module,
            plan=probe_plan, buffer=buffer, gate_report=res.gate,
            machine_verdict=res.machine_verdict, seconds=seconds)


def audit_probe_state(result: InstrumentedFunction, *,
                      expected_calls: int | None = None) -> list[str]:
    """Internal-consistency violations of a buffer's recorded state.

    The differential corpus runs this after driving the instrumented
    engine: edge counts must tie out against call counts (entry block
    executes once per call; return blocks sum to the call count), watch
    hits must tie out against returns, and every memory-trace address
    must fall inside a mapped region of the image.
    """
    buf, plan = result.buffer, result.plan
    violations: list[str] = []
    calls = buf.call_count()
    if expected_calls is not None and plan.options.call_counter \
            and calls != expected_calls:
        violations.append(
            f"call counter {calls} != expected {expected_calls}")
    if plan.options.edge_counters and plan.block_names:
        counts = buf.block_counts()
        if plan.options.call_counter:
            entry = plan.block_names[0]
            if counts[entry] != calls:
                violations.append(
                    f"entry block {entry!r} count {counts[entry]} != "
                    f"call count {calls}")
            rets = sum(counts[b] for b in plan.ret_blocks)
            if plan.ret_blocks and rets != calls:
                violations.append(
                    f"return-block counts sum {rets} != call count {calls}")
    if plan.options.watch_returns and plan.options.call_counter \
            and plan.watch_sites \
            and len(plan.watch_sites) == len(plan.ret_blocks):
        hits = sum(buf.watch_hits())
        if hits != calls:
            violations.append(
                f"watch hits {hits} != call count {calls}")
    if plan.options.trace_memory:
        regions = result.buffer.image.memory.regions()
        for ev in buf.events():
            if not any(s <= ev.payload < s + n for s, n in regions):
                violations.append(
                    f"memory-trace event #{ev.seq} ({ev.kind} site "
                    f"{ev.site}) address {ev.payload:#x} outside every "
                    "mapped region")
                break
    return violations
