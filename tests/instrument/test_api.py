"""Instrumenter end-to-end: machine-verified, gate-admitted installs.

Instrumentation is a workload: an instrumented install crosses every
trust boundary a specialization does — probe-ops pregate, machine-level
translation validation of the emitted bytes (probe stores included), and
the differential gate under the probe-buffer effects-whitelist.  These
tests drive the whole pipeline on real machine code and check both the
happy path and each rejection boundary.
"""

from __future__ import annotations

from unittest import mock

import pytest

import repro.jit.plan as plan_mod
from repro import FunctionSignature, Simulator, compile_c
from repro.analysis.machine.verifier import REFUTED, VerifyResult
from repro.errors import VerificationError
from repro.guard.verify import DifferentialGate, GateOptions
from repro.instrument import (
    InstrumentOptions,
    Instrumenter,
    audit_probe_state,
    is_instrumented,
    strip_instrumentation,
)
from repro.instrument.api import InstrumentStats
from repro.obs import metrics as _metrics

LOOP_SRC = ("long f(long a, long b) "
            "{ long s = 0; for (long i = 0; i < a; i++) s += i * b; "
            "return s; }")
SIG = FunctionSignature(("i", "i"), "i")
PROBES = ((6, 3), (1, 9), (0, 5))


def expected(a, b):
    return sum(i * b for i in range(a))


@pytest.fixture()
def prog():
    return compile_c(LOOP_SRC)


def install(prog, **kw):
    kw.setdefault("gate_options", GateOptions(samples=1))
    inst = Instrumenter(prog.image, **kw)
    return inst.instrument("f", SIG, probes=PROBES,
                           options=InstrumentOptions(watch_returns=True))


def test_instrumented_install_end_to_end(prog):
    res = install(prog)
    assert res.machine_verdict in ("proved", "inconclusive")
    assert res.gate_report is not None and res.gate_report.passed
    assert not res.gate_report.vacuous
    assert res.buffer.size > 0
    assert set(res.seconds) >= {"lift", "opt", "inject", "pregate", "codegen",
                                "gate"}

    res.buffer.reset()      # the gate ran probes through shadow images only
    sim = Simulator(prog.image)
    for a, b in ((6, 3), (10, 7)):
        assert sim.call(res.addr, (a, b)).rax == expected(a, b)
    assert res.buffer.call_count() == 2
    # loop body heat: 6 + 10 iterations dominate the 2 calls
    assert res.buffer.hotness() >= 16
    assert res.buffer.watch_values() == [expected(10, 7)]
    assert audit_probe_state(res, expected_calls=2) == []


def test_whitelist_is_load_bearing(prog):
    """Without the probe-buffer ignore region the very same install must
    fail a differential gate: probe writes are real memory effects."""
    res = install(prog)
    entry = prog.image.symbol("f")
    bare = DifferentialGate(prog.image, GateOptions(samples=0))
    report = bare.check(entry, res.addr, SIG, None, PROBES)
    assert not report.passed
    assert "memory" in (report.reason or "")
    # and with the whitelist, the same comparison passes
    allow = DifferentialGate(prog.image, GateOptions(
        samples=0, ignore_regions=(res.buffer.extent(),)))
    assert allow.gate(entry, res.addr, SIG, None, PROBES).passed


def test_audit_detects_counter_tampering(prog):
    res = install(prog)
    res.buffer.reset()
    sim = Simulator(prog.image)
    sim.call(res.addr, (4, 2))
    assert audit_probe_state(res, expected_calls=1) == []
    # cosmic-ray the entry-block counter: the tie-out must notice
    prog.image.memory.write(res.buffer.block_counter_addr(0), b"\x2a" + b"\x00" * 7)
    violations = audit_probe_state(res, expected_calls=1)
    assert violations and any("entry block" in v for v in violations)


def test_metrics_and_strip_surface(prog):
    stats = _metrics.REGISTRY.record("instrument", InstrumentStats)
    before = stats.installs
    res = install(prog)
    assert Instrumenter(prog.image).stats is stats, "one process-wide record"
    assert stats.installs == before + 1
    assert stats.probes["edge"] > 0 and stats.probes["call"] > 0
    # the handle's IR strips back to an uninstrumented body
    assert is_instrumented(res.function)
    assert strip_instrumentation(res.function) > 0
    assert not is_instrumented(res.function)


def test_a_refused_install_is_counted_by_stage(prog):
    inst = Instrumenter(prog.image, gate_options=GateOptions(samples=1))
    before = dict(inst.stats.rejected)
    refute = mock.patch.object(plan_mod, "verify_emitted",
                               lambda jit, name: VerifyResult(verdict=REFUTED))
    with refute, pytest.raises(VerificationError) as exc:
        inst.instrument("f", SIG, probes=PROBES)
    assert exc.value.context["stage"] == "machine-verify"
    assert inst.stats.rejected == {
        "static-verify": before["static-verify"],
        "machine-verify": before["machine-verify"] + 1}


def test_distinct_installs_get_disjoint_buffers(prog):
    r1 = install(prog)
    r2 = Instrumenter(prog.image, gate_options=GateOptions(samples=1)) \
        .instrument("f", SIG, probes=PROBES, name="f.instr2")
    lo1, hi1 = r1.buffer.extent()
    lo2, hi2 = r2.buffer.extent()
    assert hi1 <= lo2 or hi2 <= lo1, "probe buffers must never overlap"
    assert r1.addr != r2.addr
