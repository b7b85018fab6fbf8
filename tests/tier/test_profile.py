"""Edge-profile governor source: deterministic fake-clock/fake-buffer tests.

The :class:`EdgeProfile` source replaces raw call counting with basic-block
heat read from an instrumented T1's probe buffer.  The contract under test:

* a loopy kernel promotes on *iterations*, never later than call counting
  would promote it (the profile only accelerates, it cannot starve);
* hysteresis still prevents flapping with a profile attached.
"""

from __future__ import annotations

from repro import FunctionSignature, Simulator, compile_c
from repro.instrument import InstrumentOptions
from repro.tier import (
    T0, T1, T2, EdgeProfile, TieredEngine, TierGovernor, TierPolicy,
)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class FakeBuffer:
    """Duck-typed probe buffer: ``heat`` = hottest block counter."""

    def __init__(self) -> None:
        self.heat = 0
        self.addr = 0x0200_0000

    def hotness(self) -> int:
        return self.heat


def governor(profile=None, **policy_kw):
    policy_kw.setdefault("promote_calls", (8, 64))
    return TierGovernor(policy=TierPolicy(**policy_kw), clock=FakeClock(),
                        profile=profile)


# -- promotion: edge heat vs call counting -----------------------------------


def test_edge_heat_promotes_loopy_kernel_early():
    """A skewed-branch kernel (100 iterations/call) reaches every tier's
    threshold in strictly fewer calls than the call-count baseline."""
    buf = FakeBuffer()
    edges = governor(EdgeProfile(buf))
    calls_only = governor()

    ITERS = 100  # loop-body heat per call
    t1_edge = t1_calls = None
    for call in range(1, 200):
        buf.heat = call * ITERS
        if t1_edge is None and edges.next_target(call, T0) is not None:
            t1_edge = call
        if t1_calls is None and calls_only.next_target(call, T0) is not None:
            t1_calls = call
    assert t1_edge == 1          # 100 heat >= threshold 8 on the first call
    assert t1_calls == 8
    assert t1_edge <= t1_calls   # the acceptance bound: never later

    buf.heat = ITERS
    assert edges.next_target(1, T1) == T2, \
        "hot-past-T2-threshold heat must skip the ladder"


def test_frozen_profile_degrades_to_call_counting():
    """A dead buffer (stale epoch, never executed) must behave exactly
    like the call-count baseline — the profile can never starve."""
    edges = governor(EdgeProfile(FakeBuffer()))   # heat stays 0
    calls_only = governor()
    for call in range(0, 100):
        assert edges.next_target(call, T0) == calls_only.next_target(call, T0)
        assert edges.next_review(call, T0) >= call + 1


def test_next_review_tightens_under_profile_but_stays_bounded():
    buf = FakeBuffer()
    edges = governor(EdgeProfile(buf))
    calls_only = governor()
    buf.heat = 6              # 2 short of the T1 threshold
    review = edges.next_review(4, T0)
    assert review == 4 + 2    # re-check as soon as the gap could close
    assert review <= calls_only.next_review(4, T0)
    buf.heat = 0
    # no profile signal: never re-check later than the call-count baseline
    assert edges.next_review(4, T0) <= calls_only.next_review(4, T0)


def test_rebase_rebases_profile_and_snapshot_names_source():
    buf = FakeBuffer()
    buf.heat = 5000
    gov = governor(EdgeProfile(buf))
    assert gov.snapshot()["profile"] == f"edges@{buf.addr:#x}"
    gov.rebase(calls=37)
    assert gov.profile.hotness() == 0, "rebase must zero accumulated heat"
    buf.heat = 5008
    assert gov.next_target(38, T0) == T1   # fresh heat counts from the base
    assert governor().snapshot()["profile"] == "calls"


# -- hysteresis: no flapping with a profile attached -------------------------


def test_demotion_hysteresis_no_flap_with_hot_profile():
    """Even with scorching edge heat, a demoted tier must not re-promote
    until the backed-off threshold is met, and demotion still needs
    ``demote_after`` consecutive worse observations."""
    buf = FakeBuffer()
    gov = governor(EdgeProfile(buf), demote_after=3, repromote_backoff=4.0,
                   ewma_alpha=1.0)
    buf.heat = 10_000
    assert gov.next_target(1, T0) == T2
    gov.on_install(T1)
    gov.observe(T0, 100.0)
    # one noisy worse sample must not demote
    assert gov.observe(T1, 200.0) is None
    gov.observe(T1, 90.0)                  # recovery resets the streak
    assert gov.observe(T1, 200.0) is None
    assert gov.observe(T1, 200.0) is None
    assert gov.observe(T1, 200.0) == T0    # third consecutive: demote
    gov.on_demote(T1, calls=10)
    # heat is huge, but the backed-off threshold now gates re-promotion
    assert gov.thresholds[T1] >= 40
    buf.heat = gov.thresholds[T1] - 1
    assert gov.next_target(11, T0) != T1
    buf.heat = gov.thresholds[T1]
    assert gov.next_target(11, T0) == T1


# -- engine level: profile="edges" -------------------------------------------


def test_tiered_engine_edges_profile_end_to_end():
    import time

    prog = compile_c(
        "long f(long a, long b) "
        "{ long s = 0; for (long i = 0; i < a; i++) s += i * b; return s; }")
    sim = Simulator(prog.image)
    want = sum(i * 3 for i in range(40))
    # T2 at 2000 heat: 40 iterations/call reach it in ~50 calls of edge
    # heat where raw call counting would need 2000 calls
    with TieredEngine(prog.image, profile="edges",
                      policy=TierPolicy(promote_calls=(4, 2000)),
                      instrument_options=InstrumentOptions()) as eng:
        h = eng.register("f", FunctionSignature(("i", "i"), "i"))
        deadline = time.monotonic() + 120.0
        calls = 0
        while h.tier < T2:
            assert sim.call(h.address(), (40, 3)).rax == want
            calls += 1
            assert time.monotonic() < deadline, h.snapshot()
            time.sleep(0.002)
        assert h.codes[T1].mode == "llvm+instr"
        assert isinstance(h.governor.profile, EdgeProfile)
        assert h.governor.profile.hotness() > calls, \
            "loop-body heat must outrun the call count"
        assert calls < 2000, "edge heat must beat the raw call budget"
        eng.drain(60.0)
    assert sim.call(h.address(), (40, 3)).rax == want


def test_unknown_profile_source_rejected():
    import pytest

    prog = compile_c("long f(long a) { return a; }")
    with pytest.raises(ValueError):
        TieredEngine(prog.image, profile="branchless")
