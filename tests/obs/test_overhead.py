"""Trace-overhead regression tests (the DESIGN §10 cost contract).

Disabled tracing must be a single attribute check on every hot path: a
warm ``GuardedTransformer.transform`` (machine-stage cache hit) tests
``TRACER.enabled`` and then runs its untraced ``_transform_impl`` without
calling into the tracer once.

These are structural checks: tier-1 must not depend on the load of the box
it runs on.  The timed form of the same contract (<= 5 % over the bare
path, lap-interleaved medians) is ``benchmarks/bench_obs_overhead.py``,
which CI runs on its own.

With tracing enabled, coverage must be complete where the tentpole
promises it: every O3 pass application gets a matching span.
"""

from __future__ import annotations

import pytest

from repro.analysis import PassValidator
from repro.cache import SpecializationCache
from repro.cc import compile_c
from repro.guard import GuardedTransformer
from repro.ir import Module, verify
from repro.ir.passes import O3Options, replay_o3
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.obs.trace import TRACER
from repro.testing.faults import O3_PASSES, FaultSpec, inject_faults


# -- disabled path: warm guarded transform ----------------------------------


def test_warm_guard_transform_disabled_overhead(monkeypatch):
    """Disabled: ``transform`` is ``TRACER.enabled`` then ``_transform_impl``,
    and the whole machine-cache hit path under it never enters the tracer."""
    assert not TRACER.enabled
    prog = compile_c("long f(long a, long b) { return a * b + 3; }")
    guard = GuardedTransformer(prog.image, cache=SpecializationCache())
    sig = FunctionSignature(("i", "i"), "i")
    kwargs = dict(name="f.obs", ladder=("llvm",))
    out = guard.transform("f", sig, **kwargs)  # cold: warms the cache
    assert not out.degraded

    assert GuardedTransformer.transform.__code__.co_names[:3] \
        == ("_TR", "enabled", "_transform_impl")

    def entered(*args, **kwargs):
        pytest.fail("the disabled warm path called into the tracer")

    for hook in ("span", "start", "finish", "instant", "current"):
        monkeypatch.setattr(type(TRACER), hook, entered)
    warm = guard.transform("f", sig, **kwargs)
    assert warm.result is not None \
        and warm.result.cache_stage == "machine", \
        "the check above must have run on the machine-cache hit path"


# -- enabled path: complete O3 coverage -------------------------------------


def test_every_o3_pass_application_has_a_span():
    prog = compile_c("""
    long f(long a, long b) {
        long s = 0;
        for (long i = 0; i < a; i++) s += i * b;
        return s;
    }
    """)
    img = prog.image
    m = Module("t")
    f = lift_function(img.memory, img.symbol("f"),
                      FunctionSignature(("i", "i"), "i"),
                      LiftOptions(name="f.traced"), m)
    verify(f)

    # count what actually runs: a fault spec that corrupts nothing
    spy = [FaultSpec(f"pass:{p}", every=True, corrupt=lambda _res, *_a: None)
           for p in O3_PASSES]
    TRACER.clear()
    TRACER.enable()
    try:
        with inject_faults(*spy) as ran:
            report = replay_o3(f, O3Options(), None, PassValidator())
    finally:
        TRACER.disable()

    # validated per pass: every application is traced and judged once
    assert report.pass_log and all(v.ok for v in report.pass_log)
    executed = sorted(f"o3.pass.{stage.removeprefix('pass:')}"
                      for stage, n in ran.calls.items() for _ in range(n))
    spans = sorted(s.name for s in TRACER.spans
                   if s.name.startswith("o3.pass.")
                   and (s.attrs or {}).get("func") == "f.traced")
    assert executed and spans == executed, \
        "span multiset must match the executed applications exactly"
    TRACER.clear()
