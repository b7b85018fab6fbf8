"""Trace-overhead regression tests (the DESIGN §10 cost contract).

Disabled tracing must be a single attribute check on every hot path:

* ``DispatchHandle.address()`` — the zero-stall dispatch from PR 4 — is
  never wrapped when tracing is off: the handle keeps the bare class and
  its hot function names no tracer at all;
* a warm ``GuardedTransformer.transform`` (machine-stage cache hit) tests
  ``TRACER.enabled`` and then runs its untraced ``_transform_impl``
  without calling into the tracer once.

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
from repro.cpu import Image
from repro.guard import GuardedTransformer
from repro.ir import Module, verify
from repro.ir.passes import O3Options, replay_o3
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.obs.trace import TRACER
from repro.testing.faults import O3_PASSES, FaultSpec, inject_faults
from repro.tier import TieredEngine, TierPolicy
from repro.tier.handle import DispatchHandle

#: thresholds no test run can reach: the handle never promotes
_COLD = TierPolicy(promote_calls=(10**9, 10**9))


# -- disabled path: dispatch ------------------------------------------------


def test_dispatch_hot_path_structurally_untouched():
    assert not TRACER.enabled
    with TieredEngine(Image(), policy=_COLD) as eng:
        h = eng.register(0x1000, FunctionSignature(("i",), "i"))
        assert "address" not in h.__dict__, \
            "disabled tracing must not shadow the dispatch method"
    # the class-level hot path contains no tracer hooks at all
    names = DispatchHandle.address.__code__.co_names
    assert not any("TR" in n or "trace" in n or "obs" in n for n in names), \
        names


def test_dispatch_disabled_overhead_within_budget():
    """Disabled: the handle is a plain ``DispatchHandle`` whose ``address``
    is the class function itself.  Enabled: only handles registered from
    then on are swapped to the timed subclass."""
    assert not TRACER.enabled
    with TieredEngine(Image(), policy=_COLD) as eng:
        sig = FunctionSignature(("i",), "i")
        h = eng.register(0x1000, sig)
        assert type(h) is DispatchHandle
        assert h.address.__func__ is DispatchHandle.address
        TRACER.enable()
        try:
            timed = eng.register(0x2000, sig)
        finally:
            TRACER.disable()
            TRACER.clear()
        assert type(timed) is not DispatchHandle
        assert type(h) is DispatchHandle
        assert h.address() == 0x1000 and timed.address() == 0x2000


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
