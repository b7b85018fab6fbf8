"""The degradation ladder: rung order, fallback, quarantine, recovery.

Includes the acceptance scenario: a lift forced to fail must return the
original entry, record the failed rungs in GuardStats, serve the retry from
the negative cache, and pass the differential gate on rungs that did not
fail.
"""

from dataclasses import asdict, replace

import pytest

from repro.cache import SpecializationCache
from repro.cc import compile_c
from repro.cpu import Simulator
from repro.dbrew import Rewriter, default_error_handler, raising_error_handler
from repro.errors import RewriteError
from repro.guard import Budget, GateOptions, GuardedTransformer
from repro.ir.values import Constant
from repro.lift import FunctionSignature, LiftOptions
from repro.testing import inject_faults

SIG = FunctionSignature(("i", "i"), "i")
SRC = "long f(long a, long b) { return a * b + 7; }"


def make(src=SRC, **kw):
    prog = compile_c(src)
    kw.setdefault("cache", SpecializationCache())
    kw.setdefault("gate_options", GateOptions(samples=2))
    return prog.image, GuardedTransformer(prog.image, **kw)


def skew_constants(report, func, *rest):
    """Fault-injection corruptor: silently miscompile by nudging constants."""
    for blk in func.blocks:
        for ins in blk.instructions:
            for i, op in enumerate(list(ins.operands)):
                if isinstance(op, Constant) and op.value not in (0, 1):
                    ins.operands[i] = Constant(op.type, op.value + 1)
    return report


def test_top_rung_serves_when_healthy():
    img, g = make()
    r = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert r.mode == "dbrew+llvm"
    assert r.verified and r.gate.passed
    assert r.attempts == []
    assert Simulator(img).call_int(r.addr, (5, 0)) == 5 * 6 + 7
    assert g.stats.served_by["dbrew+llvm"] == 1


def test_no_fixes_skips_specializing_rungs():
    img, g = make()
    r = g.transform("f", SIG)
    assert r.mode == "llvm"
    assert r.attempts == []


def test_explicit_ladder_is_respected():
    img, g = make()
    r = g.transform("f", SIG, {1: 6}, ladder=("llvm-fix",))
    assert r.mode == "llvm-fix"
    # the terminal rung is appended even if the caller forgot it (fresh
    # image: a warm lifted-stage cache would mask the injected fault)
    img2, g2 = make()
    with inject_faults("lift", every=True):
        r2 = g2.transform("f", SIG, {0: 2}, ladder=("llvm-fix",))
    assert r2.mode == "original"


def test_acceptance_lift_failure_degrades_and_quarantines():
    img, g = make()
    entry = img.symbol("f")

    # 1. lift forced to fail on every rung -> the original entry is served
    with inject_faults("lift", every=True):
        r = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert r.addr == entry and r.mode == "original"
    assert r.degraded and not r.verified

    # 2. the failed rungs are recorded in GuardStats
    for rung in ("dbrew+llvm", "llvm-fix", "llvm"):
        assert g.stats.failures[rung] == 1
    assert g.stats.fallbacks == 1
    assert [a.rung for a in r.attempts] == ["dbrew+llvm", "llvm-fix", "llvm"]
    assert all(a.error_type == "LiftError" for a in r.attempts)
    assert all(a.context.get("stage") == "lift" for a in r.attempts)

    # 3. the retry (fault gone, quarantine fresh) is served negatively:
    #    no rung is re-attempted, the fallback comes straight back
    r2 = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert r2.addr == entry and r2.mode == "original"
    assert [(a.rung, a.quarantined) for a in r2.attempts] == [
        ("dbrew+llvm", True), ("llvm-fix", True), ("llvm", True)]
    assert g.stats.negative_served == 3

    # 4. after the quarantine lifts, the un-failed rung compiles and the
    #    installed code passes the differential gate
    g.negative.clear()
    r3 = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert r3.mode == "dbrew+llvm"
    assert r3.verified and r3.gate.passed
    assert Simulator(img).call_int(r3.addr, (5, 0)) == 37


def test_rewrite_failure_falls_to_llvm_fix():
    img, g = make()
    with inject_faults("rewrite", every=True):
        r = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert r.mode == "llvm-fix"
    assert r.verified
    assert [a.rung for a in r.attempts] == ["dbrew+llvm"]
    assert r.attempts[0].error_type == "RewriteError"
    assert g.stats.failures["dbrew+llvm"] == 1


def test_silent_miscompile_is_caught_by_the_gate():
    img, g = make()
    with inject_faults("opt", every=True, corrupt=skew_constants):
        r = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert r.mode == "original"
    assert g.stats.verification_rejections == 3
    assert all(a.error_type == "VerificationError" for a in r.attempts)
    # a wrong specialization must cost a fallback, never a miscompile
    # (the original fallback still takes b as a live argument):
    assert Simulator(img).call_int(r.addr, (5, 6)) == 37


def test_gate_rejected_code_is_evicted_not_resurrected():
    # The miscompile lands in the positive machine and module caches
    # *before* the gate runs.  When the quarantine TTL lapses and the rung
    # is retried, the divergent code must come back neither as an ungated
    # machine hit nor re-emitted from its module: the rejection evicted
    # both, so the retry re-runs O3 from the lifted stage.
    from repro.cache import NegativeCache

    class Clock:
        now = 0.0

    clk = Clock()
    img, g = make(negative=NegativeCache(ttl=10.0, clock=lambda: clk.now))
    with inject_faults("opt", every=True, corrupt=skew_constants):
        r = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert r.mode == "original"
    assert g.stats.verification_rejections == 3

    clk.now = 11.0  # quarantine lapsed; the optimizer is healthy again
    r2 = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert r2.mode == "dbrew+llvm" and r2.verified
    assert r2.result.cache_stage == "lifted"  # O3 ran again
    assert g.stats.verification_rejections == 3
    assert Simulator(img).call_int(r2.addr, (5, 0)) == 5 * 6 + 7


def test_a_rejection_evicts_the_module_entry_too():
    cache = SpecializationCache()
    modules = []
    put = cache.put_module
    cache.put_module = lambda mkey, *a: modules.append(mkey) or put(mkey, *a)
    img, g = make(cache=cache)
    with inject_faults("opt", every=True, corrupt=skew_constants):
        r = g.transform("f", SIG, {1: 6}, probes=[(3,)], ladder=("llvm-fix",))
    assert r.mode == "original" and g.stats.verification_rejections == 1
    # the miscompiled O3 body reached the module cache before the gate ran
    assert len(modules) == 1 and cache.get_module(modules[0]) is None


def test_unguarded_cache_entries_are_gated_on_first_guarded_use():
    from repro.jit import BinaryTransformer

    prog = compile_c(SRC)
    cache = SpecializationCache()
    BinaryTransformer(prog.image, cache=cache).llvm_fixed(
        "f", SIG, {1: 6}, name="f.fix")
    g = GuardedTransformer(prog.image, cache=cache,
                           gate_options=GateOptions(samples=2))
    # the shared cache serves the unguarded install at machine stage, but
    # the entry is not gated: the guard must verify it on this request
    r = g.transform("f", SIG, {1: 6}, ladder=("llvm-fix",), probes=[(3,)])
    assert r.result.cache_stage == "machine"
    assert r.gate is not None and r.verified
    # now the entry carries the gated bit: the warm path skips the gate
    r2 = g.transform("f", SIG, {1: 6}, ladder=("llvm-fix",), probes=[(3,)])
    assert r2.result.cache_stage == "machine"
    assert r2.gate is None and not r2.verified


def test_unknown_ladder_rung_is_a_caller_error():
    img, g = make()
    with pytest.raises(ValueError, match="unknown ladder rung"):
        g.transform("f", SIG, {1: 6}, ladder=("llvm-fxi",))
    assert g.stats.transforms == 0  # failed fast, before any attempt


def test_vacuous_gate_serves_but_is_not_verified():
    # pointer-taking function, no probes: every sampled probe faults the
    # original.  With min_conclusive=0 the gate passes vacuously — the
    # candidate is served, but must not be reported as verified
    img, g = make(src="long f(long *p, long b) { return p[0] + b; }",
                  gate_options=GateOptions(samples=2, min_conclusive=0))
    r = g.transform("f", SIG, {1: 6})
    assert r.mode != "original"
    assert r.gate is not None and r.gate.passed and r.gate.vacuous
    assert not r.verified  # nothing was actually compared on this request


def test_budget_exhaustion_degrades():
    img, g = make(budget=Budget(max_lift_instructions=1))
    r = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert r.mode == "original"
    assert g.stats.budget_exceeded >= 1
    assert any(a.error_type == "BudgetExceededError" for a in r.attempts)


def test_quarantine_is_per_rung():
    img, g = make()
    # only the DBrew rung fails: llvm-fix serves, and only the DBrew rung
    # is quarantined for the retry
    with inject_faults("rewrite", every=True):
        g.transform("f", SIG, {1: 6}, probes=[(3,)])
    r = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert r.attempts[0].rung == "dbrew+llvm" and r.attempts[0].quarantined
    assert r.mode == "llvm-fix" and len(r.attempts) == 1


def test_quarantine_is_per_lift_options():
    """A guard that cannot lift a call (no ``known_functions``) quarantines
    the rung; a guard sharing its cache that *declares* the callee is a
    different request and must compile, not be served that verdict."""
    src = ("long helper(long x) { return x * 3; } "
           "long f(long a) { return helper(a) + 1; }")
    sig = FunctionSignature(("i",), "i")
    img, plain = make(src)
    failed = plain.transform("f", sig)
    assert failed.mode == "original"
    assert "unknown function" in failed.attempts[0].error
    known = LiftOptions(known_functions={img.symbol("helper"): ("helper", sig)})
    declared = GuardedTransformer.from_plan(
        img, replace(plain.plans["llvm"], lift=known), cache=plain.cache)
    r = declared.transform("f", sig, probes=[(4,)])
    assert r.mode == "llvm" and r.attempts == []
    assert r.verified
    assert Simulator(img).call_int(r.addr, (4,)) == 13


def test_quarantine_is_per_dbrew_entry():
    """DBrew may rewrite another entry than the one the gate compares
    against (``dbrew_func``): a request whose DBrew entry cannot be
    rewritten must not quarantine the same request over a working one."""
    img, g = make(SRC + " long good(long a, long b) { return a * b + 7; }")
    img.add_function("bad", bytes.fromhex("4889f8ffe0"))  # jmp rax
    failed = g.transform("f", SIG, {1: 5}, ladder=("dbrew+llvm",),
                         dbrew_func="bad")
    assert failed.mode == "original"
    assert failed.attempts[0].error_type == "RewriteError"
    r = g.transform("f", SIG, {1: 5}, probes=[(3,)], ladder=("dbrew+llvm",),
                    dbrew_func="good")
    assert r.mode == "dbrew+llvm" and r.attempts == []
    assert r.verified
    assert Simulator(img).call_int(r.addr, (3, 0)) == 3 * 5 + 7


def test_success_clears_quarantine_after_expiry():
    class Clock:
        now = 0.0

    from repro.cache import NegativeCache
    clk = Clock()
    nc = NegativeCache(ttl=10.0, clock=lambda: clk.now)
    img, g = make(negative=nc)
    with inject_faults("lift", every=True):
        g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert len(nc) == 3
    clk.now = 11.0  # TTL lapsed: rungs are retried and now succeed
    r = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    assert r.mode == "dbrew+llvm"
    entry = img.symbol("f")
    assert nc.check(f"{g._guard_key(entry, SIG, {1: 6}, (), entry)}"
                    f":dbrew+llvm") is None  # forgotten on success


def test_verify_off_skips_the_gate():
    img, g = make()
    g = GuardedTransformer.from_plan(
        img, replace(g.plans["llvm"], gate="never"), cache=g.cache)
    r = g.transform("f", SIG, {1: 6})
    assert r.mode == "dbrew+llvm"
    assert not r.verified and r.gate is None


def test_stats_snapshot_shape():
    img, g = make()
    g.transform("f", SIG, {1: 6}, probes=[(3,)])
    snap = asdict(g.stats)
    assert snap["transforms"] == 1
    assert snap["served_by"]["dbrew+llvm"] == 1


# -- Rewriter error-handler contract (Sec. II) ------------------------------


def test_default_error_handler_returns_original_entry():
    prog = compile_c(SRC)
    r = Rewriter(prog.image, "f")
    r.set_signature(("i", "i"), "i")
    assert r.error_handler is default_error_handler
    with inject_faults("rewrite", every=True):
        addr = r.rewrite(name="f.spec")
    assert addr == prog.image.symbol("f")
    assert isinstance(r.last_error, RewriteError)


def test_custom_error_handler_is_invoked():
    prog = compile_c(SRC)
    r = Rewriter(prog.image, "f")
    r.set_signature(("i", "i"), "i")
    seen = []

    def handler(rewriter, exc):
        seen.append((rewriter, exc))
        return 0xDEAD

    r.error_handler = handler
    with inject_faults("rewrite", every=True):
        assert r.rewrite(name="f.spec") == 0xDEAD
    assert seen and seen[0][0] is r
    assert seen[0][1].context.get("injected") is True


def test_raising_error_handler_propagates():
    prog = compile_c(SRC)
    r = Rewriter(prog.image, "f")
    r.set_signature(("i", "i"), "i")
    r.error_handler = raising_error_handler
    with inject_faults("rewrite", every=True):
        with pytest.raises(RewriteError):
            r.rewrite(name="f.spec")
