"""GuardedTransformer static pre-gate: reject before spending probe budget."""

from dataclasses import asdict, replace

from repro.cc import compile_c
from repro.ir import I64
from repro.ir import instructions as I
from repro.ir.values import Undef
from repro.guard import GuardedTransformer
from repro.lift import FunctionSignature
from repro.testing.faults import inject_faults

SRC = "long f(long a, long b) { return a * 3 + b; }"
SIG = FunctionSignature(("i", "i"), "i")


def _poison_ret(result, func):
    """Make the optimized function return an undef-derived value."""
    for blk in func.blocks:
        for ins in blk.instructions:
            if isinstance(ins, I.Ret) and ins.value is not None:
                ins.operands[0] = Undef(I64)
                return None
    return None


def test_clean_transform_passes_pregate():
    program = compile_c(SRC)
    guard = GuardedTransformer(program.image)
    out = guard.transform("f", SIG, probes=[(3, 4)])
    assert out.mode == "llvm"
    assert guard.stats.static_rejections == 0
    assert guard.stats.static_skip_reasons == {}


def test_static_pregate_rejects_undef_return():
    program = compile_c(SRC)
    guard = GuardedTransformer(program.image)
    with inject_faults("pass:dce", every=True, corrupt=_poison_ret):
        out = guard.transform("f", SIG, probes=[(3, 4)])
    # every compiling rung produced poisoned IR: degrade to the original
    assert out.degraded
    assert guard.stats.static_rejections >= 1
    assert guard.stats.static_skip_reasons.get("undef-use", 0) >= 1
    assert any(a.context.get("stage") == "static-verify"
               for a in out.attempts)
    # the static reject happened before the dynamic gate ran any probe
    assert out.gate is None
    # ...and is counted separately from dynamic verification rejections
    assert guard.stats.verification_rejections == 0


def test_pregate_can_be_disabled():
    program = compile_c(SRC)
    default = GuardedTransformer(program.image).plans["llvm"]
    guard = GuardedTransformer.from_plan(
        program.image, replace(default, pregate=(), gate="never"))
    with inject_faults("pass:dce", every=True, corrupt=_poison_ret):
        out = guard.transform("f", SIG)
    # with both gates off the poisoned candidate is served — the pre-gate
    # (not luck) is what rejected it above
    assert out.mode == "llvm"
    assert guard.stats.static_rejections == 0


def test_static_rejection_recorded_in_quarantine():
    program = compile_c(SRC)
    guard = GuardedTransformer(program.image)
    with inject_faults("pass:dce", every=True, corrupt=_poison_ret):
        guard.transform("f", SIG, probes=[(3, 4)])
        out2 = guard.transform("f", SIG, probes=[(3, 4)])
    # the second request is served from quarantine without re-compiling
    assert out2.degraded
    assert guard.stats.negative_served >= 1


def test_stats_snapshot_includes_static_fields():
    program = compile_c(SRC)
    guard = GuardedTransformer(program.image)
    snap = asdict(guard.stats)
    assert "static_rejections" in snap
    assert "static_skip_reasons" in snap
