"""Translation validation of the -O3 sweep, one application per pass:
attribution, rollback, quarantine.

A miscompiling pass is deterministic, so the fault specs that model one
fire on ``every=True`` application: whatever sweep met the fault first,
the per-pass replay meets it again and blames it."""

import pytest

from repro.cc import compile_c
from repro.ir import I64, Function, FunctionType, IRBuilder, Interpreter, Module
from repro.ir import instructions as I
from repro.ir.passes import O3Options, replay_o3, run_o3
from repro.ir.verifier import verify
from repro.ir.values import Constant, Undef
from repro.guard import Budget, GuardedTransformer
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.errors import BudgetExceededError, IRError
from repro.testing.faults import O3_PASSES, FaultSpec, inject_faults

from repro.analysis import (
    PassValidator,
    clone_function,
    functions_structurally_equal,
)


def _poly_func(name="f"):
    """f(a, b) = (a + a) * 3 + b — enough redundancy for gvn/instcombine."""
    m = Module("t")
    f = Function(name, FunctionType(I64, (I64, I64)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    s1 = b.add(f.args[0], f.args[0])
    s2 = b.add(f.args[0], f.args[0])  # gvn fodder
    prod = b.mul(s1, b.const(I64, 3))
    dead = b.mul(s2, b.const(I64, 100))  # dce fodder
    b.ret(b.add(prod, f.args[1]))
    return m, f


def _corrupt_ret(result, func):
    """Silent miscompile: rewrite the return value to a constant."""
    for blk in func.blocks:
        for ins in blk.instructions:
            if isinstance(ins, I.Ret) and ins.value is not None:
                ins.operands[0] = Constant(I64, 12345)
                return None
    return None


def _replay(f, validator, budget=None):
    return replay_o3(f, O3Options(), budget, validator)


def test_clean_run_validates_and_accepts():
    _m, clean = _poly_func()
    run_o3(clean)
    _m, f = _poly_func()
    validator = PassValidator()
    report = _replay(f, validator)
    assert report.validated
    # a verdict per applied pass, the changing ones resting on executions
    assert report.pass_log and all(v.ok for v in report.pass_log)
    changed = [v for v in report.pass_log if v.changed]
    assert changed and all(v.probes_run > 0 for v in changed)
    assert report.rejected_passes == []
    assert report.miscompiled_pass is None
    stats = validator.stats
    assert stats.validated == stats.accepted == len(changed)
    assert (stats.rejected, stats.rollbacks) == (0, 0)
    # validation only ever rejects: what it accepts is the plain sweep's
    assert functions_structurally_equal(f, clean)


def test_a_function_outside_any_module_validates():
    f = Function("f", FunctionType(I64, (I64,)))
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.add(b.mul(f.args[0], b.const(I64, 2)), b.const(I64, 0)))
    validator = PassValidator()
    report = _replay(f, validator)
    assert f.module is None and report.validated
    assert any(v.probes_run > 0 for v in report.pass_log)
    assert report.rejected_passes == []


def test_idle_pipeline_takes_the_noop_shortcut():
    _m, f = _poly_func()
    run_o3(f)
    validator = PassValidator()
    report = _replay(f, validator)  # already at its fixed point
    assert report.pass_log
    assert all(v.ok and not v.changed for v in report.pass_log)
    assert validator.stats.validated == validator.stats.probes_run == 0


def test_injected_miscompile_attributed_to_exact_pass():
    m, f = _poly_func()
    validator = PassValidator()
    with inject_faults("pass:gvn", every=True, corrupt=_corrupt_ret):
        report = _replay(f, validator)
    assert report.validated
    assert report.miscompiled_pass == "gvn"
    assert report.rejected_passes == ["gvn"]
    bad = [v for v in report.pass_log if not v.ok and not v.quarantined]
    assert bad and bad[0].pass_name == "gvn"
    assert bad[0].rolled_back
    assert "divergence" in (bad[0].reason or "")
    # one bad pass is one rejection: later applications are quarantined
    assert validator.stats.rejected == 1
    assert validator.stats.rollbacks == 1
    assert sorted(validator.negative._store.keys()) == ["o3pass:gvn"]
    # the rolled-back function still computes the right answer
    assert Interpreter(m).run(f, [5, 7]) == (5 + 5) * 3 + 7


def test_rejected_pass_is_quarantined_for_later_runs():
    validator = PassValidator()
    _m, f = _poly_func()
    with inject_faults("pass:gvn", every=True, corrupt=_corrupt_ret):
        _replay(f, validator)
    _m2, f2 = _poly_func("g")
    report = _replay(f2, validator)
    # gvn is skipped while quarantined: a quarantine verdict, no rejection
    assert validator.stats.quarantine_skips > 0
    quarantined = [v for v in report.pass_log if v.quarantined]
    assert quarantined and all(v.pass_name == "gvn" for v in quarantined)
    assert report.rejected_passes == []


def test_structural_corruption_rejected_by_verifier():
    def drop_terminator(result, func):
        func.blocks[-1].instructions.pop()
        return None

    _m, f = _poly_func()
    validator = PassValidator()
    with inject_faults("pass:dce", every=True, corrupt=drop_terminator):
        report = _replay(f, validator)
    assert report.miscompiled_pass == "dce"
    assert validator.stats.structural_rejections >= 1
    bad = [v for v in report.pass_log
           if not v.ok and not v.quarantined][0]
    assert bad.pass_name == "dce"
    assert bad.reason.startswith(("verifier:", "strict-ssa:"))
    # rollback restored a well-formed body: the function still runs
    assert Interpreter(_m).run(f, [2, 1]) == (2 + 2) * 3 + 1


def _drop_terminator(result, func):
    term = func.blocks[-1].terminator
    if term is not None:
        term.erase()
    return None


def _assume_terminators(result, func):
    """What a pass written against verified input does with less."""
    for blk in func.blocks:
        if blk.terminator is None:
            raise IRError(f"block {blk.name} has no terminator")
    return None


def test_sweep_that_raises_over_a_broken_body_is_replayed():
    """``dce`` leaves a block without terminator and the unvalidated
    ``simplifycfg`` after it raises; replayed per pass, ``dce`` is blamed
    and rolled back, and ``simplifycfg`` is never shown the broken
    body."""
    specs = (FaultSpec("pass:dce", every=True, corrupt=_drop_terminator),
             FaultSpec("pass:simplifycfg", every=True,
                       corrupt=_assume_terminators))
    with inject_faults(*specs), pytest.raises(IRError):
        run_o3(_poly_func()[1])
    m, f = _poly_func()
    validator = PassValidator()
    with inject_faults(*specs):
        report = _replay(f, validator)
    replay = report.pass_log
    assert report.rejected_passes == ["dce"]
    assert validator.stats.structural_rejections == 1
    assert sorted(validator.negative._store.keys()) == ["o3pass:dce"]
    # the pipeline continued past the rejected pass
    assert [v.pass_name for v in replay].index("dce") < len(replay) - 1
    verify(f)
    assert Interpreter(m).run(f, [2, 1]) == (2 + 2) * 3 + 1


def test_budget_exhaustion_propagates_and_blames_nobody():
    """Running out of budget mid-replay is not a miscompile: the error
    propagates between two pass applications, over a body every applied
    pass was validated on, and nothing is rejected or quarantined."""
    _m, f = _poly_func()
    validator = PassValidator()
    with pytest.raises(BudgetExceededError):
        _replay(f, validator, Budget(max_opt_iterations=1).start())
    verify(f)
    assert validator.stats.validated > 0
    assert validator.stats.rejected == 0 and len(validator.negative) == 0


def test_run_pass_noop_shortcut():
    _m, f = _poly_func()
    validator = PassValidator()
    result, verdict = validator.run_pass("nothing", lambda: False, f)
    assert verdict.ok and not verdict.changed
    assert validator.stats.validated == 0  # provable no-op: not validated


def test_run_pass_detects_lying_pass():
    # a pass that mutates the function but reports "no change" must still
    # be validated (structural diff overrides the claim)
    _m, f = _poly_func()
    validator = PassValidator()

    def lying_pass():
        _corrupt_ret(None, f)
        return False

    _result, verdict = validator.run_pass("liar", lying_pass, f)
    assert not verdict.ok
    assert verdict.rolled_back


def test_rollback_restores_exact_body():
    _m, f = _poly_func()
    snapshot = clone_function(f)
    validator = PassValidator()

    def corrupting_pass():
        _corrupt_ret(None, f)
        return True

    _result, verdict = validator.run_pass("bad", corrupting_pass, f)
    assert verdict.rolled_back
    assert functions_structurally_equal(f, snapshot)


def test_float_tolerance_accepts_reassociation():
    from repro.ir import DOUBLE

    m = Module("t")
    f = Function("f", FunctionType(DOUBLE, (DOUBLE, DOUBLE)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.fadd(b.fadd(f.args[0], b.fconst(DOUBLE, 0.1)), f.args[1]))
    validator = PassValidator()

    def reassociate():
        # (a + 0.1) + b  ->  a + (0.1 + b): bit-different, tolerably equal
        blk = f.blocks[0]
        inner, outer, _ret = blk.instructions
        inner.operands[0] = f.args[1]
        outer.operands[1] = f.args[0]
        return True

    _result, verdict = validator.run_pass("reassoc", reassociate, f)
    assert verdict.ok, verdict.reason


def test_an_infinity_agrees_only_with_itself():
    """The relative tolerance scales by the larger magnitude: an infinity
    would admit anything, and inf - inf is NaN, which admits nothing."""
    agree = PassValidator()._agree
    inf = float("inf")
    assert agree(inf, inf) and agree(-inf, -inf)
    assert not agree(inf, -inf) and not agree(inf, 1e308)
    assert agree(float("nan"), float("nan"))


def test_validated_pipeline_through_transformer():
    """A clean install under a validator is verified, not interpreted."""
    program = compile_c("long f(long a, long b) { return a * b + 3; }")
    validator = PassValidator()
    guard = GuardedTransformer(program.image, validator=validator)
    r = guard.transform("f", FunctionSignature(("i", "i"), "i"), None,
                        ladder=("llvm",), probes=[(6, 7)])
    assert r.mode == "llvm" and r.verified
    report = r.result.o3_report
    assert report is not None and not report.validated
    assert report.rejected_passes == [] and r.result.blamed_pass is None
    assert validator.stats.validated == validator.stats.probes_run == 0
    from repro.cpu import Simulator

    assert Simulator(program.image).call_int(r.addr, (6, 7)) == 45


# -- nothing carries over between applications --------------------------------


def test_liar_after_honest_noops_is_rolled_back():
    """Honest no-op applications leave nothing behind that could vouch for
    the body: the liar that follows them is checked by content, rejected
    and rolled back to the body it was handed."""
    m, f = _poly_func()
    original = clone_function(f)
    validator = PassValidator()
    for _ in range(2):
        _r, honest = validator.run_pass("honest", lambda: False, f)
        assert honest.ok and not honest.changed

    def lying_pass():
        _corrupt_ret(None, f)
        return False

    _r, verdict = validator.run_pass("liar", lying_pass, f)
    assert not verdict.ok and verdict.rolled_back
    assert "divergence" in (verdict.reason or "")
    assert validator.stats.validated == 1 and validator.stats.rejected == 1
    assert functions_structurally_equal(f, original)
    assert Interpreter(m).run(f, [5, 7]) == (5 + 5) * 3 + 7


def test_fingerprints_are_walked_only_for_a_noop_claim(monkeypatch):
    """A changed application is validated without keying any body; a
    "no change" claim keys the snapshot and the live body, once each.  An
    edit made between two calls is what the next rollback restores."""
    from repro.analysis import validate as V

    walks = []
    real = V.function_fingerprint
    monkeypatch.setattr(V, "function_fingerprint",
                        lambda func: walks.append(func) or real(func))
    m, f = _poly_func()
    validator = PassValidator()
    _r, v = validator.run_pass("dce", _drop_dead_mul(f), f)
    assert v.ok and v.changed and len(walks) == 0
    _r, v = validator.run_pass("nothing", lambda: False, f)
    assert v.ok and not v.changed and len(walks) == 2

    three = next(i for i in f.instructions() if i.opcode == "mul").operands[1]
    assert f.replace_all_uses(three, Constant(I64, 5)) == 1
    ret = next(i for i in f.instructions() if isinstance(i, I.Ret))

    def fold_ret():
        ret.operands[0] = f.args[1]
        f.bump_version()
        return True

    _r, v = validator.run_pass("bad", fold_ret, f)
    assert not v.ok and v.rolled_back and len(walks) == 2
    assert Interpreter(m).run(f, [5, 7]) == (5 + 5) * 5 + 7


def test_renamed_values_are_not_a_change():
    _m, f = _poly_func()
    validator = PassValidator()

    def rename():
        for i, ins in enumerate(f.instructions()):
            ins.name = f"renamed{i}"
        return False

    _r, verdict = validator.run_pass("rename", rename, f)
    assert verdict.ok and not verdict.changed
    assert validator.stats.validated == 0


def _drop_dead_mul(f):
    def run():
        dead = [i for i in f.instructions()
                if i.opcode == "mul" and not i.uses]
        for ins in dead:
            ins.erase()
        f.bump_version()
        return bool(dead)
    return run


# -- what a probe's memory record holds ------------------------------------------


def _store_func():
    """f(p, x): a dead stack slot gets ``x``, ``*p`` gets ``x + 1``."""
    from repro.ir import ptr

    m = Module("t")
    f = Function("f", FunctionType(I64, (I64, I64)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    slot = b.alloca(I64, name="slot")
    spill = b.store(f.args[1], slot, align=8)
    p = b.inttoptr(f.args[0], ptr(I64), "p")
    out = b.store(b.add(f.args[1], b.const(I64, 1)), p, align=8)
    b.ret(f.args[1])
    return f, spill, out


def test_probe_memory_record_is_the_compared_regions_only(monkeypatch):
    """The interpreter's 1 MB stack is excluded from the comparison, so it
    is not copied either: a pass may change what dead stack slots hold,
    and a changed store outside the stack is still a divergence, at the
    same address and with the same words."""
    from repro.analysis import validate as V
    from repro.mem.memory import Memory

    def no_snapshot(self):
        raise AssertionError("a probe copied the whole memory")

    monkeypatch.setattr(Memory, "snapshot", no_snapshot)
    f, spill, out = _store_func()
    validator = PassValidator()
    _rv, err, record = validator._probe_run(f, (V.SCRATCH_BASE, 5))
    assert err is None
    assert [(s, len(d)) for s, d in record] == \
        [(V.SCRATCH_BASE, V.SCRATCH_SLOT * V.SCRATCH_SLOTS)]

    def clobber_stack():
        spill.operands[0] = Constant(I64, 99)
        f.bump_version()
        return True

    _r, verdict = validator.run_pass("stack", clobber_stack, f)
    assert verdict.ok and verdict.probes_run > 0, verdict.reason

    def clobber_scratch():
        out.operands[0] = Constant(I64, 99)
        f.bump_version()
        return True

    _r, verdict = validator.run_pass("scratch", clobber_scratch, f)
    assert not verdict.ok and verdict.rolled_back
    assert verdict.reason.endswith(f"memory divergence at {V.SCRATCH_BASE:#x}")


def test_every_o3_pass_application_is_judged_once():
    """The validated sweep logs one verdict per pass application that ran:
    the pass names in ``pass_log`` equal the executed applications, as
    multisets."""
    prog = compile_c("""
    long f(long a, long b) {
        long s = 0;
        for (long i = 0; i < a; i++) s += i * b;
        return s;
    }
    """)
    img = prog.image
    f = lift_function(img.memory, img.symbol("f"),
                      FunctionSignature(("i", "i"), "i"),
                      LiftOptions(name="f.judged"), Module("t"))
    verify(f)

    # count what actually runs: a fault spec that corrupts nothing
    spy = [FaultSpec(f"pass:{p}", every=True, corrupt=lambda _res, *_a: None)
           for p in O3_PASSES]
    with inject_faults(*spy) as ran:
        report = _replay(f, PassValidator())

    assert report.pass_log and all(v.ok for v in report.pass_log)
    executed = sorted(stage.removeprefix("pass:")
                      for stage, n in ran.calls.items() for _ in range(n))
    logged = sorted(v.pass_name for v in report.pass_log)
    assert executed and logged == executed, \
        "the pass log must match the executed applications exactly"
