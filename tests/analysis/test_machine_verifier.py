"""Machine-level translation validation: verifier unit + wiring tests.

Covers the three layers of the subsystem:

* the prover itself (``repro.analysis.machine``) — positive proofs over
  representative IR shapes, refutation of real miscompiles, CFG audits;
* the backend regression the verifier caught (``_emit_synth_mult`` with
  an empty step chain left the destination register unwritten);
* the install-boundary wiring — BinaryTransformer verdicts and
  quarantine, GuardedTransformer rejection accounting and the mandatory
  gate downgrade on inconclusive proofs, farm protocol fields.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.machine import (
    INCONCLUSIVE,
    PROVED,
    REFUTED,
    VerifyResult,
    build_mcfg,
    verify_witness,
)
from repro.analysis.checkers import DEFAULT_PREGATE
from repro.analysis.findings import ERROR, WARNING
from repro.cache import SpecializationCache
from repro.cpu import Image, Simulator
from repro.errors import VerificationError
from repro.guard import GateOptions, GuardedTransformer
from repro.ir import FunctionType, Interpreter, Module, ptr
from repro.ir.builder import IRBuilder
from repro.ir.codegen import JITEngine
from repro.ir.irtypes import DOUBLE, I8, I64
from repro.ir.module import Function
from repro.jit import BinaryTransformer
from repro.jit.plan import DEFAULT_O3, Plan
from repro.lift import FunctionSignature, LiftOptions


def build(ret, params):
    m = Module("t")
    f = Function("f", FunctionType(ret, tuple(params)))
    m.add_function(f)
    return m, f, IRBuilder(f.add_block("entry"))


def compile_witness(f):
    img = Image()
    jit = JITEngine(img)
    addr = jit.compile_function(f, name=f.name)
    assert jit.last_witness is not None
    return img, addr, jit.last_witness


# -- positive proofs ---------------------------------------------------------


def _diamond():
    m, f, b = build(I64, (I64, I64))
    then = f.add_block("then")
    other = f.add_block("else")
    join = f.add_block("join")
    c = b.icmp("slt", f.args[0], f.args[1])
    b.cond_br(c, then, other)
    b.position_at_end(then)
    t = b.add(f.args[0], b.const(I64, 1))
    b.br(join)
    b.position_at_end(other)
    e = b.mul(f.args[1], b.const(I64, 3))
    b.br(join)
    b.position_at_end(join)
    p = b.phi(I64)
    p.add_incoming(t, then)
    p.add_incoming(e, other)
    b.ret(p)
    return f


def _loop():
    m, f, b = build(I64, (I64,))
    body = f.add_block("body")
    done = f.add_block("done")
    entry = f.blocks[0]
    b.br(body)
    b.position_at_end(body)
    i = b.phi(I64)
    acc = b.phi(I64)
    i2 = b.add(i, b.const(I64, 1))
    acc2 = b.add(acc, i)
    c = b.icmp("slt", i2, f.args[0])
    b.cond_br(c, body, done)
    i.add_incoming(b.const(I64, 0), entry)
    i.add_incoming(i2, body)
    acc.add_incoming(b.const(I64, 0), entry)
    acc.add_incoming(acc2, body)
    b.position_at_end(done)
    b.ret(acc2)
    return f


def _fp():
    m, f, b = build(DOUBLE, (DOUBLE, DOUBLE))
    s = b.fadd(f.args[0], f.args[1])
    p = b.fmul(s, f.args[0])
    b.ret(p)
    return f


def _divrem():
    m, f, b = build(I64, (I64, I64))
    q = b.binop("sdiv", f.args[0], f.args[1])
    b.ret(b.add(q, b.binop("srem", f.args[0], f.args[1])))
    return f


def _fselect():
    # a double select is a branch diamond on both sides
    m, f, b = build(DOUBLE, (DOUBLE, DOUBLE))
    c = b.fcmp("olt", f.args[0], f.args[1])
    b.ret(b.select(c, f.args[0], f.args[1]))
    return f


def _sext_bool():
    # sext i1 -> i64 lowers to a neg
    m, f, b = build(I64, (I64, I64))
    b.ret(b.sext(b.icmp("slt", f.args[0], f.args[1]), I64))
    return f


@pytest.mark.parametrize("make", [_diamond, _loop, _fp, _divrem, _fselect,
                                  _sext_bool])
def test_proves_clean_emissions(make):
    _, _, wit = compile_witness(make())
    report = verify_witness(wit)
    assert report.verdict == PROVED, (report.reasons,
                                      [x.message for x in report.findings])
    assert report.ok and report.blocks_checked >= 1


def test_proves_a_call_that_writes_the_callers_frame():
    """The callee bumps a caller stack slot through a pointer: the call
    escapes the frame, so both sides forget what the slot held."""
    m, g, b = build(I64, (ptr(I64),))
    old = b.load(g.args[0])
    b.store(b.add(old, b.const(I64, 1)), g.args[0])
    b.ret(b.mul(old, b.const(I64, 3)))
    f = Function("caller", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    slot = b.alloca(I64)
    b.store(f.args[0], slot)
    b.ret(b.add(b.call(g, [slot], I64), b.load(slot)))
    img = Image()
    jit = JITEngine(img)
    jit.compile_function(g, name=g.name)
    addr = jit.compile_function(f, name=f.name)
    report = verify_witness(jit.last_witness)
    assert report.verdict == PROVED, report.reasons
    assert Simulator(img).call_int(addr, (4,)) == 17  # 4 * 3 + 5
    assert Interpreter(m, img.memory).run(f, [4]) == 17


def test_static_checks_warn_on_udiv_and_refute_overlapping_slots():
    m, f, b = build(I64, (I64, I64))
    b.ret(b.binop("udiv", f.args[0], f.args[1]))
    _, _, wit = compile_witness(f)
    report = verify_witness(wit)
    assert report.verdict == PROVED
    assert [(x.checker, x.severity) for x in report.findings] == [
        ("machine.lowering.udiv-as-idiv", WARNING)]
    bad = verify_witness(dataclasses.replace(wit, frame_slots=[(0, 8), (4, 8)]))
    assert bad.verdict == REFUTED
    assert ("machine.stack.frame-overlap", ERROR) in [
        (x.checker, x.severity) for x in bad.findings]


def test_mcfg_reconstructs_blocks():
    _, _, wit = compile_witness(_diamond())
    cfg = build_mcfg(wit)
    assert cfg.ok
    # entry plus the three IR blocks are all reachable leaders
    assert len(cfg.blocks) >= 3
    total = sum(len(blk.instructions) for blk in cfg.blocks.values())
    covered = sum(ins.length for blk in cfg.blocks.values()
                  for ins in blk.instructions)
    assert total > 0 and covered == len(wit.code)


def test_mcfg_flags_dead_bytes():
    _, _, wit = compile_witness(_fp())
    padded = dataclasses.replace(wit, code=wit.code + b"\x90\x90")
    cfg = build_mcfg(padded)
    assert any(f.checker == "machine.cfg.unreachable-bytes"
               for f in cfg.findings)


def test_verify_witness_reports_dead_bytes_and_stays_proved():
    _, _, wit = compile_witness(_fp())
    report = verify_witness(dataclasses.replace(wit, code=wit.code + b"\x90\x90"))
    assert report.verdict == PROVED
    assert [f.checker for f in report.findings] == [
        "machine.cfg.unreachable-bytes"]


def test_verify_witness_refutes_a_label_inside_an_instruction():
    """The entry block's label moved one byte into its first instruction:
    symbolic execution alone only fails to pair paths (inconclusive), the
    encoding audit refutes."""
    _, _, wit = compile_witness(_diamond())
    labels = dict(wit.block_addrs, entry=wit.block_addrs["entry"] + 1)
    report = verify_witness(dataclasses.replace(wit, block_addrs=labels))
    assert report.verdict == REFUTED
    assert "machine.cfg.overlap" in {f.checker for f in report.findings}


# -- refutation --------------------------------------------------------------


def test_refutes_single_bit_corruption():
    """At least one single-bit flip of the diamond must be refuted, and no
    flip may crash the verifier (garbage decodes are inconclusive)."""
    _, _, wit = compile_witness(_diamond())
    refuted = 0
    for byte in range(len(wit.code)):
        for bit in (0, 3, 7):
            mutated = bytearray(wit.code)
            mutated[byte] ^= 1 << bit
            report = verify_witness(
                dataclasses.replace(wit, code=bytes(mutated)))
            assert report.verdict in (PROVED, REFUTED, INCONCLUSIVE)
            if report.verdict == REFUTED:
                refuted += 1
    assert refuted > 0


def test_synth_mult_by_one_regression():
    """An i8 multiply by constant 1, which the machine verifier once caught
    miscompiled (a stale destination under ``mul_style='lea'``, fixed in
    _emit_synth_mult).  Both emitter styles run it at the backend
    (tests/backend); here both oracles agree on the JIT's ``imul``."""
    m, f, b = build(I64, (I64,))
    t = b.trunc(f.args[0], I8)
    p = b.mul(t, b.const(I8, 1))
    b.ret(b.zext(p, I64))
    img, addr, wit = compile_witness(f)
    assert Simulator(img).call_int(addr, (5,)) == 5
    assert verify_witness(wit).verdict == PROVED


# -- BinaryTransformer wiring ------------------------------------------------

_SRC = "long madd(long a, long b, long c) { return a * b + c; }"
_SIG = FunctionSignature(("i", "i", "i"), "i")


def _program():
    from repro.cc import compile_c
    return compile_c(_SRC)


def test_transformer_records_verdict_and_serves_it_warm():
    prog = _program()
    cache = SpecializationCache()
    tx = BinaryTransformer(prog.image, cache=cache, machine_verify=True)
    cold = tx.llvm_identity("madd", _SIG)
    assert cold.machine_verdict == PROVED
    assert cold.machine_verify_seconds > 0.0
    warm = tx.llvm_identity("madd", _SIG)
    assert warm.cache_stage == "machine"
    assert warm.machine_verdict == PROVED
    assert warm.machine_verify_seconds == 0.0


def test_transformer_off_by_default():
    prog = _program()
    res = BinaryTransformer(prog.image).llvm_identity("madd", _SIG)
    assert res.machine_verdict is None
    assert res.machine_verify_seconds == 0.0


def test_refuted_proof_quarantines_before_install(monkeypatch):
    import repro.jit.plan as jit_engine

    prog = _program()
    cache = SpecializationCache()
    tx = BinaryTransformer(prog.image, cache=cache, machine_verify=True)
    monkeypatch.setattr(
        jit_engine, "verify_emitted",
        lambda jit, name: VerifyResult(verdict=REFUTED))
    with pytest.raises(VerificationError) as exc:
        tx.llvm_identity("madd", _SIG)
    assert exc.value.context.get("stage") == "machine-verify"
    # nothing was installed in the positive store ...
    assert cache.stats.stores == 0 or all(
        cache.get_machine(prog.image, k) is None for k in ())
    # ... and the request key is quarantined: the retry fails fast without
    # re-running the pipeline, even after the verifier is restored
    monkeypatch.undo()
    with pytest.raises(VerificationError) as exc2:
        tx.llvm_identity("madd", _SIG)
    assert exc2.value.context.get("quarantined") is True


# -- GuardedTransformer wiring -----------------------------------------------


def test_guard_counts_machine_rejections(monkeypatch):
    import repro.jit.plan as jit_engine

    prog = _program()
    guard = GuardedTransformer(prog.image, cache=SpecializationCache(),
                               machine_verify=True)
    monkeypatch.setattr(
        jit_engine, "verify_emitted",
        lambda jit, name: VerifyResult(verdict=REFUTED))
    res = guard.transform("madd", _SIG)
    assert res.degraded
    assert guard.stats.machine_rejections >= 1
    assert guard.stats.verification_rejections == 0


def test_inconclusive_proof_forces_dynamic_gate(monkeypatch):
    """A plan that gates only ``if-inconclusive`` installs a proved
    candidate ungated; an inconclusive machine proof downgrades that to a
    mandatory differential gate."""
    import repro.jit.plan as jit_engine

    plan = Plan("llvm", LiftOptions(), DEFAULT_O3, pregate=DEFAULT_PREGATE,
                machine_verify=True, gate="if-inconclusive",
                gate_options=GateOptions())
    monkeypatch.setattr(
        jit_engine, "verify_emitted",
        lambda jit, name: VerifyResult(verdict=INCONCLUSIVE,
                                       reasons=["forced for test"]))
    prog = _program()
    guard = GuardedTransformer.from_plan(prog.image, plan)
    res = guard.transform("madd", _SIG)
    assert not res.degraded
    assert res.gate is not None  # the gate ran on the inconclusive proof

    prog2 = _program()
    monkeypatch.undo()
    guard2 = GuardedTransformer.from_plan(prog2.image, plan)
    res2 = guard2.transform("madd", _SIG)
    assert res2.result.machine_verdict == PROVED
    assert res2.gate is None  # proved: installed ungated


# -- farm protocol -----------------------------------------------------------


def test_farm_protocol_carries_verdict():
    from repro.farm import protocol as fp

    job = fp.CompileJob(
        key="k", name="n", tier=1, func="f", signature=_SIG, fixes=None,
        segments=(), functions=(), cursors=(0, 0, 0, 0),
        plan=Plan("llvm", LiftOptions(), DEFAULT_O3))
    assert job.plan.machine_verify is False
    res = fp.CompileResult(key="k", name="n", tier=1)
    assert res.machine_verdict is None
    res2 = fp.CompileResult(key="k", name="n", tier=1,
                            machine_verdict=PROVED)
    assert res2.machine_verdict == PROVED
