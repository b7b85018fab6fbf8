"""The fault-injection harness itself: patching, determinism, restoration."""

import pytest

import repro.dbrew.rewriter as rewriter_mod
import repro.jit.plan as engine_mod
import repro.lift.blocks as blocks_mod
from repro.cc import compile_c
from repro.errors import (
    CodegenError,
    DecodeError,
    IRError,
    LiftError,
    RewriteError,
)
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature
from repro.testing import FaultInjector, FaultSpec, inject_faults

SIG = FunctionSignature(("i",), "i")


def _tx():
    prog = compile_c("long f(long a) { return a + 41; }")
    return prog, BinaryTransformer(prog.image)


def test_patch_points_restored_on_exit():
    saved = (blocks_mod.decode_one, rewriter_mod.decode_one,
             engine_mod.lift_function, engine_mod.run_o3)
    with inject_faults("decode"):
        assert blocks_mod.decode_one is not saved[0]
        assert rewriter_mod.decode_one is not saved[1]
    assert (blocks_mod.decode_one, rewriter_mod.decode_one,
            engine_mod.lift_function, engine_mod.run_o3) == saved


def test_restored_even_when_body_raises():
    saved = engine_mod.lift_function
    with pytest.raises(RuntimeError):
        with inject_faults("lift"):
            raise RuntimeError("boom")
    assert engine_mod.lift_function is saved


@pytest.mark.parametrize("stage,exc", [
    ("decode", DecodeError), ("lift", LiftError), ("opt", IRError),
    ("codegen", CodegenError), ("rewrite", RewriteError),
])
def test_default_error_types_per_stage(stage, exc):
    spec = FaultSpec(stage)
    err = spec.make_error()
    assert isinstance(err, exc)
    assert err.context["stage"] == stage
    assert err.context["injected"] is True


def test_unknown_stage_rejected():
    with pytest.raises(ValueError, match="unknown stage"):
        FaultSpec("linker")
    with pytest.raises(ValueError, match="1-based"):
        FaultSpec("lift", at=0)


def test_lift_fault_fires_and_counts():
    prog, tx = _tx()
    with inject_faults("lift") as inj:
        with pytest.raises(LiftError, match="injected"):
            tx.llvm_identity("f", SIG, name="f2")
    assert inj.calls["lift"] == 1
    assert inj.fired["lift"] == 1
    # harness gone: the same transform now succeeds
    res = tx.llvm_identity("f", SIG, name="f2")
    assert res.addr


def test_at_k_skips_earlier_calls():
    prog, tx = _tx()
    with inject_faults("lift", at=2) as inj:
        res = tx.llvm_identity("f", SIG, name="f2")  # call 1: clean
        assert res.addr
        with pytest.raises(LiftError):
            tx.llvm_identity("f", SIG, name="f3")  # call 2: faulted
        tx.llvm_identity("f", SIG, name="f4")  # call 3: clean again
    assert inj.calls["lift"] == 3
    assert inj.fired["lift"] == 1


def test_every_faults_all_later_calls():
    prog, tx = _tx()
    with inject_faults("opt", every=True) as inj:
        for name in ("f2", "f3"):
            with pytest.raises(IRError):
                tx.llvm_identity("f", SIG, name=name)
    assert inj.fired["opt"] == 2


def test_custom_error_instance():
    prog, tx = _tx()
    boom = CodegenError("custom boom", stage="codegen", marker=7)
    with inject_faults("codegen", error=boom):
        with pytest.raises(CodegenError, match="custom boom") as ei:
            tx.llvm_identity("f", SIG, name="f2")
    assert ei.value.context["marker"] == 7


def test_corrupt_replaces_result():
    prog, tx = _tx()
    seen = []

    def truncate(result, *args):
        seen.append(result)
        return result  # keep, but prove we observed it

    with inject_faults("codegen", corrupt=truncate) as inj:
        res = tx.llvm_identity("f", SIG, name="f2")
    assert inj.fired["codegen"] == 1
    assert seen == [res.addr]


def test_duplicate_stage_specs_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        FaultInjector(FaultSpec("lift"), FaultSpec("lift"))


def test_multi_stage_injection():
    prog, tx = _tx()
    with inject_faults(FaultSpec("lift"), FaultSpec("opt")) as inj:
        with pytest.raises(LiftError):
            tx.llvm_identity("f", SIG, name="f2")
    assert inj.fired == {"lift": 1, "opt": 0}
