"""Unsupported constructs raise their specific error with populated context,
and the guard ladder degrades over each of them."""

import pytest

from repro.cpu.image import Image
from repro.errors import CodegenError, DecodeError, LiftError
from repro.guard import Budget, GateOptions, GuardedTransformer
from repro.ir import FLOAT, I64, Function, FunctionType, IRBuilder, Module
from repro.ir.codegen import JITEngine
from repro.ir.values import ConstantFP
from repro.lift import FunctionSignature, lift_function
from repro.x86.decoder import decode_one

SIG = FunctionSignature(("i",), "i")


def test_unknown_opcode_decode_error_context():
    # 0x06 (push es) does not exist in 64-bit mode
    with pytest.raises(DecodeError, match="unknown opcode") as ei:
        decode_one(b"\x06", 0, 0x400000)
    ctx = ei.value.context
    assert ctx["stage"] == "decode"
    assert ctx["addr"] == 0x400000
    assert ctx["data"] == b"\x06"


def test_truncated_instruction_decode_error_context():
    # REX.W + 81 /0 wants a ModRM byte and a 4-byte immediate
    with pytest.raises(DecodeError, match="truncated") as ei:
        decode_one(b"\x48\x81", 0, 0x400000)
    assert ei.value.context["stage"] == "decode"
    assert ei.value.context["addr"] == 0x400000


def test_decode_error_through_lift_keeps_decode_stage():
    img = Image()
    addr = img.add_function("u", b"\x06\xc3")
    with pytest.raises(DecodeError) as ei:
        lift_function(img.memory, addr, SIG)
    # innermost context wins: the decoder stamped stage/addr first
    assert ei.value.context["stage"] == "decode"
    assert ei.value.context["addr"] == addr


def test_unsupported_instruction_lift_error_context():
    # int3 decodes but has no lifting rule
    img = Image()
    addr = img.add_function("t", b"\xcc\xc3")
    with pytest.raises(LiftError, match="no lifting rule") as ei:
        lift_function(img.memory, addr, SIG)
    ctx = ei.value.context
    assert ctx["stage"] == "lift"
    assert ctx["addr"] == addr
    assert ctx["instruction"] == "int3"
    assert ctx["data"] == b"\xcc"


def test_declaration_codegen_error_context():
    m = Module("t")
    decl = Function("ext", FunctionType(I64, (I64,)))
    decl.is_declaration = True
    m.add_function(decl)
    with pytest.raises(CodegenError, match="declaration") as ei:
        JITEngine(Image()).compile_function(decl)
    assert ei.value.context["stage"] == "codegen"
    assert ei.value.context["function"] == "ext"


def test_unlowerable_type_codegen_error_context():
    # binary32 floats are outside the codegen subset
    m = Module("t")
    f = Function("f", FunctionType(FLOAT, ()))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.ret(ConstantFP(FLOAT, 0.0))
    with pytest.raises(CodegenError, match="binary32") as ei:
        JITEngine(Image()).compile_function(f)
    assert ei.value.context["stage"] == "codegen"
    assert ei.value.context["function"] == "f"


@pytest.mark.parametrize("name,code,stages", [
    ("unknown-opcode", b"\x06\xc3", {"decode", "rewrite"}),
    # a truncated function runs off its end into zero padding (which
    # decodes as `add [rax], al` forever): the budget is what stops it
    ("truncated", b"\x48\x81", {"decode", "lift", "rewrite"}),
    ("no-lift-rule", b"\xcc\xc3", {"lift", "rewrite"}),
])
def test_guard_degrades_over_unsupported_constructs(name, code, stages):
    img = Image()
    addr = img.add_function(name, code)
    g = GuardedTransformer(
        img, gate_options=GateOptions(samples=1, max_steps=1000),
        budget=Budget(max_lift_instructions=200, max_emulated=200,
                      max_trace_points=50))
    r = g.transform(name, SIG, {0: 1}, probes=[(2,)])
    assert r.addr == addr and r.mode == "original"
    assert r.attempts
    for attempt in r.attempts:
        assert attempt.context.get("stage") in stages
    assert g.stats.fallbacks == 1
