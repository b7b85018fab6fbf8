"""Decoder edge cases: forms our encoder never emits, and rejection paths."""

import pytest

from repro.errors import DecodeError
from repro.x86.asmparser import parse_line
from repro.x86.decoder import decode_one
from repro.x86.effects import effects_of
from repro.x86.instr import Imm, Mem, Reg
from repro.x86.isa import (
    CC_FLAGS_READ, CC_NAMES, canonical_cc, cc_of, control_class,
)


def d(hexstr, addr=0x1000):
    return decode_one(bytes.fromhex(hexstr), 0, addr)


def test_decode_mov_imm8_short_form():
    # B0+r: mov al, 0x7f  (encoder uses C6; decoder must still accept B0)
    ins = d("b07f")
    assert ins.mnemonic == "mov"
    assert ins.operands[0].name == "al"
    assert ins.operands[1].value == 0x7F


def test_decode_high_byte_without_rex():
    # 88 e1: mov cl, ah
    ins = d("88e1")
    assert ins.operands[1].high8 and ins.operands[1].name == "ah"


def test_decode_spl_with_rex():
    # 40 88 e1: mov cl, spl (REX flips ah -> spl)
    ins = d("4088e1")
    assert ins.operands[1].name == "spl"


def test_decode_alu_accumulator_forms():
    # 04 05: add al, 5 ; 48 3d ff 0f 00 00: cmp rax, 0xfff
    ins = d("0405")
    assert ins.mnemonic == "add" and ins.operands[0].name == "al"
    ins = d("483dff0f0000")
    assert ins.mnemonic == "cmp" and ins.operands[1].value == 0xFFF


def test_decode_shift_by_one_and_cl():
    assert d("48d1e0").operands[1].value == 1  # shl rax, 1
    ins = d("48d3e0")  # shl rax, cl
    assert isinstance(ins.operands[1], Reg) and ins.operands[1].name == "cl"


def test_decode_test_f7():
    ins = d("48f7c044000000")  # test rax, 0x44
    assert ins.mnemonic == "test" and ins.operands[1].value == 0x44


def test_decode_multibyte_nop():
    ins = d("0f1f4000")  # nop dword [rax+0]
    assert ins.mnemonic == "nop"
    assert ins.length == 4


def test_decode_sib_index_none_with_rexx_present():
    # REX.X promotes index bits; index=100b without REX.X means none
    ins = d("488b0425d8474c01")  # mov rax, [0x14c47d8]
    mem = ins.operands[1]
    assert mem.is_absolute and mem.disp == 0x14C47D8


def test_decode_r12_base_sib():
    ins = d("498b0424")  # mov rax, [r12]
    assert ins.operands[1].base.name == "r12"


def test_decode_rbp_r13_disp0():
    assert d("488b4500").operands[1].base.name == "rbp"
    assert d("498b4500").operands[1].base.name == "r13"


def test_decode_truncated_raises():
    with pytest.raises(DecodeError):
        d("48")
    with pytest.raises(DecodeError):
        d("488b")


def test_decode_unknown_opcode_raises():
    with pytest.raises(DecodeError):
        d("0fff")


def test_decode_movq_all_three_encodings():
    assert d("66480f7ec0").mnemonic == "movq"   # movq rax, xmm0
    assert d("66480f6ec0").mnemonic == "movq"   # movq xmm0, rax
    assert d("f30f7ec1").mnemonic == "movq"     # movq xmm0, xmm1
    assert d("660fd6c8").mnemonic == "movq"     # movq xmm0, xmm1 (store form)


def test_decode_indirect_forms_exposed():
    assert d("ffe0").mnemonic == "jmp"  # jmp rax
    assert isinstance(d("ffe0").operands[0], Reg)
    assert d("ffd0").mnemonic == "call"  # call rax


def test_riprel_target_is_absolute():
    # mov rax, [rip+0x10] at 0x1000, len 7 -> target 0x1017
    ins = d("488b0510000000")
    assert ins.operands[1].riprel
    assert ins.operands[1].disp == 0x1000 + 7 + 0x10


# -- isa metadata --------------------------------------------------------------


def test_cc_canonicalization():
    assert canonical_cc("z") == "e"
    assert canonical_cc("nae") == "b"
    assert canonical_cc("l") == "l"
    assert canonical_cc("bogus") is None


def test_cc_of_mnemonics():
    assert cc_of("jle") == "le"
    assert cc_of("cmovnz") == "ne"
    assert cc_of("setb") == "b"
    assert cc_of("jmp") is None
    assert cc_of("mov") is None


def fx(line):
    return effects_of(parse_line(line))


def test_flags_metadata():
    assert set(fx("add rax, rbx").flags_def) == set("oszapc")
    inc = fx("inc rax")
    assert "c" not in inc.flags_def + inc.flags_undef
    assert fx("jl 0x10").flags_read == "so"
    assert fx("adc rax, rbx").flags_read == "c"
    assert fx("mov rax, rbx").flags_read == ""


def test_control_classification():
    assert control_class("jmp") == "jmp"
    assert control_class("jne") == "jcc"
    assert control_class("call") == "call"
    assert control_class("ret") == "ret"
    assert control_class("add") == "none"
    assert fx("je 0x10").control == "jcc"
    assert fx("cmovle rax, rbx").control == "none"


def test_every_cc_has_flag_reads():
    for cc in CC_NAMES:
        assert CC_FLAGS_READ[cc]
