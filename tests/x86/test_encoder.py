"""Known-good byte encodings (ground truth from the Intel SDM)."""

import pytest

from repro.errors import EncodeError
from repro.x86.encoder import encode
from repro.x86.instr import Imm, Instruction, Mem, Reg, gp, make, xmm
from repro.x86.registers import RAX, RBP, RBX, RCX, RDI, RDX, RSI, RSP, R8, R9, R12, R13


def enc(mnemonic, *ops, addr=0):
    return encode(make(mnemonic, *ops), addr).hex()


def test_ret():
    assert enc("ret") == "c3"


def test_nop():
    assert enc("nop") == "90"


def test_mov_reg_reg_64():
    assert enc("mov", gp(RAX), gp(RDI)) == "4889f8"


def test_mov_reg_reg_32():
    assert enc("mov", gp(RAX, 4), gp(RDI, 4)) == "89f8"


def test_mov_rbp_rsp():
    assert enc("mov", gp(RBP), gp(RSP)) == "4889e5"


def test_push_pop_rbp():
    assert enc("push", gp(RBP)) == "55"
    assert enc("pop", gp(RBP)) == "5d"


def test_push_r12():
    assert enc("push", gp(R12)) == "4154"


def test_add_rax_imm8():
    assert enc("add", gp(RAX), Imm(1)) == "4883c001"


def test_add_rax_imm32():
    assert enc("add", gp(RAX), Imm(0x1000)) == "4881c000100000"


def test_add_ax_imm16():
    # 66 81 /0 iw: a 16-bit op carries a 2-byte immediate
    assert enc("add", gp(RAX, 2), Imm(0x1234)) == "6681c03412"
    with pytest.raises(EncodeError):
        enc("add", gp(RAX, 2), Imm(0x12345))


def test_sub_rsp_imm():
    assert enc("sub", gp(RSP), Imm(0x20)) == "4883ec20"


def test_xor_eax_eax():
    assert enc("xor", gp(RAX, 4), gp(RAX, 4)) == "31c0"


def test_cmp_rdi_rsi():
    assert enc("cmp", gp(RDI), gp(RSI)) == "4839f7"


def test_lea_disp8():
    assert enc("lea", gp(RAX), Mem(8, base=gp(RBP), disp=-0xC)) == "488d45f4"


def test_mov_load_base_index_scale():
    # mov rax, [rsi + 8*rcx]
    assert enc("mov", gp(RAX), Mem(8, base=gp(RSI), index=gp(RCX), scale=8)) == "488b04ce"


def test_mov_store_disp32():
    assert enc("mov", Mem(4, base=gp(RBP), disp=-0x100), gp(RAX, 4)) == "898500ffffff"


def test_mov_imm64():
    assert enc("mov", gp(RAX), Imm(0x123456789ABCDEF0)) == "48b8f0debc9a78563412"


def test_mov_imm32_sign_extended():
    assert enc("mov", gp(RAX), Imm(-1)) == "48c7c0ffffffff"


def test_rsp_base_needs_sib():
    assert enc("mov", gp(RAX), Mem(8, base=gp(RSP))) == "488b0424"


def test_rbp_base_needs_disp8():
    assert enc("mov", gp(RAX), Mem(8, base=gp(RBP))) == "488b4500"


def test_r13_base_needs_disp8():
    assert enc("mov", gp(RAX), Mem(8, base=gp(R13))) == "498b4500"


def test_absolute_addressing():
    # mov rax, [0x14c47d8] -> SIB base=101 index=100 mod=00 + disp32
    assert enc("mov", gp(RAX), Mem(8, disp=0x14C47D8)) == "488b0425d8474c01"


def test_riprel():
    # at addr=0x1000, len=7; target 0x2000 -> disp = 0x2000-0x1007 = 0xff9
    assert enc("mov", gp(RAX), Mem(8, disp=0x2000, riprel=True), addr=0x1000) == "488b05f90f0000"


def test_imul_three_operand():
    assert enc("imul", gp(RAX, 4), gp(RAX, 4), Imm(649)) == "69c089020000"


def test_imul_two_operand():
    assert enc("imul", gp(RAX), gp(RDX)) == "480fafc2"


def test_shl_imm():
    assert enc("shl", gp(RAX), Imm(3)) == "48c1e003"


def test_sar_by_one():
    assert enc("sar", gp(RAX), Imm(1)) == "48d1f8"


def test_movzx_byte():
    assert enc("movzx", gp(RAX, 4), Mem(1, base=gp(RAX))) == "0fb600"


def test_movsxd():
    assert enc("movsxd", gp(RAX), gp(RAX, 4)) == "4863c0"


def test_call_rel32():
    # call to 0x2000 from 0x1000: e8 + (0x2000 - 0x1005)
    assert enc("call", Imm(0x2000), addr=0x1000) == "e8fb0f0000"


def test_jmp_rel8():
    assert enc("jmp", Imm(0x1010), addr=0x1000) == "eb0e"


def test_jl_rel8_backward():
    assert enc("jl", Imm(0xFF0), addr=0x1000) == "7cee"


def test_jl_rel32():
    assert enc("jl", Imm(0x2000), addr=0x1000) == "0f8cfa0f0000"


def test_cmovl():
    assert enc("cmovl", gp(RAX), gp(RSI)) == "480f4cc6"


def test_sete():
    assert enc("sete", gp(RAX, 1)) == "0f94c0"


def test_movsd_load():
    assert enc("movsd", xmm(0), Mem(8, base=gp(RSI), index=gp(RAX), scale=8)) == "f20f1004c6"


def test_movsd_store():
    assert enc("movsd", Mem(8, base=gp(RDX), index=gp(RCX), scale=8), xmm(1)) == "f20f110cca"


def test_addsd_reg():
    assert enc("addsd", xmm(0), xmm(1)) == "f20f58c1"


def test_mulsd_absolute():
    assert enc("mulsd", xmm(0), Mem(8, disp=0x14C47D8)) == "f20f590425d8474c01"


def test_pxor():
    assert enc("pxor", xmm(1), xmm(1)) == "660fefc9"


def test_movq_xmm_to_gp():
    assert enc("movq", gp(RAX), xmm(0)) == "66480f7ec0"


def test_movq_gp_to_xmm():
    assert enc("movq", xmm(3), gp(RCX)) == "66480f6ed9"


def test_movapd_load():
    assert enc("movapd", xmm(2), Mem(16, base=gp(RSP))) == "660f281424"


def test_movupd_store():
    assert enc("movupd", Mem(16, base=gp(RSP)), xmm(2)) == "660f111424"


def test_addpd():
    assert enc("addpd", xmm(2), xmm(3)) == "660f58d3"


def test_cvtsi2sd_from_r64():
    assert enc("cvtsi2sd", xmm(0), gp(RAX)) == "f2480f2ac0"


def test_cvttsd2si_to_r64():
    assert enc("cvttsd2si", gp(RCX), xmm(0)) == "f2480f2cc8"


def test_ucomisd():
    assert enc("ucomisd", xmm(0), xmm(1)) == "660f2ec1"


def test_extended_regs_rex():
    assert enc("mov", gp(R8), gp(R9)) == "4d89c8"
    assert enc("add", gp(RAX), gp(R8)) == "4c01c0"


def test_byte_reg_spl_needs_rex():
    assert enc("mov", gp(RSP, 1), Imm(0)) == "40c6c400"


def test_high8_register():
    assert enc("mov", gp(RAX, 1, high8=True), Imm(1)) == "c6c401"


def test_indirect_jump_rejected():
    with pytest.raises(EncodeError):
        encode(make("jmp", gp(RAX)))


def test_branch_out_of_range():
    with pytest.raises(EncodeError):
        encode(make("jl", Imm(0x1_0000_0000)), 0)
