"""A known source register of ``op reg, reg`` is emitted as an immediate.

For the eight ALU forms whose flags and result do not care whether the
source is a register or an immediate of the same value, DBrew emits the
known source as an imm instead of materialising it first.  Every case runs
the original and the rewritten function on the simulator and compares the
result and the flags a following ``setcc``/``jcc``/``cmov`` reads.  A value
an imm32 cannot carry, and a pointer into the virtual stack, are still
materialised into the register.
"""

import pytest

from repro.cpu import Image, Simulator
from repro.dbrew import Rewriter
from repro.x86 import parse_asm
from repro.x86.asm import assemble
from repro.x86.decoder import decode_block
from repro.x86.instr import Imm, Reg

MNEMONICS = ("add", "sub", "and", "or", "xor", "cmp", "adc", "sbb")
#: one condition per flag (and three that combine them)
CONDITIONS = ("o", "s", "e", "b", "p", "be", "l", "le")
#: how the flags are read: each leaves 0 or 1 in ecx
READERS = {
    "setcc": "set{cc} cl\nmovzx ecx, cl",
    "jcc": "j{cc} T\nmov ecx, 0\njmp D\nT:\nmov ecx, 1\nD:",
    "cmov": "mov ecx, 0\nmov r9d, 1\ncmov{cc} ecx, r9d",
}
_M = (1 << 64) - 1
#: (rdi, rdx): the unknown destination and the operand of the cmp that
#: leaves a run-time carry for adc/sbb
PROBES = [(0, 0), (5, 9), (9, 5), (-1 & _M, 0), (1 << 63, 1),
          ((1 << 63) - 1, (1 << 63) - 1), (0x80000000, 3), (-7 & _M, -7 & _M)]


def _function(body: str):
    img = Image()
    code, _ = assemble(parse_asm(body), base=img.next_code_addr())
    img.add_function("f", code)
    return img, Simulator(img)


def _rewrite(img: Image, known: int) -> list:
    """Rewrite ``f(rdi, rsi, rdx)`` with rsi fixed; the emitted code."""
    rw = Rewriter(img, "f").set_signature(("i", "i", "i")).set_par(1, known)
    addr = rw.rewrite(name="f.rw")
    assert rw.last_error is None and addr != img.symbol("f")
    size = img.func_sizes["f.rw"]
    return decode_block(img.memory.read(addr, size), addr, size,
                        base_addr=addr)


def _alu(emitted: list, mnemonic: str):
    (ins,) = [i for i in emitted if i.mnemonic == mnemonic
              and isinstance(i.operands[0], Reg)
              and i.operands[0].index == 0]  # the op on rax
    return ins


def _same_results(sim: Simulator, known: int) -> None:
    for rdi, rdx in PROBES:
        args = (rdi, known & _M, rdx)
        assert sim.call("f.rw", args).rax == sim.call("f", args).rax, args


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("mnemonic", MNEMONICS)
def test_a_known_source_becomes_an_immediate(mnemonic, reader):
    for cc in CONDITIONS:
        img, sim = _function(
            f"mov rax, rdi\ncmp rdi, rdx\n{mnemonic} rax, rsi\n"
            + READERS[reader].format(cc=cc)
            + "\nlea rax, [rcx + rax*2]\nret")
        for known in (5, -7, 0x7FFFFFFF, -(1 << 31)):
            emitted = _rewrite(img, known)
            ins = _alu(emitted, mnemonic)
            assert ins.operands[1] == Imm(known), (cc, known)
            _same_results(sim, known)


@pytest.mark.parametrize("dst,src,known", [
    ("eax", "esi", 0x80000000),   # the imm32 of a 32-bit op needs no sign
    ("ax", "si", 0xFFFF),         # a 16-bit op takes an imm16
    ("ax", "si", 0x1234),
    ("al", "sil", 0xF0),
])
def test_narrow_sources_fold_at_their_width(dst, src, known):
    for mnemonic in MNEMONICS:
        img, sim = _function(
            f"mov rax, rdi\ncmp rdi, rdx\n{mnemonic} {dst}, {src}\n"
            "setb cl\nseto dl\nsets r8b\nadd cl, dl\nadd cl, r8b\n"
            "movzx ecx, cl\nlea rax, [rcx + rax*4]\nret")
        emitted = _rewrite(img, known)
        assert isinstance(_alu(emitted, mnemonic).operands[1], Imm)
        _same_results(sim, known)


@pytest.mark.parametrize("known", [0x80000000, 1 << 40, -(1 << 31) - 1])
def test_a_value_beyond_imm32_is_materialised(known):
    for mnemonic in MNEMONICS:
        img, sim = _function(f"mov rax, rdi\ncmp rdi, rdx\n{mnemonic} rax, rsi\n"
                             "setl cl\nmovzx ecx, cl\n"
                             "lea rax, [rcx + rax*2]\nret")
        emitted = _rewrite(img, known)
        assert _alu(emitted, mnemonic).operands[1] == Reg("gp", 6, 8)
        assert any(i.mnemonic == "mov" and i.operands[0] == Reg("gp", 6, 8)
                   and i.operands[1] == Imm(known) for i in emitted)
        _same_results(sim, known)


def test_a_stack_address_is_materialised():
    """A pointer into the frame has no rewrite-time value: it is formed
    rsp-relative at run time and the add keeps its register."""
    img, sim = _function("""
        sub rsp, 32
        mov [rsp], rdx
        lea r8, [rdx+1]
        mov [rsp+8], r8
        mov rax, rdi
        and rax, 1
        shl rax, 3
        lea rcx, [rsp]
        add rax, rcx
        mov rax, [rax]
        add rsp, 32
        ret
    """)
    emitted = _rewrite(img, 11)
    add = _alu(emitted, "add")
    assert add.operands[1] == Reg("gp", 1, 8)
    assert any(i.mnemonic == "lea" and i.operands[0] == Reg("gp", 1, 8)
               for i in emitted)
    for rdi in (0, 1, 2, 7):
        args = (rdi, 11, 42)
        assert sim.call("f.rw", args).rax == sim.call("f", args).rax == \
            42 + rdi % 2
