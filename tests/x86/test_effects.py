"""``repro.x86.effects``: the facts, row by row, with the SDM reason.

The operand-dataflow rows ``dbrew/iinfo.py`` used to answer live on in
``tests/dbrew/test_iinfo.py`` (same test ids, now asserted on this record);
the rows here are what no table had before, or had wrong.  Whether the
record agrees with what the simulator *does* is
``test_effects_conformance.py``.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.x86.asmparser import parse_line
from repro.x86.decoder import decode_one
from repro.x86.effects import effects_of
from repro.x86.instr import Mem, gp, make

RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI = (("gp", i) for i in range(8))


def fx(line):
    return effects_of(parse_line(line))


# -- Fig. 4a: what a register write leaves behind -------------------------------


@pytest.mark.parametrize("line,merges", [
    ("mov al, 5", True),       # 8-bit: bits 8..63 stay
    ("mov ah, 5", True),       # high byte: everything else stays
    ("mov ax, 5", True),       # 16-bit: bits 16..63 stay
    ("mov eax, 5", False),     # 32-bit: the upper half is zeroed
    ("mov rax, 5", False),
    ("movsx ax, sil", True),
    ("movzx eax, sil", False),
    ("lea ax, [rdi]", True),
    ("setl al", True),
    ("pop rax", False),
])
def test_narrow_destination_is_also_read(line, merges):
    e = fx(line)
    assert RAX in e.writes
    assert (RAX in e.reads) == merges


def test_low_lane_xmm_writes_read_their_destination():
    assert ("xmm", 0) in fx("movsd xmm0, xmm1").reads       # merges lane 0
    assert ("xmm", 0) not in fx("movsd xmm0, [rdi]").reads  # load zero-extends
    assert ("xmm", 0) in fx("movlpd xmm0, [rdi]").reads
    assert ("xmm", 0) in fx("cvtsi2sd xmm0, rax").reads
    assert ("xmm", 0) not in fx("movq xmm0, rax").reads     # zero-extends
    assert ("xmm", 0) not in fx("pshufd xmm0, xmm1, 0x1b").reads
    assert ("xmm", 0) in fx("shufpd xmm0, xmm1, 1").reads


# -- implicit registers ----------------------------------------------------------


def test_widening_multiply_by_width():
    # r/m8: ax = al * src — rdx is not involved at all
    e = fx("mul sil")
    assert e.reads == {RAX, RSI} and e.writes == {RAX}
    # r/m16: dx:ax, both 16-bit writes, so both registers are merged into
    e = fx("mul si")
    assert e.writes == {RAX, RDX} and RDX in e.reads
    # r/m32 and r/m64: edx/rdx is replaced
    for line in ("mul esi", "mul rsi", "imul rsi"):
        e = fx(line)
        assert e.writes == {RAX, RDX} and e.reads == {RAX, RSI}


def test_divide_by_width():
    e = fx("div sil")  # al, ah = ax / src
    assert e.reads == {RAX, RSI} and e.writes == {RAX}
    e = fx("idiv qword ptr [rdi]")
    assert e.reads == {RAX, RDX, RDI} and e.writes == {RAX, RDX}
    assert e.mem_read and not e.mem_write  # the divisor is a source only


def test_imul_destination_by_operand_count():
    assert RBX in fx("imul rbx, rsi").reads
    assert RBX not in fx("imul rbx, rsi, 3").reads
    assert fx("imul rbx, rsi, 3").writes == {RBX}


def test_stack_instructions():
    e = fx("leave")  # rsp = rbp; pop rbp — the old rsp is dead
    assert e.reads == {RBP} and e.writes == {RSP, RBP} and e.mem_read
    e = fx("call 0x400100")
    assert e.reads == {RSP} and e.writes == {RSP} and e.mem_write
    e = fx("ret")
    assert e.reads == {RSP} and e.writes == {RSP} and e.mem_read


def test_cdq_writes_a_whole_register():
    e = fx("cdq")  # edx: a 32-bit write
    assert e.reads == {RAX} and e.writes == {RDX}


# -- memory ---------------------------------------------------------------------


@pytest.mark.parametrize("line,load,store", [
    ("cmp qword ptr [rdi], rax", True, False),
    ("test byte ptr [rdi], 1", True, False),
    ("mul qword ptr [rdi]", True, False),
    ("not qword ptr [rdi]", True, True),
    ("shl qword ptr [rdi], cl", True, True),
    ("movlpd [rdi], xmm0", False, True),
    ("movupd [rdi], xmm0", False, True),
    ("cmovl rax, [rdi]", True, False),
    ("ucomisd xmm0, [rdi]", True, False),
    ("push rax", False, True),
    ("pop rax", True, False),
    ("nop", False, False),
])
def test_memory_access(line, load, store):
    e = fx(line)
    assert (e.mem_read, e.mem_write) == (load, store)


def test_push_pop_through_memory():
    m64 = Mem(8, base=gp(7), disp=8)
    e = effects_of(make("push", m64))
    assert e.mem_read and e.mem_write and e.reads == {RSP, RDI}
    e = effects_of(make("pop", m64))
    assert e.mem_read and e.mem_write and e.writes == {RSP}


# -- the flag columns -------------------------------------------------------------


@pytest.mark.parametrize("line,defined,undefined", [
    ("add rax, rbx", "oszapc", ""),
    ("cmp rax, rbx", "oszapc", ""),
    ("neg rax", "oszapc", ""),
    ("inc rax", "oszap", ""),            # carry untouched
    ("and rax, rbx", "oszpc", "a"),
    ("test rax, rax", "oszpc", "a"),
    ("imul rax, rbx", "oc", "szap"),
    ("mul rbx", "oc", "szap"),
    ("idiv rbx", "", "oszapc"),
    ("div bl", "", "oszapc"),
    ("ucomisd xmm0, xmm1", "oszapc", ""),  # o/s/a are cleared
    ("comiss xmm0, xmm1", "oszapc", ""),
    ("not rax", "", ""),
    ("mov rax, rbx", "", ""),
    ("lea rax, [rdi]", "", ""),
    ("addsd xmm0, xmm1", "", ""),
    ("cmovl rax, rbx", "", ""),
    ("push rax", "", ""),
])
def test_flag_columns(line, defined, undefined):
    e = fx(line)
    assert set(e.flags_def) == set(defined)
    assert set(e.flags_undef) == set(undefined)
    assert e.count_mask == 0


@pytest.mark.parametrize("line,defined,undefined,mask", [
    ("shl rax, 0", "", "", 0),            # masked count 0: nothing happens
    ("shl eax, 32", "", "", 0),           # 32 & 31
    ("shl rax, 1", "oszpc", "a", 0),      # o is defined for a count of 1
    ("sar rax, 5", "szpc", "oa", 0),      # ... and undefined beyond
    ("shl rax, 32", "szpc", "oa", 0),     # 32 & 63
    ("rol rax, 1", "oc", "", 0),
    ("ror rax, 3", "c", "o", 0),
    ("shl rax, cl", "szpc", "oa", 63),    # only if cl & 63
    ("shr eax, cl", "szpc", "oa", 31),
    ("rol al, cl", "c", "o", 31),
    ("sar qword ptr [rdi], cl", "szpc", "oa", 63),
])
def test_shift_flags_by_count(line, defined, undefined, mask):
    e = fx(line)
    assert set(e.flags_def) == set(defined)
    assert set(e.flags_undef) == set(undefined)
    assert e.count_mask == mask


def test_flags_read():
    assert fx("sbb rax, rbx").flags_read == "c"
    assert set(fx("setle al").flags_read) == set("soz")
    assert set(fx("cmova rax, rbx").flags_read) == set("cz")
    assert fx("shl rax, cl").flags_read == ""


# -- control ----------------------------------------------------------------------


def test_control_class_condition_and_target():
    e = fx("jmp 0x400100")
    assert (e.control, e.cc, e.target) == ("jmp", None, 0x400100)
    e = fx("jnz 0x400100")  # alias: canonical code
    assert (e.control, e.cc, e.target) == ("jcc", "ne", 0x400100)
    e = fx("call 0x400100")
    assert (e.control, e.cc, e.target) == ("call", None, 0x400100)
    e = fx("ret")
    assert (e.control, e.cc, e.target) == ("ret", None, None)
    e = fx("setb al")
    assert (e.control, e.cc, e.target) == ("none", "b", None)
    e = fx("add rax, 0x400100")  # an immediate is a target only on a transfer
    assert (e.control, e.target) == ("none", None)


def test_indirect_transfers_have_no_target_and_read_their_operand():
    jmp = decode_one(bytes.fromhex("ffe0"), 0, 0x1000)   # jmp rax
    call = decode_one(bytes.fromhex("ff17"), 0, 0x1000)  # call [rdi]
    assert effects_of(jmp).target is None and RAX in effects_of(jmp).reads
    e = effects_of(call)
    assert e.control == "call" and e.target is None
    assert RDI in e.reads and e.mem_read and e.mem_write


# -- once per instruction ------------------------------------------------------------


def test_record_is_computed_once_and_is_not_part_of_the_instruction():
    ins = parse_line("add rax, [rdi]")
    assert effects_of(ins) is effects_of(ins)
    twin = parse_line("add rax, [rdi]")
    assert ins == twin and hash(ins) == hash(twin)  # before twin is analysed
    assert effects_of(twin) is effects_of(ins)      # equal records are shared
    assert "_effects" not in repr(ins)
    moved = dataclasses.replace(ins, addr=0x10)
    assert "_effects" not in moved.__dict__ and effects_of(moved) == effects_of(ins)
    for clone in (copy.deepcopy(ins), pickle.loads(pickle.dumps(ins))):
        assert clone == ins and effects_of(clone) == effects_of(ins)
