"""The dataflow facts DBrew's emulate-or-emit decision rests on, asserted
on the one record (``repro.x86.effects``) that replaced ``dbrew/iinfo.py``.
The facts the old module never had — the flag columns, Fig. 4a on implicit
registers, control class and target — are in ``tests/x86/test_effects.py``.
"""

from repro.x86.asmparser import parse_line
from repro.x86.effects import effects_of


def facts(line):
    return effects_of(parse_line(line))


def test_mov_reg_reg():
    i = facts("mov rax, rbx")
    assert i.reads == {("gp", 3)}
    assert i.writes == {("gp", 0)}
    assert not i.mem_read and not i.mem_write


def test_add_is_rmw():
    i = facts("add rax, rbx")
    assert ("gp", 0) in i.reads and ("gp", 0) in i.writes
    assert "z" in i.flags_def


def test_cmp_reads_both_writes_none():
    i = facts("cmp rax, rbx")
    assert i.reads == {("gp", 0), ("gp", 3)}
    assert i.writes == set()


def test_load_reads_address_registers():
    i = facts("mov rax, [rsi + 8*rcx]")
    assert ("gp", 6) in i.reads and ("gp", 1) in i.reads
    assert i.mem_read and not i.mem_write
    assert i.writes == {("gp", 0)}


def test_store_dst_memory():
    i = facts("mov [rdi], rax")
    assert i.mem_write and not i.mem_read
    assert ("gp", 7) in i.reads and ("gp", 0) in i.reads


def test_rmw_memory_dst():
    i = facts("add qword ptr [rdi], rax")
    assert i.mem_read and i.mem_write


def test_lea_is_not_a_memory_access():
    i = facts("lea rax, [rsi + 8*rcx]")
    assert not i.mem_read and not i.mem_write
    assert ("gp", 6) in i.reads


def test_movsd_load_form_is_write_only():
    i = facts("movsd xmm0, [rdi]")
    assert ("xmm", 0) in i.writes
    assert ("xmm", 0) not in i.reads


def test_addsd_merges_dst():
    i = facts("addsd xmm0, xmm1")
    assert ("xmm", 0) in i.reads and ("xmm", 0) in i.writes
    assert ("xmm", 1) in i.reads


def test_cmov_reads_dst_and_flags():
    i = facts("cmovl rax, rbx")
    assert ("gp", 0) in i.reads
    assert i.flags_read == "so"


def test_cqo_implicit_regs():
    i = facts("cqo")
    assert i.reads == {("gp", 0)}
    assert i.writes == {("gp", 2)}


def test_idiv_implicit_regs():
    i = facts("idiv rbx")
    assert i.reads == {("gp", 0), ("gp", 2), ("gp", 3)}
    # SDM: the divisor is a source only (the old row allowed it as a write)
    assert i.writes == {("gp", 0), ("gp", 2)}


def test_push_touches_stack():
    i = facts("push rbx")
    assert ("gp", 4) in i.reads and ("gp", 4) in i.writes
    assert i.mem_write


def test_setcc_writes_only():
    # SDM: setcc writes one byte.  Into memory that is the whole effect;
    # into ``al`` the other 56 bits of rax stay, so the register is an
    # input too (Fig. 4a) — the old row said "not read", which is how DBrew
    # came to return 0x1 for 0x1122334455667701
    i = facts("sete al")
    assert ("gp", 0) in i.writes and ("gp", 0) in i.reads
    assert i.flags_read == "z"
    m = facts("sete byte ptr [rdi]")
    assert m.mem_write and not m.mem_read and m.writes == set()


def test_ucomisd_reads_only_flags_out():
    i = facts("ucomisd xmm0, xmm1")
    assert ("xmm", 0) in i.reads and ("xmm", 1) in i.reads
    assert i.writes == set()
    # SDM: z/p/c from the compare, o/s/a cleared — all six defined (the old
    # table had "zpc", so a stale SF survived a ucomisd)
    assert set(i.flags_def) == set("oszapc") and i.flags_undef == ""
