"""Known stack slots that an access DBrew cannot place may alias.

DBrew keeps a stack slot's known value in its meta-state and writes it to
the run-time stack only when emitted code may read it (a flush).  An access
whose address is not known at rewrite time can still land on the stack:
off the stack pointer with a run-time index, or through a register that
holds a stack address the emitted code computed (``lea rcx, [rsp]``, then
arithmetic DBrew does not follow).  Such a read must find every known slot
in memory, and after such a write no slot may still be believed known.

Every case runs the rewrite first, on a fresh image and ``Simulator``, so
no stack memory the original left behind can stand in for a slot the
rewrite failed to write.
"""

import pytest

from repro.cpu import Image, Simulator
from repro.dbrew import Rewriter
from repro.x86 import parse_asm
from repro.x86.asm import assemble

#: ``f(rdi, rsi, rdx)`` with ``rsi`` fixed: ``[rsp]`` holds ``rsi``, and
#: ``rdi & 1`` picks ``[rsp]`` or ``[rsp + 8]`` at run time
_PICK = "sub rsp, 16\nmov [rsp], rsi\nmov rax, rdi\nand rax, 1\n"
_ESCAPE = "shl rax, 3\nlea rcx, [rsp]\nadd rax, rcx\n"
_DONE = "add rsp, 16\nret"
CASES = {
    "read through an escaped pointer":
        _PICK + _ESCAPE + "mov rax, [rax]\n" + _DONE,
    "write through an escaped pointer":
        _PICK + _ESCAPE + "mov [rax], rdx\nmov rax, [rsp]\n" + _DONE,
    "read through a lea at a run-time index":
        _PICK + "lea rcx, [rsp + rax*8]\nmov rax, [rcx]\n" + _DONE,
    "read at a stack index off a run-time base":
        _PICK + "lea rcx, [rsp]\nshl rax, 3\nmov rax, [rax + rcx]\n" + _DONE,
    "read at a run-time index off rsp":
        _PICK + "mov rax, [rsp + rax*8]\n" + _DONE,
    "write at a run-time index off rsp":
        _PICK + "mov [rsp + rax*8], rdx\nmov rax, [rsp]\n" + _DONE,
    "write of part of a known slot":
        _PICK + "mov dword ptr [rsp], edi\nmov rax, [rsp]\n" + _DONE,
}
FIXED = 0x5_0000_000B


def _results(body: str, rdi: int) -> tuple[int, int]:
    """(rewritten, original) result of ``f(rdi, FIXED, 22)``, each on a
    fresh image, the rewrite first."""
    img = Image()
    code, _ = assemble(parse_asm(body), base=img.next_code_addr())
    img.add_function("f", code)
    rw = Rewriter(img, "f").set_signature(("i", "i", "i")).set_par(1, FIXED)
    addr = rw.rewrite(name="f.rw")
    assert rw.last_error is None and addr != img.symbol("f")
    got = Simulator(img).call(addr, (rdi, FIXED, 22)).rax
    ref = Image()
    ref.add_function("f", code)
    return got, Simulator(ref).call("f", (rdi, FIXED, 22)).rax


@pytest.mark.parametrize("rdi", [0, 1, 7])
@pytest.mark.parametrize("case", CASES)
def test_a_known_slot_is_in_memory_where_the_access_may_land(case, rdi):
    got, want = _results(CASES[case], rdi)
    assert got == want


def test_the_escaped_read_returns_the_fixed_value():
    """The reported case: ``rdi = 0`` reads the slot holding ``rsi``."""
    assert _results(CASES["read through an escaped pointer"], 0) \
        == (FIXED, FIXED)



def test_a_pointer_a_callee_hands_back_reads_what_dbrew_stored():
    """``g`` is called, not inlined: it gets a stack address and returns
    it, and the slot DBrew then stores 11 into is read through it."""
    img = Image()
    code, _ = assemble(parse_asm(
        "sub rsp, 16\nlea rdi, [rsp]\ncall g\nmov qword ptr [rsp], 11\n"
        "mov rax, [rax]\n" + _DONE + "\ng:\nmov rax, rdi\nret"),
        base=img.next_code_addr())
    img.add_function("f", code)
    rw = Rewriter(img, "f").set_signature(("i",)).set_inline_depth(0)
    addr = rw.rewrite(name="f.rw")
    assert rw.last_error is None
    assert Simulator(img).call(addr, (0,)).rax == 11
