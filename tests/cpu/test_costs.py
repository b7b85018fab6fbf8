"""Cost model unit tests.

An instruction's static cost is ``CostModel.static_cost``; the taken-branch
and unaligned-16-byte penalties are events the simulator counts and prices
when a call settles, so those rules are checked through ``Simulator.call``.
"""

import pytest

from repro.cpu import Image, Simulator
from repro.cpu.costs import HASWELL
from repro.x86 import parse_asm
from repro.x86.asm import assemble
from repro.x86.instr import Mem, gp, make, xmm


def cost(model, mnemonic, *ops):
    return model.static_cost(make(mnemonic, *ops))


def cycles(src: str, offset: int = 0, arg: int = 0) -> float:
    """Simulated cycles of one call of ``src``, with ``rdi`` pointing
    ``offset`` bytes into a 16-byte-aligned buffer and ``arg`` in
    ``rsi``."""
    img = Image()
    data = img.alloc_data(64, align=16)
    addr = img.add_function("f", assemble(
        parse_asm(src), base=img.next_code_addr())[0])
    return Simulator(img).call(addr, (data + offset, arg)).stats.cycles


def static(*lines: str) -> float:
    """The static costs of ``lines`` (each one instruction), summed."""
    return sum(HASWELL.static_cost(assemble(parse_asm(line))[1][0])
               for line in lines)


def test_simple_alu_is_one_cycle():
    assert cost(HASWELL, "add", gp(0), gp(1)) == 1.0
    assert cost(HASWELL, "lea", gp(0), Mem(8, base=gp(1))) == 1.0  # no load


def test_load_penalty_applies():
    plain = cost(HASWELL, "mov", gp(0), gp(1))
    load = cost(HASWELL, "mov", gp(0), Mem(8, base=gp(1)))
    assert load == plain + HASWELL.load_penalty


def test_store_cheaper_than_load():
    load = cost(HASWELL, "mov", gp(0), Mem(8, base=gp(1)))
    store = cost(HASWELL, "mov", Mem(8, base=gp(1)), gp(0))
    assert store < load


def test_taken_branch_costs_more():
    # ``jl`` falls into ``ret`` either way: only whether it is taken differs
    src = "cmp rsi, 1\njl done\ndone:\nret"
    nt = cycles(src, arg=5)
    t = cycles(src, arg=0)
    assert nt == static("cmp rsi, 1", "jl 0", "ret")
    assert t == nt + HASWELL.taken_branch_penalty


def test_unconditional_jump_has_no_taken_penalty():
    assert cycles("jmp done\ndone:\nret") == static("jmp 0", "ret")


def test_unaligned_16b_penalty():
    aligned = cycles("movupd xmm0, [rdi]\nret", offset=0)
    unaligned = cycles("movupd xmm0, [rdi]\nret", offset=8)
    assert aligned == static("movupd xmm0, [rdi]", "ret")
    assert unaligned == aligned + HASWELL.unaligned16_penalty


def test_scalar_8b_has_no_alignment_penalty():
    a = cycles("movsd xmm0, [rdi]\nret", offset=4)
    b = cycles("movsd xmm0, [rdi]\nret", offset=0)
    assert a == b


def test_divide_much_slower_than_multiply():
    assert cost(HASWELL, "divsd", xmm(0), xmm(1)) > 3 * cost(HASWELL, "mulsd", xmm(0), xmm(1))


def test_packed_same_cost_as_scalar():
    # throughput model: packed does 2x work for the same cost
    assert cost(HASWELL, "addpd", xmm(0), xmm(1)) == cost(HASWELL, "addsd", xmm(0), xmm(1))


def test_with_overrides_immutable():
    slow = HASWELL.with_overrides(load_penalty=10.0)
    assert slow.load_penalty == 10.0
    assert HASWELL.load_penalty == 3.0
    assert slow.base is not None


def test_with_base_merges():
    m = HASWELL.with_base({"addsd": 99})
    assert m.base["addsd"] == 99
    assert m.base["mulsd"] == HASWELL.base["mulsd"]
    assert HASWELL.base["addsd"] != 99


def test_unknown_mnemonic_defaults_to_one():
    assert cost(HASWELL, "frobnicate") == 1.0


def test_cycles_to_seconds_calibration():
    secs = HASWELL.cycles_to_seconds(3.5e9 * HASWELL.effective_parallelism)
    assert secs == pytest.approx(1.0)
