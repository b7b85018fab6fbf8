"""The simulator's block memo: a compiled block is served by its bytes.

A block table keyed by ``Image.instance_token()`` is only the index: on a
table miss ``Simulator.call`` looks the block up by ``(rip, cost model)``
in one process-wide memo and serves it only if the image's memory holds
now the bytes of every straight piece the block was decoded from.  So an
install that moves the token re-binds nothing it did not change, and a
fresh image with the same code at the same address binds nothing at all,
while a patch anywhere in a block — its chained part included — is run
as new code.
"""

from __future__ import annotations

import pytest

from repro.cpu import CostModel, HASWELL, Image, Simulator
from repro.cpu import simulator
from repro.cpu.simulator import _table_for
from repro.x86 import parse_asm
from repro.x86.asm import assemble_full
from repro.x86.decoder import decode_one

#: one block of two straight pieces: the ``jmp`` chains over the padding
CHAINED = """
    mov eax, 1
    add rax, rdi
    jmp there
    nop
    nop
    nop
    nop
there:
    add rax, 0x1000
    imul rax, rsi
    ret
"""
LOOP = """
    xor eax, eax
top:
    add rax, rdi
    sub rsi, 1
    jg top
    ret
"""
#: a store (``push``) and loads (``mov``, ``pop``, ``ret``)
STACK = """
    push rdi
    mov rax, [rsp]
    pop rcx
    add rax, rcx
    ret
"""


@pytest.fixture
def memo(monkeypatch) -> dict:
    """A fresh, empty memo for one test."""
    fresh: dict = {}
    monkeypatch.setattr(simulator, "_BLOCK_MEMO", fresh)
    return fresh


def _decodes(monkeypatch) -> list[int]:
    """The addresses the simulator decodes from now on."""
    seen: list[int] = []

    def counting_decode(window, offset, addr):
        seen.append(addr)
        return decode_one(window, offset, addr)
    monkeypatch.setattr(simulator, "decode_one", counting_decode)
    return seen


def _image(src: str = CHAINED) -> tuple[Image, dict[str, int]]:
    img = Image()
    base = img.next_code_addr()
    code, _, labels = assemble_full(parse_asm(src), base)
    assert img.add_function("f", code) == base
    return img, {"f": base, **labels}


def _block(img: Image, addr: int, costs: CostModel = HASWELL):
    return _table_for(img.instance_token(), costs)[addr]


def test_a_patch_in_the_chained_piece_runs_as_new_code(memo):
    img, at = _image()
    sim = Simulator(img)
    assert sim.call_int("f", (2, 3)) == (1 + 2 + 0x1000) * 3
    old = _block(img, at["f"])
    (_, blk), = memo.values()
    assert blk is old and [a for a, _ in blk.code] == [at["f"], at["there"]]
    # ``add rax, imm32`` is 48 81 c0 imm32: the immediate starts at there + 3
    img.patch_code(at["there"] + 3, (0x20).to_bytes(4, "little"))
    assert sim.call_int("f", (2, 3)) == (1 + 2 + 0x20) * 3
    assert _block(img, at["f"]) is not old


def test_a_raw_write_runs_after_invalidate_code(memo):
    img, at = _image()
    sim = Simulator(img)
    assert sim.call_int("f", (2, 3)) == 0x1003 * 3
    img.memory.write(at["there"] + 3, (0x20).to_bytes(4, "little"))
    sim.invalidate_code()
    assert sim.call_int("f", (2, 3)) == 0x23 * 3


def test_an_install_keeps_the_blocks_it_did_not_touch(memo, monkeypatch):
    img, at = _image(LOOP)
    sim = Simulator(img)
    first = sim.call("f", (5, 4))
    blocks = {a: _block(img, a) for a in (at["f"], at["top"])}
    decoded = _decodes(monkeypatch)
    img.add_function("g", b"\xc3")  # moves the token
    assert sim.call("f", (5, 4)) == first
    assert decoded == []
    assert {a: _block(img, a) for a in blocks} == blocks


def test_equal_bytes_at_one_address_share_the_block(memo, monkeypatch):
    one, at = _image()
    two, at2 = _image()
    assert at == at2 and one.instance_token() != two.instance_token()
    Simulator(one).call("f", (2, 3))
    decoded = _decodes(monkeypatch)
    Simulator(two).call("f", (2, 3))
    assert decoded == []
    assert _block(two, at["f"]) is _block(one, at["f"])


def test_other_bytes_never_share_a_block(memo):
    one, at = _image()
    two, _ = _image(CHAINED.replace("0x1000", "0x30"))
    sim1, sim2 = Simulator(one), Simulator(two)
    assert sim1.call_int("f", (2, 3)) == 0x1003 * 3
    assert sim2.call_int("f", (2, 3)) == 0x33 * 3
    assert _block(two, at["f"]) is not _block(one, at["f"])
    # the entry now holds the second image's bytes: the first compiles again
    assert sim1.call_int("f", (2, 3)) == 0x1003 * 3


def test_cost_models_never_share_a_block(memo):
    img, at = _image()
    pricey = CostModel().with_base({"imul": 100})
    cheap = Simulator(img).call("f", (2, 3))
    dear = Simulator(img, pricey).call("f", (2, 3))
    assert dear.rax == cheap.rax
    assert dear.stats.cycles > cheap.stats.cycles
    assert _block(img, at["f"], pricey) is not _block(img, at["f"])
    assert len(memo) == 2


def test_the_memo_keeps_to_its_cap_oldest_out_first(memo, monkeypatch):
    monkeypatch.setattr(simulator, "_BLOCK_MEMO_MAX", 3)
    img = Image()
    rets = [img.add_function(f"r{k}", b"\xc3") for k in range(5)]
    sim = Simulator(img)
    for k, addr in enumerate(rets):
        sim.call(addr)
        assert len(memo) == min(k + 1, 3)
    assert [rip for rip, _ in memo] == rets[2:]


@pytest.mark.parametrize("src, args", [
    (CHAINED, (2, 3)), (LOOP, (5, 40)), (STACK, (7,))],
    ids=["chained", "loop", "stack"])
def test_a_memo_hit_counts_what_a_compile_counts(src, args, memo):
    compiled = Simulator(_image(src)[0]).call("f", args)
    assert memo
    served = Simulator(_image(src)[0]).call("f", args)
    memo.clear()
    again = Simulator(_image(src)[0]).call("f", args)
    for res in (served, again):
        assert (res.rax, res.stats) == (compiled.rax, compiled.stats)
    stats = compiled.stats
    assert stats.instructions and stats.cycles and stats.per_mnemonic
    assert stats.loads and (stats.stores or src is not STACK)
