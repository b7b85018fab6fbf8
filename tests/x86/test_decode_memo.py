"""One decode memo for every reader of machine code.

:func:`repro.x86.decoder.decode_one` keeps one ``Instruction`` per
``(addr, the first 15 bytes at it)`` in the process, so DBrew, the lifter,
the machine verifier's ``build_mcfg`` and the simulator's block compile
share what they decode, and with it the effects record ``effects_of``
keeps on the instance.  A decode reads nothing else: branch and
RIP-relative operands come out as absolute addresses, and no instruction
is longer than 15 bytes.  A patched byte keys a new entry, and a decode
error is never stored.  The memo is bounded, and evicts first-in
first-out under a lock.

Four mutants of the memo each fail a case here: a key without ``addr``,
a key of 8 bytes, eviction without the lock, and the 15-byte refusal
removed.
"""

from __future__ import annotations

import importlib
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.analysis.machine.mcfg import build_mcfg
from repro.cpu import simulator
from repro.cpu.costs import HASWELL
from repro.cpu.image import Image
from repro.dbrew import Rewriter
from repro.errors import DecodeError
from repro.lift.blocks import discover
from repro.obs import REGISTRY
from repro.x86 import decoder
from repro.x86.decoder import decode_one

READERS = ("repro.lift.blocks", "repro.analysis.machine.mcfg",
           "repro.cpu.simulator", "repro.dbrew.rewriter")

#: ``mov rax, rdi; cmp rdi, rsi; jl L; add rax, rsi; L: ret``, padded with
#: ``int3`` so that every reader sees the same 15 bytes at each instruction
BODY = bytes.fromhex("4889f8" "4839f7" "7c03" "4801f0" "c3")
CODE = BODY + b"\xcc" * 15


@pytest.fixture
def seen(monkeypatch):
    """``{reader: {addr: instruction}}`` of every decode a reader makes."""
    out: dict[str, dict[int, object]] = {}
    for name in READERS:
        module = importlib.import_module(name)

        def record(code, offset=0, addr=0, _real=module.decode_one,
                   _into=out.setdefault(name, {})):
            ins = _into[addr] = _real(code, offset, addr)
            return ins
        monkeypatch.setattr(module, "decode_one", record)
    return out


def test_the_four_readers_share_one_instruction_per_address(seen):
    img = Image()
    entry = img.add_function("f", CODE)
    discover(img.memory, entry)
    build_mcfg(SimpleNamespace(name="f", code=CODE, base=entry, entry=entry,
                               end=entry + len(CODE), block_addrs={}))
    simulator._compile_block(img.memory, entry, HASWELL)
    rw = Rewriter(img, "f").set_signature(("i", "i"))
    assert rw.rewrite(name="f_rw") != entry and rw.last_error is None

    starts = {entry + k for k in (0, 3, 6, 8, 11)}
    lift, mcfg = seen["repro.lift.blocks"], seen["repro.analysis.machine.mcfg"]
    assert set(lift) == set(mcfg) == starts
    assert seen["repro.cpu.simulator"] and seen["repro.dbrew.rewriter"]
    for addr in starts:
        shared = {id(by_addr[addr]) for by_addr in seen.values()
                  if addr in by_addr}
        assert len(shared) == 1, hex(addr)


@pytest.mark.parametrize("hexcode", ["eb05", "488b0510000000"],
                         ids=["jmp rel8", "rip-relative load"])
def test_the_same_bytes_at_another_address_are_another_instruction(hexcode):
    code = bytes.fromhex(hexcode)
    here, there = decode_one(code, 0, 0x1000), decode_one(code, 0, 0x2000)
    assert here is not there
    assert here == decoder._decode(code, 0, 0x1000)
    assert there == decoder._decode(code, 0, 0x2000)
    assert here is decode_one(code, 0, 0x1000)


def test_a_patched_byte_gives_the_new_decode():
    # movabs rax, imm64: the patched byte is the instruction's tenth
    img = Image()
    entry = img.add_function("f", bytes.fromhex("48b8" + "11" * 8 + "c3"))
    (first,) = discover(img.memory, entry).blocks[entry].instructions[:1]
    assert first.operands[1].value == 0x1111_1111_1111_1111
    img.memory.write(entry + 9, b"\x22")
    (again,) = discover(img.memory, entry).blocks[entry].instructions[:1]
    assert again.operands[1].value == 0x2211_1111_1111_1111


def test_a_truncated_window_raises_and_is_not_stored():
    addr = 0x7000
    for _ in range(2):
        with pytest.raises(DecodeError, match="truncated"):
            decode_one(b"\x48\x81", 0, addr)
    assert (addr, b"\x48\x81") not in decoder._MEMO
    ins = decode_one(bytes.fromhex("4881c001000000"), 0, addr)
    assert ins.mnemonic == "add" and ins.operands[1].value == 1


def test_a_16_byte_instruction_is_refused_not_keyed_by_its_first_15():
    # ``66 x 15`` then ``90`` (nop) or ``50`` (push): one 15-byte key
    for last in (b"\x90", b"\x50"):
        with pytest.raises(DecodeError, match="longer than 15 bytes"):
            decode_one(b"\x66" * 15 + last, 0, 0x8000)


def test_the_counters_are_the_decoders():
    code, before = bytes.fromhex("4801c8"), REGISTRY.snapshot()
    decode_one(code, 0, 0x9000)
    decode_one(code, 0, 0x9000)
    after = REGISTRY.snapshot()
    assert [name for name in after if "decode_memo" in name] == [
        "x86.decode_memo.hits", "x86.decode_memo.misses"]
    moved = after["x86.decode_memo.hits"] - before["x86.decode_memo.hits"] \
        + after["x86.decode_memo.misses"] - before["x86.decode_memo.misses"]
    assert moved == 2 and after["x86.decode_memo.hits"] > \
        before["x86.decode_memo.hits"]


def test_eight_threads_over_three_times_the_cap(monkeypatch):
    cap, threads = 32, 8
    monkeypatch.setattr(decoder, "_MEMO", {})
    monkeypatch.setattr(decoder, "_MEMO_MAX", cap)
    # ``mov eax, k`` at its own address: 3 x cap keys, every one a miss
    # once the memo has cycled, so every insert evicts
    keys = [(0x10000 + 16 * k, b"\xb8" + k.to_bytes(4, "little"))
            for k in range(3 * cap)]
    want = {addr: decoder._decode(code, 0, addr) for addr, code in keys}
    errors: list[BaseException] = []
    sizes: list[int] = []
    start = threading.Barrier(threads)

    def hammer(shift: int) -> None:
        try:
            start.wait()
            for _ in range(20):
                for addr, code in keys[shift:] + keys[:shift]:
                    assert decode_one(code, 0, addr) == want[addr]
                    sizes.append(len(decoder._MEMO))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, args=(7 * n,))
                   for n in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert max(sizes) <= cap and len(decoder._MEMO) <= cap
