"""The gate's journaled memory against a snapshot/restore reference model.

``JournaledMemory`` promises what two full snapshots and two full restores
per probe used to deliver: a run sees the base image, and afterwards the
caller learns every byte the run changed while the memory is the base
again.  The property test drives random layouts (one region always big
enough to be mmap-backed) and write sequences through it next to a plain
:class:`Memory` rewound with ``snapshot()``/``restore()``;
``REPRO_JOURNAL_EXAMPLES`` scales the example count (CI raises it).  The
shadow is copy-on-touch: the remaining tests pin that it never stores into
a source buffer and which live writes it sees.
"""

from __future__ import annotations

import ast
import os
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import MemoryAccessError
from repro.mem import memory as memory_mod
from repro.mem.memory import JOURNAL_CHUNK as CHUNK
from repro.mem.memory import LAZY_MAP_MIN, JournaledMemory, Memory

EXAMPLES = int(os.environ.get("REPRO_JOURNAL_EXAMPLES", "100"))


@st.composite
def layouts(draw) -> list[tuple[int, int]]:
    """1-4 small regions then an mmap-backed one: unaligned starts, sizes
    that are not a multiple of the chunk, some of them adjacent."""
    regions = []
    start = 0x10_0000 + draw(st.integers(0, CHUNK - 1))
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.one_of(st.integers(1, 3 * CHUNK + 77),
                              st.sampled_from((CHUNK - 1, CHUNK, CHUNK + 1,
                                               2 * CHUNK))))
        regions.append((start, size))
        start += size + draw(st.sampled_from((0, 0, 1, 13, CHUNK, 5 * CHUNK + 3)))
    regions.append((start, LAZY_MAP_MIN + draw(st.integers(0, CHUNK + 1))))
    return regions


@st.composite
def writes(draw, regions) -> list[tuple[int, bytes]]:
    """(address, data) pairs: 1-64 bytes anywhere around a region, across
    a chunk boundary, ending on a region's last byte — or off its edge and
    in unmapped space, which must fault."""
    out = []
    for _ in range(draw(st.integers(0, 24))):
        data = draw(st.binary(min_size=1, max_size=64))
        rs, size = draw(st.sampled_from(regions))
        where = draw(st.sampled_from(("any", "any", "chunk", "end", "wild")))
        if where == "any":
            addr = rs + draw(st.integers(-8, size + 8))
        elif where == "chunk":
            k = draw(st.integers(0, size // CHUNK + 1))
            addr = rs + k * CHUNK - draw(st.integers(0, len(data)))
        elif where == "end":
            addr = rs + size - len(data)
        else:
            addr = draw(st.integers(0, 1 << 40))
        out.append((addr, data))
    return out


@st.composite
def cases(draw):
    regions = draw(layouts())
    return (regions, draw(st.integers(0, 2**32)),
            [draw(writes(regions)) for _ in range(draw(st.integers(1, 3)))])


def _build(regions, seed) -> Memory:
    rng = random.Random(seed)
    mem = Memory()
    for start, size in regions:
        mem.map(start, size, rng.randbytes(size))
    return mem


def _chunks(mem: Memory, addr: int, size: int) -> set[int]:
    """Chunk addresses a successful write of ``size`` bytes at ``addr``
    dirties, counted from the start of the region it lands in."""
    rs = next(s for s, n in mem.regions() if s <= addr and addr + size <= s + n)
    first = (addr - rs) // CHUNK * CHUNK
    return {rs + lo for lo in range(first, addr - rs + size, CHUNK)}


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases())
def test_journal_equals_full_snapshot_and_restore(case):
    regions, seed, runs = case
    live = _build(regions, seed)
    base = live.snapshot()
    ref = _build(regions, seed)  # rewound the old way
    jm = JournaledMemory(live)
    assert jm.regions() == live.regions()
    if random.Random(seed).random() < 0.5:
        # the shadow reads the base whether or not a chunk was copied yet
        assert jm.snapshot() == base

    for ops in runs:
        dirty: set[int] = set()
        for addr, data in ops:
            try:
                ref.write(addr, data)
            except MemoryAccessError:
                # a faulting write journals nothing and changes nothing
                before, journal = jm.snapshot(), dict(jm._journal)
                with pytest.raises(MemoryAccessError):
                    jm.write(addr, data)
                assert jm.snapshot() == before and jm._journal == journal
                continue
            jm.write(addr, data)
            dirty |= _chunks(ref, addr, len(data))
        full = jm.snapshot()  # what the gate used to copy per side
        assert full == ref.snapshot()
        after = jm.rollback()
        # exactly the dirtied chunks, whole, none across a region's end:
        # a second run starts from a clean journal
        assert set(after) == dirty
        ends = {s + n for s, n in regions}
        for addr, data in after.items():
            assert len(data) == CHUNK or addr + len(data) in ends
        # the memory is the base again, and post-image over base is the
        # full snapshot taken just before the rollback
        assert jm.snapshot() == base
        overlay = _build(regions, seed)
        for addr, data in after.items():
            overlay.write(addr, data)
        assert overlay.snapshot() == full
        assert jm.rollback() == {}
        ref.restore(base)
    assert live.snapshot() == base  # the copy is private


def test_chunks_are_counted_from_the_region_start():
    live = Memory()
    live.map(0x1234, 2 * CHUNK + 10)
    live.map(0x1234 + 2 * CHUNK + 10, 50)  # adjacent
    jm = JournaledMemory(live)
    jm.write(0x1234 + CHUNK - 1, b"ab")  # straddles the first boundary
    jm.write_u8(0x1234 + 2 * CHUNK + 9, 7)  # the first region's last byte
    jm.write_u8(0x1234 + 2 * CHUNK + 10, 9)  # the second region's first
    after = jm.rollback()
    assert {a: len(d) for a, d in after.items()} == {
        0x1234: CHUNK, 0x1234 + CHUNK: CHUNK, 0x1234 + 2 * CHUNK: 10,
        0x1234 + 2 * CHUNK + 10: 50}
    assert jm.snapshot() == live.snapshot()


def test_a_live_write_shows_only_in_chunks_the_shadow_has_not_touched():
    """The first touch of a chunk copies the live bytes of that moment;
    afterwards the shadow sees only its own writes."""
    live = Memory()
    live.map(0x1000, 4 * CHUNK)
    live.map(0x100_0000, LAZY_MAP_MIN)  # mmap-backed
    jm = JournaledMemory(live)
    assert jm._chunks == {}  # construction copies nothing
    touched, fresh = 0x1000 + CHUNK + 8, 0x1000 + 3 * CHUNK + 8
    big_touched, big_fresh = 0x100_0000 + 5, 0x100_0000 + 9 * CHUNK
    assert jm.read_u64(touched) == 0 and jm.read_u8(big_touched) == 0
    for addr in (touched, fresh, big_touched, big_fresh):
        live.write_u8(addr, 0x5A)
    assert jm.read_u8(touched) == 0 and jm.read_u8(big_touched) == 0
    assert jm.read_u8(fresh) == 0x5A and jm.read_u8(big_fresh) == 0x5A
    # a rollback keeps the private chunk: the later live write stays out
    jm.write_u8(fresh, 1)
    live.write_u8(fresh + 1, 0x77)
    jm.rollback()
    assert jm.read(fresh, 2) == b"\x5a\x00"
    assert set(jm._chunks) == {0x1000 + CHUNK, 0x1000 + 3 * CHUNK,
                               0x100_0000, 0x100_0000 + 9 * CHUNK}


# -- region buffers stay inside the memory module ------------------------------

_SRC = Path(repro.__file__).parent
_PRIVATE = {"_regions", "_find", "_hit", "_journal", "_chunks", "_chunk"}


def test_nothing_outside_the_memory_module_reaches_a_region_buffer():
    offenders = [
        f"{path.relative_to(_SRC)}:{node.lineno} .{node.attr}"
        for path in sorted(_SRC.rglob("*.py"))
        if path != Path(memory_mod.__file__)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in _PRIVATE]
    assert offenders == []


def _exercise(jm: JournaledMemory, name: str, addr: int, base) -> None:
    """Call the public method ``name`` of ``jm`` at ``addr``."""
    method = getattr(jm, name)
    if name in ("read", "read_uint", "read_int"):
        method(addr, 16 if name == "read" else 8)
    elif name == "write_uint":
        method(addr, -1, 8)
    elif name.startswith("read_"):
        method(addr)
    elif name.startswith("write_") or name == "write":
        method(addr, bytes(range(16)) if name == "write" else 3)
    else:
        {"map": lambda: method(0x4000_0000 + addr, 16),
         "is_mapped": lambda: method(addr, 16),
         "window": lambda: method(addr, 256),
         "restore": lambda: method(base),
         "regions": method, "snapshot": method, "rollback": method}[name]()


def test_no_journaled_memory_method_stores_into_a_source_buffer():
    """Every public method of the shadow, run across chunk boundaries of a
    small and an mmap-backed region whose buffers are frozen to ``bytes``:
    a store into a source buffer would raise."""
    layout = [(0x1000, 3 * CHUNK + 5), (0x100_0000, LAZY_MAP_MIN)]
    live = _build(layout, 7)
    base = live.snapshot()
    live._regions = [(s, bytes(b)) for s, b in live._regions]
    jm = JournaledMemory(live)
    public = sorted(n for n in dir(JournaledMemory) if not n.startswith("_")
                    and callable(getattr(JournaledMemory, n)))
    for rs, _ in layout:
        for addr in (rs, rs + CHUNK - 3, rs + 2 * CHUNK - 1):
            for name in public:
                _exercise(jm, name, addr, base)
    jm.rollback()
    assert [(s, bytes(b)) for s, b in live._regions] == base
    assert jm.snapshot()[:2] == base
