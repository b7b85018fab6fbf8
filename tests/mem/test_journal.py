"""The gate's journaled memory against a snapshot/restore reference model.

``JournaledMemory`` promises what two full snapshots and two full restores
per probe used to deliver: a run sees the base image, and afterwards the
caller learns every byte the run changed while the memory is the base
again.  The property test drives random layouts and write sequences
through it next to a plain :class:`Memory` rewound with
``snapshot()``/``restore()``; ``REPRO_JOURNAL_EXAMPLES`` scales the example
count (CI raises it).  The structural test pins the one invariant the
journal rests on: every store into a region buffer goes through
``Memory.write``.
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
from repro.mem.memory import JournaledMemory, Memory

EXAMPLES = int(os.environ.get("REPRO_JOURNAL_EXAMPLES", "100"))


@st.composite
def layouts(draw) -> list[tuple[int, int]]:
    """1-4 regions: unaligned starts, sizes that are not a multiple of the
    chunk, some of them adjacent."""
    regions = []
    start = 0x10_0000 + draw(st.integers(0, CHUNK - 1))
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.one_of(st.integers(1, 3 * CHUNK + 77),
                              st.sampled_from((CHUNK - 1, CHUNK, CHUNK + 1,
                                               2 * CHUNK))))
        regions.append((start, size))
        start += size + draw(st.sampled_from((0, 0, 1, 13, CHUNK, 5 * CHUNK + 3)))
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
    assert jm.snapshot() == base and jm.regions() == live.regions()

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


# -- every store funnels through Memory.write ----------------------------------

_SRC = Path(repro.__file__).parent
_PRIVATE = {"_regions", "_find", "_hit", "_journal"}
#: bytearray methods that change the buffer in place
_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear",
             "reverse", "__setitem__", "__delitem__", "__iadd__"}


def _root(node: ast.expr) -> str | None:
    """The variable a subscript/attribute chain hangs off."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_nothing_outside_the_memory_module_reaches_a_region_buffer():
    offenders = [
        f"{path.relative_to(_SRC)}:{node.lineno} .{node.attr}"
        for path in sorted(_SRC.rglob("*.py"))
        if path != Path(memory_mod.__file__)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in _PRIVATE]
    assert offenders == []


def test_only_map_write_and_restore_mutate_a_region_buffer():
    """Inside ``memory.py`` a region buffer is a ``buf`` (or an entry of
    ``restore``'s ``by_start``); everything else stored into by index is
    the journal or a result dict."""
    mutating: set[str] = set()
    tree = ast.parse(Path(memory_mod.__file__).read_text())
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Subscript) \
                        and isinstance(node.ctx, (ast.Store, ast.Del)):
                    root = _root(node)
                    assert root in {"buf", "by_start", "journal", "after"}, \
                        f"{cls.name}.{fn.name}: unknown store into {root}"
                    if root in {"buf", "by_start"}:
                        mutating.add(f"{cls.name}.{fn.name}")
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _MUTATORS \
                        and _root(node.func) in {"buf", "by_start"}:
                    mutating.add(f"{cls.name}.{fn.name}")
    assert mutating == {"Memory.map", "Memory.write", "Memory.restore",
                        "JournaledMemory.write"}
