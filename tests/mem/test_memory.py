"""Unit + property tests for the simulated memory."""

import mmap
import os
import random
import signal
import struct
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryAccessError
from repro.mem.memory import LAZY_MAP_MIN, JournaledMemory, Memory


@pytest.fixture
def mem():
    m = Memory()
    m.map(0x1000, 0x1000)
    return m


def test_zero_initialized(mem):
    assert mem.read(0x1000, 16) == bytes(16)


def test_write_read_bytes(mem):
    mem.write(0x1100, b"hello")
    assert mem.read(0x1100, 5) == b"hello"


def test_unmapped_read_raises(mem):
    with pytest.raises(MemoryAccessError):
        mem.read(0x3000, 1)


def test_straddling_region_end_raises(mem):
    with pytest.raises(MemoryAccessError):
        mem.read(0x1FFF, 2)


def test_overlapping_map_rejected(mem):
    with pytest.raises(MemoryAccessError):
        mem.map(0x1800, 0x1000)


def test_adjacent_map_allowed(mem):
    mem.map(0x2000, 0x1000)
    mem.write_u8(0x2000, 7)
    assert mem.read_u8(0x2000) == 7


def test_map_with_initializer():
    m = Memory()
    m.map(0x0, 16, data=b"\x01\x02")
    assert m.read(0, 4) == b"\x01\x02\x00\x00"


def test_little_endian_u32(mem):
    mem.write_u32(0x1000, 0x12345678)
    assert mem.read(0x1000, 4) == bytes.fromhex("78563412")


def test_is_mapped(mem):
    assert mem.is_mapped(0x1000, 0x1000)
    assert not mem.is_mapped(0xFFF, 2)
    assert not mem.is_mapped(0x1FFF, 2)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_u64_roundtrip(v):
    m = Memory()
    m.map(0, 8)
    m.write_u64(0, v)
    assert m.read_u64(0) == v


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_i32_roundtrip(v):
    m = Memory()
    m.map(0, 4)
    m.write_uint(0, v, 4)
    assert m.read_i32(0) == v


@given(st.floats(allow_nan=False))
def test_f64_roundtrip(v):
    m = Memory()
    m.map(0, 8)
    m.write_f64(0, v)
    assert m.read_f64(0) == v


def test_f64_nan_roundtrip():
    m = Memory()
    m.map(0, 8)
    m.write_f64(0, float("nan"))
    assert m.read_f64(0) != m.read_f64(0)


@given(st.integers(min_value=0, max_value=2**128 - 1))
def test_u128_roundtrip(v):
    m = Memory()
    m.map(0, 16)
    m.write_u128(0, v)
    assert m.read_u128(0) == v


def test_write_uint_masks():
    m = Memory()
    m.map(0, 8)
    m.write_uint(0, -1, 4)
    assert m.read_u32(0) == 0xFFFFFFFF
    assert m.read_u64(0) == 0xFFFFFFFF


def test_snapshot_restore_roundtrip_keeps_later_mappings(mem):
    mem.write(0x1010, b"before")
    snap = mem.snapshot()
    mem.write(0x1010, b"after!")
    mem.map(0x8000, 16, b"new")  # mapped after the snapshot: left alone
    mem.restore(snap)
    assert mem.read(0x1010, 6) == b"before"
    assert mem.read(0x8000, 3) == b"new"


def test_restore_is_all_or_nothing(mem):
    mem.map(0x4000, 32)
    mem.write(0x1000, b"one")
    mem.write(0x4000, b"two")
    current = mem.snapshot()
    # the first region still matches, the second is not this mapping's
    stale = [(0x1000, bytes(0x1000)), (0x4000, bytes(64))]
    with pytest.raises(MemoryAccessError, match="no longer matches"):
        mem.restore(stale)
    assert mem.snapshot() == current
    with pytest.raises(MemoryAccessError):
        mem.restore([(0x1000, bytes(0x1000)), (0x9000, bytes(8))])
    assert mem.snapshot() == current


@pytest.mark.parametrize("size, lazy", [
    (LAZY_MAP_MIN - 1, False), (LAZY_MAP_MIN, True), (3 * LAZY_MAP_MIN + 5, True)])
def test_big_mappings_are_zero_filled_by_the_os(size, lazy):
    """A mapping of at least ``LAZY_MAP_MIN`` bytes is an anonymous mmap
    (its pages are zero-filled on first touch); it reads, writes,
    snapshots and restores like a bytearray, initializer included."""
    m = Memory()
    m.map(0x10_0000, size, data=b"\x01\x02")
    [(_, buf)] = m._regions
    assert isinstance(buf, mmap.mmap) is lazy
    assert m.read(0x10_0000, 4) == b"\x01\x02\x00\x00"
    end = 0x10_0000 + size
    m.write_u64(end - 8, 2**64 - 1)
    snap = m.snapshot()
    assert snap == [(0x10_0000, b"\x01\x02" + bytes(size - 10) + b"\xff" * 8)]
    m.write(0x10_0000, b"\x09" * 16)
    m.restore(snap)
    assert m.snapshot() == snap
    with pytest.raises(MemoryAccessError):
        m.write(end - 4, bytes(8))


def test_window_is_cut_at_the_region_end(mem):
    mem.write(0x1FFC, b"tail")
    assert mem.window(0x1FFC, 16) == b"tail"
    assert mem.window(0x1000, 16) == bytes(16)
    assert mem.window(0x2000, 16) == b""  # unmapped
    assert mem.window(0xFFF, 16) == b""


# -- the page table -----------------------------------------------------------


def test_a_page_shared_by_two_regions_serves_both():
    """0x1000-0x17ff and 0x1800-0x1fff lie on one 4 KiB page: each access
    must find its own region however the table was filled before it."""
    m = Memory()
    m.map(0x1000, 0x800)
    m.map(0x1800, 0x800)
    for _ in range(2):
        m.write_u64(0x17F8, 0x1111)
        m.write_u64(0x1800, 0x2222)
        assert m.read_u64(0x17F8) == 0x1111
        assert m.read_u64(0x1800) == 0x2222
        assert m.read_i64(0x17F8) == 0x1111
    assert m.read(0x17F8, 8) == (0x1111).to_bytes(8, "little")
    assert m.read(0x1800, 8) == (0x2222).to_bytes(8, "little")


@pytest.mark.parametrize("access", [
    lambda m: m.read_u64(0x17FC), lambda m: m.write_u64(0x17FC, 1),
    lambda m: m.read_f64(0x17FC), lambda m: m.write_f64(0x17FC, 1.0),
    lambda m: m.read(0x17FC, 8), lambda m: m.write(0x17FC, bytes(8))])
def test_an_access_straddling_two_regions_on_one_page_raises(access):
    m = Memory()
    m.map(0x1000, 0x800)
    m.map(0x1800, 0x800)
    m.read_u32(0x17F0)  # the page's entry holds the first region
    with pytest.raises(MemoryAccessError):
        access(m)
    m.read_u32(0x1800)  # ... and now the second
    with pytest.raises(MemoryAccessError):
        access(m)
    assert m.snapshot() == [(0x1000, bytes(0x800)), (0x1800, bytes(0x800))]


def test_a_region_mapped_after_the_table_filled_is_found():
    m = Memory()
    m.map(0x1000, 0x100)
    assert m.read_u32(0x1000) == 0  # fills the entry of page 1
    with pytest.raises(MemoryAccessError):
        m.read_u8(0x1100)  # same page, not mapped yet: no entry remembered
    m.map(0x1100, 0x100, b"\x07")
    assert m.read_u8(0x1100) == 7
    m.map(0x9000, 16, b"\x09")
    assert m.read_u8(0x9000) == 9 and m.read_u8(0x1000) == 0


def test_f64_on_an_mmap_backed_region():
    m = Memory()
    m.map(0x10_0000, LAZY_MAP_MIN)
    [(_, buf)] = m._regions
    assert isinstance(buf, mmap.mmap)
    end = 0x10_0000 + LAZY_MAP_MIN
    m.write_f64(end - 8, -2.5)
    assert m.read_f64(end - 8) == -2.5
    assert m.read(end - 8, 8) == struct.pack("<d", -2.5)
    for access in (lambda: m.read_f64(end - 4),
                   lambda: m.write_f64(end - 4, 1.0)):
        with pytest.raises(MemoryAccessError):
            access()


#: two regions sharing page 1, and an mmap-backed one
LAYOUT = [(0x1000, 0x7F8), (0x17F8, 0x808), (0x10_0000, LAZY_MAP_MIN)]
SCALARS = ("read_uint", "read_int", "write_uint", "read_f64", "write_f64")


@st.composite
def accesses(draw) -> tuple:
    """(accessor, address, size, value): near a region's start, end, or a
    page boundary of the big one, so some straddle or miss."""
    kind = draw(st.sampled_from(SCALARS))
    size = 8 if kind.endswith("f64") else draw(st.sampled_from((1, 2, 4, 8,
                                                                16)))
    start, length = draw(st.sampled_from(LAYOUT))
    anchor = start + draw(st.sampled_from((0, length, 4096 * 3)))
    value = draw(st.floats(allow_nan=False) if kind == "write_f64"
                 else st.integers(-(1 << 130), 1 << 130))
    return kind, anchor + draw(st.integers(-20, 20)), size, value


def _access(mem: Memory, kind: str, addr: int, size: int, value):
    if kind == "write_uint":
        return mem.write_uint(addr, value, size)
    if kind == "write_f64":
        return mem.write_f64(addr, value)
    if kind == "read_f64":
        return struct.pack("<d", mem.read_f64(addr))
    return getattr(mem, kind)(addr, size)


def _model_access(model: dict[int, bytearray], kind: str, addr: int,
                  size: int, value):
    """What ``_access`` must return, on ``{region start: bytes}``; raises
    ``MemoryAccessError`` when no one region holds the access."""
    home = next((s for s, n in LAYOUT if s <= addr and addr + size <= s + n),
                None)
    if home is None:
        raise MemoryAccessError("outside every region")
    buf, off = model[home], addr - home
    if kind == "write_uint":
        buf[off:off + size] = (value % (1 << 8 * size)).to_bytes(size,
                                                                  "little")
    elif kind == "write_f64":
        buf[off:off + 8] = struct.pack("<d", value)
    elif kind == "read_f64":
        return bytes(buf[off:off + 8])
    else:
        return int.from_bytes(buf[off:off + size], "little",
                              signed=kind == "read_int")
    return None


def _layout(seed: int) -> tuple[Memory, dict[int, bytearray]]:
    rng = random.Random(seed)
    mem, model = Memory(), {}
    for start, length in LAYOUT:
        model[start] = bytearray(rng.randbytes(length))
        mem.map(start, length, bytes(model[start]))
    return mem, model


def _drive(mem: Memory, model: dict[int, bytearray], ops: list) -> None:
    for kind, addr, size, value in ops:
        try:
            want = _model_access(model, kind, addr, size, value)
        except MemoryAccessError:
            with pytest.raises(MemoryAccessError):
                _access(mem, kind, addr, size, value)
            continue
        assert _access(mem, kind, addr, size, value) == want, (kind, addr)
    assert mem.snapshot() == [(s, bytes(model[s])) for s, _ in LAYOUT]


@given(st.integers(0, 2**32), st.lists(accesses(), max_size=40))
def test_scalar_accesses_agree_with_a_bytearray_model(seed, ops):
    mem, model = _layout(seed)
    _drive(mem, model, ops)


@given(st.integers(0, 2**32), st.lists(accesses(), max_size=40))
def test_journaled_scalar_accesses_agree_and_roll_back(seed, ops):
    live, model = _layout(seed)
    base = live.snapshot()
    jm = JournaledMemory(live)
    _drive(jm, model, ops)
    jm.rollback()
    assert jm.snapshot() == base
    assert live.snapshot() == base


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_writes_its_own_copy_of_the_image():
    """A child forked after an ``Image`` exists — a worker of
    ``diffcorpus.run_corpus(jobs > 1)`` — must not write into its parent's
    pages: big regions are ``MAP_PRIVATE`` (Python's default for an mmap is
    ``MAP_SHARED``)."""
    from repro.cpu.image import DATA_BASE, JIT_BASE, Image
    img = Image()
    img.memory.write(DATA_BASE, b"parent")
    before = img.memory.snapshot()
    pid = os.fork()
    if pid == 0:  # the child: store, then leave without any cleanup
        ok = False
        try:
            img.memory.write(DATA_BASE, b"child!")
            img.memory.write(JIT_BASE, b"\x90" * 64 + b"\xc3")
            ok = img.memory.read(DATA_BASE, 6) == b"child!"
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not exit")
        time.sleep(0.005)
    assert os.waitstatus_to_exitcode(status[1]) == 0
    assert img.memory.read(DATA_BASE, 6) == b"parent"
    assert img.memory.snapshot() == before
