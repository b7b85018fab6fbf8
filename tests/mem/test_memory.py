"""Unit + property tests for the simulated memory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryAccessError
from repro.mem.memory import Memory


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
