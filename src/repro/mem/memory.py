"""Byte-addressed simulated memory.

A :class:`Memory` is a set of mapped regions in a 64-bit address space.
All scalar accessors are little-endian, matching x86-64.  Accesses that
touch unmapped space raise :class:`~repro.errors.MemoryAccessError` — this
is the simulator's segfault, and tests rely on it to catch miscompiled
address arithmetic early.

Regions are kept as (start, bytearray) pairs sorted by start; kernels touch
a handful of regions (code, rodata, globals, stack, matrices), so a linear
scan over a tiny list with a one-entry cache is faster in CPython than a
page-table dict.
"""

from __future__ import annotations

import struct

from repro.errors import MemoryAccessError

_F64 = struct.Struct("<d")
_F32 = struct.Struct("<f")


class Memory:
    """Sparse 64-bit byte-addressable memory."""

    def __init__(self) -> None:
        self._regions: list[tuple[int, bytearray]] = []
        self._hit: tuple[int, bytearray] | None = None

    # -- mapping ----------------------------------------------------------

    def map(self, start: int, size: int, data: bytes | None = None) -> None:
        """Map ``size`` zeroed bytes at ``start`` (optionally initialized)."""
        if size <= 0:
            raise ValueError("mapping size must be positive")
        end = start + size
        for rs, buf in self._regions:
            if start < rs + len(buf) and rs < end:
                raise MemoryAccessError(
                    f"mapping [{start:#x},{end:#x}) overlaps [{rs:#x},{rs + len(buf):#x})"
                )
        buf = bytearray(size)
        if data is not None:
            if len(data) > size:
                raise ValueError("initializer larger than mapping")
            buf[: len(data)] = data
        self._regions.append((start, buf))
        self._regions.sort(key=lambda r: r[0])
        self._hit = None

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        """True when [addr, addr+size) lies inside one mapped region."""
        try:
            self._find(addr, size)
        except MemoryAccessError:
            return False
        return True

    def regions(self) -> list[tuple[int, int]]:
        """Mapped (start, size) pairs, sorted."""
        return [(s, len(b)) for s, b in self._regions]

    def snapshot(self) -> list[tuple[int, bytes]]:
        """Copy of every region's contents (for differential replay)."""
        return [(s, bytes(b)) for s, b in self._regions]

    def restore(self, snap: list[tuple[int, bytes]]) -> None:
        """Write back a snapshot taken from this memory (same mapping).

        Regions mapped *after* the snapshot keep their current contents;
        regions present in the snapshot must still exist unchanged.
        All-or-nothing: a snapshot that no longer matches writes nothing.
        """
        by_start = {s: b for s, b in self._regions}
        for start, data in snap:
            buf = by_start.get(start)
            if buf is None or len(buf) != len(data):
                raise MemoryAccessError(
                    f"snapshot region [{start:#x},+{len(data):#x}) no longer "
                    "matches the mapping"
                )
        for start, data in snap:
            by_start[start][:] = data

    def _find(self, addr: int, size: int) -> tuple[int, bytearray]:
        hit = self._hit
        if hit is not None:
            rs, buf = hit
            if rs <= addr and addr + size <= rs + len(buf):
                return hit
        for rs, buf in self._regions:
            if rs <= addr and addr + size <= rs + len(buf):
                self._hit = (rs, buf)
                return rs, buf
        raise MemoryAccessError(f"unmapped access at {addr:#x} size {size}")

    # -- raw bytes ----------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        rs, buf = self._find(addr, size)
        off = addr - rs
        return bytes(buf[off : off + size])

    def write(self, addr: int, data: bytes) -> None:
        rs, buf = self._find(addr, len(data))
        off = addr - rs
        buf[off : off + len(data)] = data

    # -- integer accessors (unsigned reads; write masks) ---------------------

    def read_uint(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read(addr, size), "little")

    def read_int(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read(addr, size), "little", signed=True)

    def write_uint(self, addr: int, value: int, size: int) -> None:
        mask = (1 << (size * 8)) - 1
        self.write(addr, int(value & mask).to_bytes(size, "little"))

    def read_u8(self, addr: int) -> int:
        return self.read_uint(addr, 1)

    def read_u16(self, addr: int) -> int:
        return self.read_uint(addr, 2)

    def read_u32(self, addr: int) -> int:
        return self.read_uint(addr, 4)

    def read_u64(self, addr: int) -> int:
        return self.read_uint(addr, 8)

    def read_i32(self, addr: int) -> int:
        return self.read_int(addr, 4)

    def read_i64(self, addr: int) -> int:
        return self.read_int(addr, 8)

    def write_u8(self, addr: int, v: int) -> None:
        self.write_uint(addr, v, 1)

    def write_u16(self, addr: int, v: int) -> None:
        self.write_uint(addr, v, 2)

    def write_u32(self, addr: int, v: int) -> None:
        self.write_uint(addr, v, 4)

    def write_u64(self, addr: int, v: int) -> None:
        self.write_uint(addr, v, 8)

    # -- floating point -----------------------------------------------------

    def read_f64(self, addr: int) -> float:
        return _F64.unpack(self.read(addr, 8))[0]

    def write_f64(self, addr: int, v: float) -> None:
        self.write(addr, _F64.pack(v))

    def read_f32(self, addr: int) -> float:
        return _F32.unpack(self.read(addr, 4))[0]

    def write_f32(self, addr: int, v: float) -> None:
        self.write(addr, _F32.pack(v))

    # -- 128-bit vector as int ------------------------------------------------

    def read_u128(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 16), "little")

    def write_u128(self, addr: int, v: int) -> None:
        self.write(addr, int(v & ((1 << 128) - 1)).to_bytes(16, "little"))


#: bytes per journal chunk of a :class:`JournaledMemory`, counted from the
#: start of the region a write lands in, so no chunk spans two regions
JOURNAL_CHUNK = 4096


class JournaledMemory(Memory):
    """A private copy of ``source`` whose writes can be rolled back.

    Construction is the only pass over the whole image.  The first write
    to touch a chunk since the last :meth:`rollback` saves the chunk's old
    bytes, so a run costs what it dirties.  Sound only while every store
    funnels through :meth:`write` (``restore`` would bypass the journal).
    """

    def __init__(self, source: Memory) -> None:
        super().__init__()
        self._regions = [(s, bytearray(b)) for s, b in source._regions]
        #: chunk address -> the chunk's bytes before its first write
        self._journal: dict[int, bytes] = {}

    def write(self, addr: int, data: bytes) -> None:
        rs, buf = self._find(addr, len(data))
        off = addr - rs
        end = off + len(data)
        journal = self._journal
        for lo in range(off - off % JOURNAL_CHUNK, end, JOURNAL_CHUNK):
            if rs + lo not in journal:
                journal[rs + lo] = bytes(buf[lo : lo + JOURNAL_CHUNK])
        buf[off:end] = data

    def rollback(self) -> dict[int, bytes]:
        """Undo every write since the last rollback.

        Returns ``{chunk address: the chunk's bytes just before the undo}``
        for exactly the chunks that were written to.
        """
        after = {}
        for addr, old in self._journal.items():
            after[addr] = self.read(addr, len(old))
            Memory.write(self, addr, old)
        self._journal.clear()
        return after
