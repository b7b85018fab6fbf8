"""Byte-addressed simulated memory.

A :class:`Memory` is a set of mapped regions in a 64-bit address space.
All scalar accessors are little-endian, matching x86-64.  Accesses that
touch unmapped space raise :class:`~repro.errors.MemoryAccessError` — this
is the simulator's segfault, and tests rely on it to catch miscompiled
address arithmetic early.

Regions are kept as (start, buffer) pairs sorted by start, where a buffer
is a ``bytearray`` or, for a mapping of at least :data:`LAZY_MAP_MIN`
bytes, an anonymous private ``mmap`` whose pages the OS zero-fills on
first touch — an 8 MB image costs the pages a run touches.

An access finds its region through a page table, ``{addr >> 12: (start,
end, buffer)}``, filled on a miss by a scan of the region list.  Regions
are append-only — :meth:`Memory.map` refuses an overlap, and nothing
unmaps a region or swaps its buffer — so an entry never goes stale and the
table needs no invalidation.  A page may hold the tail of one region and
the head of the next, so the bounds check is two-sided; an access that
straddles two regions, or runs off a region's end, still faults.  The
scalar accessors convert in place from the region buffer, with no
intermediate ``bytes``.
"""

from __future__ import annotations

import mmap
import struct

from repro.errors import MemoryAccessError

_F64 = struct.Struct("<d")
_F32 = struct.Struct("<f")

#: smallest mapping backed by an ``mmap`` instead of a ``bytearray``.  A
#: ``bytearray`` is zero-filled byte by byte up front; an mmap's pages are
#: zero-filled by the OS when first touched.  Below this size the mmap's
#: system calls cost more than the memset: DBrew maps an 8 KiB scratch
#: memory for every emulated memory access, and mmap-backing those made a
#: cold compile slower
LAZY_MAP_MIN = 64 * 1024

#: what a region's bytes live in; both slice and slice-assign the same way
Buffer = bytearray | mmap.mmap

#: log2 of the page size the region lookup is keyed by
_PAGE_SHIFT = 12


class Memory:
    """Sparse 64-bit byte-addressable memory."""

    def __init__(self) -> None:
        self._regions: list[tuple[int, Buffer]] = []
        #: page number -> ``(start, end, buffer)`` of the region an access
        #: on that page last found; only ever filled from ``_regions``
        self._pages: dict[int, tuple[int, int, Buffer]] = {}

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
        if size >= LAZY_MAP_MIN:
            # MAP_PRIVATE, not Python's default MAP_SHARED: a child forked
            # while the image is alive (``run_corpus(jobs > 1)``) must get
            # its own copy of the pages, not write into its parent's
            buf: Buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        else:
            buf = bytearray(size)
        if data is not None:
            if len(data) > size:
                raise ValueError("initializer larger than mapping")
            buf[: len(data)] = data
        self._regions.append((start, buf))
        self._regions.sort(key=lambda r: r[0])

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
        Each region is stored with one :meth:`write`, so a subclass that
        journals its writes journals a restore too.
        """
        sizes = {s: len(b) for s, b in self._regions}
        for start, data in snap:
            if sizes.get(start) != len(data):
                raise MemoryAccessError(
                    f"snapshot region [{start:#x},+{len(data):#x}) no longer "
                    "matches the mapping"
                )
        for start, data in snap:
            self.write(start, data)

    def window(self, addr: int, limit: int) -> bytes:
        """Up to ``limit`` bytes at ``addr``, cut at the end of its region
        (how decoders fetch code); ``b""`` when ``addr`` is unmapped."""
        try:
            _, end, _ = self._find(addr, 1)
        except MemoryAccessError:
            return b""
        return self.read(addr, min(limit, end - addr))

    def _find(self, addr: int, size: int) -> tuple[int, int, Buffer]:
        """``(start, end, buffer)`` of the region holding [addr, addr+size)."""
        hit = self._pages.get(addr >> _PAGE_SHIFT)
        if hit is not None and hit[0] <= addr and addr + size <= hit[1]:
            return hit
        for rs, buf in self._regions:
            if rs <= addr and addr + size <= rs + len(buf):
                hit = (rs, rs + len(buf), buf)
                self._pages[addr >> _PAGE_SHIFT] = hit
                return hit
        raise MemoryAccessError(f"unmapped access at {addr:#x} size {size}")

    # -- raw bytes ----------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        rs, _, buf = self._find(addr, size)
        off = addr - rs
        return bytes(buf[off : off + size])

    def write(self, addr: int, data: bytes) -> None:
        rs, _, buf = self._find(addr, len(data))
        off = addr - rs
        buf[off : off + len(data)] = data

    # -- integer accessors (unsigned reads; write masks) ---------------------
    #
    # ``read_uint``/``write_uint`` carry every simulated load and store, so
    # they repeat ``_find``'s page-table hit inline rather than pay a call

    def read_uint(self, addr: int, size: int) -> int:
        hit = self._pages.get(addr >> _PAGE_SHIFT)
        if hit is None or addr < hit[0] or addr + size > hit[1]:
            hit = self._find(addr, size)
        off = addr - hit[0]
        return int.from_bytes(hit[2][off:off + size], "little")

    def read_int(self, addr: int, size: int) -> int:
        sign = 1 << (size * 8 - 1)
        return (self.read_uint(addr, size) ^ sign) - sign

    def write_uint(self, addr: int, value: int, size: int) -> None:
        hit = self._pages.get(addr >> _PAGE_SHIFT)
        if hit is None or addr < hit[0] or addr + size > hit[1]:
            hit = self._find(addr, size)
        off = addr - hit[0]
        hit[2][off:off + size] = (
            value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")

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
        rs, _, buf = self._find(addr, 8)
        return _F64.unpack_from(buf, addr - rs)[0]

    def write_f64(self, addr: int, v: float) -> None:
        rs, _, buf = self._find(addr, 8)
        _F64.pack_into(buf, addr - rs, v)

    def read_f32(self, addr: int) -> float:
        return _F32.unpack(self.read(addr, 4))[0]

    def write_f32(self, addr: int, v: float) -> None:
        self.write(addr, _F32.pack(v))

    # -- 128-bit vector as int ------------------------------------------------

    def read_u128(self, addr: int) -> int:
        return self.read_uint(addr, 16)

    def write_u128(self, addr: int, v: int) -> None:
        self.write_uint(addr, v, 16)


#: bytes per chunk of a :class:`JournaledMemory` — the unit it copies on
#: first touch and journals on first write — counted from the start of the
#: region an access lands in, so no chunk spans two regions
JOURNAL_CHUNK = 4096


class JournaledMemory(Memory):
    """A copy-on-touch shadow of ``source`` whose writes can be rolled back.

    Construction copies nothing: the shadow keeps ``source``'s region list,
    and the first read or write of a chunk copies that chunk into a private
    dict that every later access uses, so a gate pays for the chunks its
    probes touch.  No method stores into a source buffer.  A chunk reads
    the live bytes of the moment it is first touched; from then on the
    shadow sees only its own writes, so repeated runs see identical bytes
    in every chunk any of them touches.  The first write to a chunk since
    the last :meth:`rollback` saves the chunk's old bytes, so a run costs
    what it dirties.
    """

    def __init__(self, source: Memory) -> None:
        super().__init__()
        self._regions = list(source._regions)
        #: chunk address -> this shadow's private copy of the chunk
        self._chunks: dict[int, bytearray] = {}
        #: chunk address -> the chunk's bytes before its first write
        self._journal: dict[int, bytes] = {}

    def _chunk(self, rs: int, buf: Buffer, lo: int) -> bytearray:
        """The private copy of the chunk at offset ``lo`` of region ``rs``."""
        chunk = self._chunks.get(rs + lo)
        if chunk is None:
            chunk = self._chunks[rs + lo] = bytearray(buf[lo:lo + JOURNAL_CHUNK])
        return chunk

    def read(self, addr: int, size: int) -> bytes:
        rs, _, buf = self._find(addr, size)
        off = addr - rs
        at = off % JOURNAL_CHUNK
        if at + size <= JOURNAL_CHUNK:  # the common case: one chunk
            return bytes(self._chunk(rs, buf, off - at)[at:at + size])
        end = off + size
        return b"".join(
            self._chunk(rs, buf, lo)[max(off, lo) - lo:end - lo]
            for lo in range(off - at, end, JOURNAL_CHUNK))

    def write(self, addr: int, data: bytes) -> None:
        rs, _, buf = self._find(addr, len(data))
        off = addr - rs
        end = off + len(data)
        journal = self._journal
        for lo in range(off - off % JOURNAL_CHUNK, end, JOURNAL_CHUNK):
            chunk = self._chunk(rs, buf, lo)
            if rs + lo not in journal:
                journal[rs + lo] = bytes(chunk)
            a, b = max(off, lo), min(end, lo + JOURNAL_CHUNK)
            chunk[a - lo:b - lo] = data[a - off:b - off]

    # the base class's scalar accessors work on a region buffer directly;
    # here every access goes through the chunks above

    def read_uint(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read(addr, size), "little")

    def write_uint(self, addr: int, value: int, size: int) -> None:
        mask = (1 << (size * 8)) - 1
        self.write(addr, (value & mask).to_bytes(size, "little"))

    def read_f64(self, addr: int) -> float:
        return _F64.unpack(self.read(addr, 8))[0]

    def write_f64(self, addr: int, v: float) -> None:
        self.write(addr, _F64.pack(v))

    def snapshot(self) -> list[tuple[int, bytes]]:
        """Every region as this shadow sees it (touches every chunk)."""
        return [(s, self.read(s, len(b))) for s, b in self._regions]

    def rollback(self) -> dict[int, bytes]:
        """Undo every write since the last rollback.

        Returns ``{chunk address: the chunk's bytes just before the undo}``
        for exactly the chunks that were written to.
        """
        after = {}
        chunks = self._chunks
        for addr, old in self._journal.items():
            chunk = chunks[addr]
            after[addr] = bytes(chunk)
            chunk[:] = old
        self._journal.clear()
        return after
