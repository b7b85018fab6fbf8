"""Runtime-owned probe counter/event buffers.

Instrumented code (``repro.instrument.passes``) writes *only* here: the
buffer lives in the image's dedicated probe region (disjoint from code,
rodata, globals, JIT space and the stack), which is what lets the
differential gate whitelist it wholesale and the probe-ops pregate prove
every probe store lands inside one buffer's extent.

Layout — all slots are u64, little-endian, 8-byte aligned::

    +0                        call counter (entry probe)
    +8                        event cursor (monotonic sequence number)
    +16 .. +16+8n             per-block edge counters, plan order
    ...                       watch value slots (last observed bits)
    ...                       watch hit counters
    ...                       event ring: capacity x 16 bytes (tag, payload)

The event ring is power-of-two sized and indexed by ``cursor & (cap-1)``;
the cursor itself never wraps, so ``dropped()`` is exact.  An event tag
packs ``kind << 56 | site`` — kinds are :data:`EV_LOAD` / :data:`EV_STORE`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import InstrumentError

_U64 = struct.Struct("<Q")

#: slots before the per-block counters
HEADER_SLOTS = 2
#: byte size of one event ring entry (tag u64 + payload u64)
EVENT_BYTES = 16

#: event kinds (high byte of the tag word)
EV_LOAD = 1
EV_STORE = 2

_KIND_NAMES = {EV_LOAD: "load", EV_STORE: "store"}


@dataclass(frozen=True)
class ProbeEvent:
    """One decoded memory-trace event."""

    seq: int
    kind: str
    site: int
    payload: int


class ProbeBuffer:
    """One instrumented function's counters, watch slots and event ring."""

    def __init__(self, image, addr: int, *, n_blocks: int, n_watch: int,
                 ring_capacity: int, block_names: tuple[str, ...] = ()) -> None:
        if ring_capacity & (ring_capacity - 1) or ring_capacity <= 0:
            raise InstrumentError(
                f"ring capacity must be a power of two, got {ring_capacity}")
        self.image = image
        self.addr = addr
        self.n_blocks = n_blocks
        self.n_watch = n_watch
        self.ring_capacity = ring_capacity
        self.block_names = tuple(block_names)
        self.calls_addr = addr
        self.cursor_addr = addr + 8
        self.blocks_addr = addr + 8 * HEADER_SLOTS
        self.watch_addr = self.blocks_addr + 8 * n_blocks
        self.watch_hits_addr = self.watch_addr + 8 * n_watch
        self.ring_addr = self.watch_hits_addr + 8 * n_watch
        self.size = (self.ring_addr - addr) + ring_capacity * EVENT_BYTES

    @classmethod
    def allocate(cls, image, plan) -> "ProbeBuffer":
        """Allocate a zeroed buffer in ``image``'s probe region for ``plan``."""
        names = tuple(plan.block_names)
        probe = cls(image, 0, n_blocks=len(names), n_watch=plan.n_watch,
                    ring_capacity=plan.options.ring_capacity,
                    block_names=names)
        addr = image.alloc_probe(probe.size, align=16)
        return cls(image, addr, n_blocks=len(names), n_watch=plan.n_watch,
                   ring_capacity=plan.options.ring_capacity, block_names=names)

    # -- addresses -----------------------------------------------------------

    def extent(self) -> tuple[int, int]:
        """[lo, hi) byte range of this buffer (the gate whitelist entry)."""
        return (self.addr, self.addr + self.size)

    def block_counter_addr(self, index: int) -> int:
        return self.blocks_addr + 8 * index

    def watch_slot_addr(self, index: int) -> int:
        return self.watch_addr + 8 * index

    def watch_hit_addr(self, index: int) -> int:
        return self.watch_hits_addr + 8 * index

    # -- readers -------------------------------------------------------------

    def _u64(self, addr: int) -> int:
        return _U64.unpack(self.image.memory.read(addr, 8))[0]

    def call_count(self) -> int:
        return self._u64(self.calls_addr)

    def cursor(self) -> int:
        return self._u64(self.cursor_addr)

    def block_counts(self) -> dict[str, int]:
        """Edge heat per basic block, keyed by block name."""
        return {name: self._u64(self.block_counter_addr(i))
                for i, name in enumerate(self.block_names)}

    def watch_values(self) -> list[int]:
        return [self._u64(self.watch_slot_addr(i)) for i in range(self.n_watch)]

    def watch_hits(self) -> list[int]:
        return [self._u64(self.watch_hit_addr(i)) for i in range(self.n_watch)]

    def hotness(self) -> int:
        """Edge-profile heat: the hottest block's counter.

        For straight-line code this equals the call counter; for loopy code
        it grows per iteration — which is exactly why edge heat promotes a
        hot kernel no later than call counting would.
        """
        if self.n_blocks == 0:
            return self.call_count()
        base = self.blocks_addr
        return max(self._u64(base + 8 * i) for i in range(self.n_blocks))

    def dropped(self) -> int:
        """Events overwritten because the ring wrapped."""
        return max(0, self.cursor() - self.ring_capacity)

    def events(self) -> list[ProbeEvent]:
        """Decode the retained tail of the event ring, in sequence order."""
        cur = self.cursor()
        first = max(0, cur - self.ring_capacity)
        out = []
        for seq in range(first, cur):
            slot = self.ring_addr + (seq & (self.ring_capacity - 1)) * EVENT_BYTES
            tag = self._u64(slot)
            payload = self._u64(slot + 8)
            kind = _KIND_NAMES.get(tag >> 56, f"kind{tag >> 56}")
            out.append(ProbeEvent(seq=seq, kind=kind,
                                  site=tag & ((1 << 56) - 1), payload=payload))
        return out

    def drain(self) -> list[ProbeEvent]:
        """Decode retained events, then reset the cursor (counters stay)."""
        out = self.events()
        self.image.memory.write(self.cursor_addr, b"\x00" * 8)
        return out

    def reset(self) -> None:
        """Zero every counter, watch slot and the ring."""
        self.image.memory.write(self.addr, b"\x00" * self.size)
