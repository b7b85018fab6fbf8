"""DBrew meta-state: the known/unknown lattice over guest state.

Values are tracked per 64-bit GPR, per 128-bit SSE register, per flag, and
per 8-byte-aligned guest stack slot.  Stack pointers are represented as
ordinary integers offset from a sentinel base (``VSP_BASE``), so pointer
arithmetic can be emulated with the regular CPU semantics and re-classified
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: sentinel base address of the virtual rewrite-time stack
VSP_BASE = 1 << 62
#: half-size of the recognized stack window around VSP_BASE
VSP_WINDOW = 1 << 20


def is_stack_address(value: int) -> bool:
    """True when an integer value denotes a rewrite-time stack pointer."""
    return abs(value - VSP_BASE) < VSP_WINDOW


def stack_offset(value: int) -> int:
    """Offset of a stack-pointer value relative to the entry rsp."""
    return value - VSP_BASE


@dataclass(frozen=True)
class MetaValue:
    """Lattice value: known 64/128-bit integer or unknown (= runtime)."""

    known: bool
    value: int = 0
    #: for known register values: already materialized in the emitted code
    materialized: bool = False

    @staticmethod
    def unknown() -> "MetaValue":
        return _UNKNOWN

    @staticmethod
    def of(value: int, bits: int = 64) -> "MetaValue":
        return MetaValue(True, value & ((1 << bits) - 1))

    def mat(self) -> "MetaValue":
        return replace(self, materialized=True)


_UNKNOWN = MetaValue(False)


@dataclass
class StackSlot:
    """One 8-byte stack slot: known value and whether the emitted code's
    runtime stack already holds it (flushed)."""

    value: MetaValue
    flushed: bool = False


@dataclass
class MetaState:
    """Complete rewrite-time machine state."""

    gpr: list[MetaValue] = field(default_factory=lambda: [_UNKNOWN] * 16)
    xmm: list[MetaValue] = field(default_factory=lambda: [_UNKNOWN] * 16)
    flags: dict[str, MetaValue] = field(
        default_factory=lambda: {f: _UNKNOWN for f in "oszapc"}
    )
    #: stack contents keyed by byte offset from entry rsp (8-byte slots)
    stack: dict[int, StackSlot] = field(default_factory=dict)
    #: where the *runtime* rsp sits relative to entry rsp (emitted pushes)
    runtime_sp_off: int = 0
    #: the emitted code has used a stack address as a value, so a register
    #: or memory tracked as unknown may point into the stack
    escaped: bool = False

    def copy(self) -> "MetaState":
        st = MetaState(
            gpr=list(self.gpr),
            xmm=list(self.xmm),
            flags=dict(self.flags),
            stack={k: StackSlot(s.value, s.flushed) for k, s in self.stack.items()},
            runtime_sp_off=self.runtime_sp_off,
            escaped=self.escaped,
        )
        return st

    def digest(self) -> tuple:
        """Hashable summary used to deduplicate join points.

        Materialization/flush bits are *included*: two states that agree on
        values but differ in what the emitted code has realized cannot share
        code.
        """
        return (
            tuple(self.gpr),
            tuple(self.xmm),
            tuple(sorted(self.flags.items())),
            tuple(sorted((k, s.value, s.flushed) for k, s in self.stack.items())),
            self.runtime_sp_off,
            self.escaped,
        )

    # -- stack helpers ----------------------------------------------------------

    def stack_read(self, offset: int, size: int) -> MetaValue:
        """Read ``size`` bytes at stack ``offset``; unknown unless the
        containing aligned slots are known."""
        if size == 16:
            lo = self.stack_read(offset, 8)
            hi = self.stack_read(offset + 8, 8)
            if lo.known and hi.known:
                return MetaValue(True, lo.value | (hi.value << 64))
            return MetaValue.unknown()
        base = offset & ~7
        if base == offset and size == 8:
            slot = self.stack.get(offset)
            return slot.value if slot is not None else _UNKNOWN
        # sub-slot access: assemble from the aligned slot when known
        slot = self.stack.get(base)
        if slot is None or not slot.value.known:
            return _UNKNOWN
        if offset + size > base + 8:
            hi = self.stack.get(base + 8)
            if hi is None or not hi.value.known:
                return _UNKNOWN
            combined = slot.value.value | (hi.value.value << 64)
        else:
            combined = slot.value.value
        shift = (offset - base) * 8
        mask = (1 << (size * 8)) - 1
        return MetaValue.of((combined >> shift) & mask)

    def stack_write(self, offset: int, size: int, value: MetaValue) -> None:
        if size == 16:
            if value.known:
                self.stack_write(offset, 8, MetaValue.of(value.value))
                self.stack_write(offset + 8, 8, MetaValue.of(value.value >> 64))
            else:
                self.stack_write(offset, 8, value)
                self.stack_write(offset + 8, 8, value)
            return
        base = offset & ~7
        if base == offset and size == 8:
            self.stack[offset] = StackSlot(value)
            return
        if not value.known:
            # partial unknown write poisons the containing slot(s)
            self.stack[base] = StackSlot(_UNKNOWN)
            if offset + size > base + 8:
                self.stack[base + 8] = StackSlot(_UNKNOWN)
            return
        slot = self.stack.get(base)
        if slot is None or not slot.value.known:
            self.stack[base] = StackSlot(_UNKNOWN)
            return  # merging into unknown stays unknown
        shift = (offset - base) * 8
        mask = ((1 << (size * 8)) - 1) << shift
        merged = (slot.value.value & ~mask) | ((value.value << shift) & mask)
        self.stack[base] = StackSlot(MetaValue.of(merged))
