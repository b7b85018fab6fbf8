"""Shared symbolic state for the two executors of the machine verifier.

The proof strategy is *dual symbolic execution*: the machine-side executor
interprets decoded x86 and the IR-side executor mirrors the lowering,
both building values from :mod:`repro.analysis.machine.terms` and memory
effects through the :class:`MemState` here.  Because both sides use the
same abstract memory, semantic questions ("does the emitted store write
the same value the IR store writes?") reduce to structural comparisons of
effect lists and stack entries at block boundaries.

Memory is split in two:

* the **stack** — addresses of the form ``rsp0 + concrete delta``.  Known
  entries live in a dict keyed by rsp0-relative offset; reads of offsets
  never written in the current block produce ``("sload", ver, off, w)``,
  i.e. "whatever the slot held at block entry".  ``ver`` bumps whenever a
  symbolic store or a stack-escaping call may have rewritten slots.
* **general memory** — everything else.  Stores and calls append to an
  ordered effect list; loads forward from it when the store provably
  matches, skip provably-disjoint stores, and otherwise produce a
  ``("load", k, addr, w)`` fence term pinned to the effect prefix.
"""

from __future__ import annotations

from repro.analysis.machine import terms as T
from repro.arith import to_signed


class Inconclusive(Exception):
    """The proof cannot be completed (not a refutation)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _ranges_overlap(a: int, aw: int, b: int, bw: int) -> bool:
    return a < b + bw and b < a + aw


class MemState:
    """Symbolic memory: known stack slots + ordered general-memory effects.

    ``alloca_ranges`` are the rsp0-relative byte ranges of IR-visible frame
    objects; only those entries are invalidated when a call may write
    through an escaped stack pointer (spill slots never escape).
    """

    __slots__ = ("stack", "effects", "ver", "alloca_ranges")

    def __init__(self, alloca_ranges: tuple[tuple[int, int], ...] = ()) -> None:
        self.stack: dict[int, tuple[int, T.Term]] = {}
        self.effects: list[tuple] = []
        self.ver = 0
        self.alloca_ranges = alloca_ranges

    def clone(self) -> "MemState":
        m = MemState(self.alloca_ranges)
        m.stack = dict(self.stack)
        m.effects = list(self.effects)
        m.ver = self.ver
        return m

    # -- stack ----------------------------------------------------------------

    def stack_read(self, off: int, w: int) -> T.Term:
        hit = self.stack.get(off)
        if hit is not None:
            if hit[0] == w:
                return hit[1]
            raise Inconclusive(f"stack read width {w} over entry width {hit[0]}")
        for o, (ew, _v) in self.stack.items():
            if _ranges_overlap(off, w, o, ew):
                raise Inconclusive(f"stack read [{off},{off + w}) overlaps entry at {o}")
        # only IR-visible frame objects can be rewritten behind our back
        # (through escaped pointers); retaddr/saves/spills are ABI-protected,
        # so their "block entry" contents are version-stable
        ver = self.ver if self.in_alloca_range(off) else 0
        return ("sload", ver, off, w)

    def stack_write(self, off: int, w: int, val: T.Term) -> None:
        for o, (ew, _v) in self.stack.items():
            if o == off and ew == w:
                continue
            if _ranges_overlap(off, w, o, ew):
                raise Inconclusive(f"stack write [{off},{off + w}) overlaps entry at {o}")
        self.stack[off] = (w, val)

    def in_alloca_range(self, off: int) -> bool:
        return any(lo <= off < hi for lo, hi in self.alloca_ranges)

    def invalidate_allocas(self) -> None:
        """A call (or symbolic store) may have rewritten escaped frame slots."""
        self.ver += 1
        for o in [o for o in self.stack if self.in_alloca_range(o)]:
            del self.stack[o]

    def alloca_entries(self) -> tuple[tuple[int, int, T.Term], ...]:
        return tuple(sorted(
            (o, w, v) for o, (w, v) in self.stack.items()
            if self.in_alloca_range(o)))

    # -- general memory -------------------------------------------------------

    @staticmethod
    def _disjoint(a1: T.Term, w1: int, a2: T.Term, w2: int) -> bool:
        d = T.op_sub(a1, a2)
        if not isinstance(d, int):
            return False
        sd = to_signed(d, 64)
        return sd >= w2 or -sd >= w1

    def load(self, addr: T.Term, w: int) -> T.Term:
        """Forward from matching stores; fence at may-alias stores or calls."""
        k = len(self.effects)
        for e in reversed(self.effects):
            if e[0] == "store":
                _tag, eaddr, ew, eval_ = e
                if eaddr == addr and ew == w:
                    return eval_
                if self._disjoint(addr, w, eaddr, ew):
                    k -= 1
                    continue
            break
        if T.references_stack(addr):
            # the load may alias concrete stack entries that never entered
            # the effect list: pin their current contents into the term so
            # structural equality still implies semantic equality
            return ("sldx", k, self.ver, addr, w, self.alloca_entries())
        return ("load", k, addr, w)

    def store(self, addr: T.Term, w: int, val: T.Term) -> None:
        self.effects.append(("store", addr, w, val))
        if T.references_stack(addr):
            self.invalidate_allocas()

    def call(self, effect: tuple, escapes_stack: bool) -> int:
        """Record a call effect; returns its index (the havoc tag)."""
        n = len(self.effects)
        self.effects.append(effect)
        if escapes_stack:
            self.invalidate_allocas()
        return n


def match_effects(machine: list[tuple], ir: list[tuple]) -> str | None:
    """Compare the two effect sequences; returns a mismatch description.

    Store effects must match exactly.  Call effects pair a machine-side
    argument-register snapshot against the IR call's actual argument terms
    (the machine does not know arity, so it snapshots the full SysV
    argument file and the IR side selects the checked prefix).
    """
    if len(machine) != len(ir):
        return f"effect count {len(machine)} != {len(ir)}"
    for i, (me, ie) in enumerate(zip(machine, ir)):
        if me[0] == "store" and ie[0] == "store":
            if me != ie:
                return f"effect {i}: store mismatch {me!r} != {ie!r}"
            continue
        if me[0] == "mcall" and ie[0] == "call":
            _tag, mnames, isnap, fsnap = me
            _tag2, iname, iargs, fargs = ie
            if iname not in mnames:  # mnames: candidate names of the target
                return f"effect {i}: call target {mnames!r} != {iname!r}"
            if tuple(isnap[:len(iargs)]) != tuple(iargs):
                return f"effect {i}: call int args differ for {iname!r}"
            if tuple(fsnap[:len(fargs)]) != tuple(fargs):
                return f"effect {i}: call float args differ for {iname!r}"
            continue
        return f"effect {i}: kind {me[0]!r} vs {ie[0]!r}"
    return None
