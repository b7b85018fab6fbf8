"""Status-flag modeling and the flag cache (Sec. III-D, Fig. 6).

A flag-writing instruction does not compute its six flags: it records a
:class:`FlagRecipe` — kind, operands, result, and the *anchor*, the last
instruction emitted before the flags would have been — and leaves the recipe
in the flag slots it writes.  ``RegFile.read_flag`` forces one letter: its
instructions are spliced in **at the anchor**, in the order an eager lifter
would have emitted them, so whatever is forced is a subsequence of the
paper's "compute all six, let DCE sort it out" (Sec. III-D).  Constant and
``undef`` flags are written directly.

Signed predicates built from raw flag bits (``sf != of``) are *not*
recoverable by the optimizer — LLVM 3.7 could not either — so the flag
cache records the operands of the latest cmp/sub/test and re-derives
conditions as direct ``icmp``s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir import instructions as I
from repro.ir.builder import IRBuilder
from repro.ir.irtypes import I1, I8, IntType
from repro.ir.module import BasicBlock
from repro.ir.values import Constant, Undef, Value
from repro.lift.regfile import RegFile, scratch_builder, splice
from repro.obs import metrics as _metrics

#: flag-cache effectiveness (Fig. 6): a hit rebuilds a condition as one
#: icmp over cached cmp operands, a miss reconstructs it from flag bits
_FLAG_HITS = _metrics.counter("lift.flag_cache.hits")
_FLAG_MISSES = _metrics.counter("lift.flag_cache.misses")


@dataclass
class FlagCacheEntry:
    """Operands of the most recent flag-setting comparison-like op."""

    kind: str  # 'sub' (cmp/sub semantics) or 'test' (and semantics)
    a: Value
    b: Value


#: OF is the common sign bit of two xor terms over (a, b, result).  sub: the
#: operands differ in sign and the result's sign differs from a's; add: the
#: result's sign differs from both operands'
OVERFLOW_TERMS = {
    "sub": lambda a, b, r: ((a, b), (a, r)),
    "add": lambda a, b, r: ((a, r), (b, r)),
}

#: the letters a recipe kind computes, in emission order ("k": the count
#: test of a shift by ``cl``)
_ORDER = {"sub": "zspcoa", "add": "zspcoa", "logic": "zsp",
          "shift": "kzspcoa", "ucomisd": "zcp"}

_UCOMISD_PRED = {"z": "ueq", "c": "ult", "p": "uno"}


def index_after(block: BasicBlock, ins: I.Instruction | None) -> int:
    """Where the successor of ``ins`` sits in ``block`` (0 for None, the
    block's start), searched from the end: a flag is nearly always forced
    a few instructions after its writer."""
    if ins is None:
        return 0
    instrs = block.instructions
    i = len(instrs) - 1
    while instrs[i] is not ins:
        i -= 1
    return i + 1


class FlagRecipe:
    """The flags of one flag-writing instruction, computed when read.

    ``kind`` selects the formulas over ``a``, ``b`` and ``result``.  A shift
    by ``cl`` also keeps its masked ``count`` and ``prev``, the flag slots
    as they were: a count of 0 leaves every flag untouched, so each of its
    letters is ``select(count == 0, previous, new)``.
    """

    __slots__ = ("kind", "a", "b", "result", "count", "prev", "block",
                 "anchor", "values", "last")

    def __init__(self, kind: str, a: Value | None, b: Value | None,
                 result: Value | None, block: BasicBlock,
                 count: Value | None = None,
                 prev: dict[str, Value | FlagRecipe] | None = None) -> None:
        self.kind = kind
        self.a = a
        self.b = b
        self.result = result
        self.count = count
        self.prev = prev
        self.block = block
        self.anchor = block.instructions[-1] if block.instructions else None
        #: letter -> its value, once forced
        self.values: dict[str, Value] = {}
        #: letter -> the last instruction forcing it emitted
        self.last: dict[str, I.Instruction] = {}

    def force(self, letter: str) -> Value:
        v = self.values.get(letter)
        if v is None:
            v = self.values[letter] = self._emit(letter)
        return v

    def _emit(self, letter: str) -> Value:
        keep = prev = None
        if self.count is not None and letter != "k":
            assert self.prev is not None
            keep = self.force("k")
            prev = self.prev[letter]
            if not isinstance(prev, Value):
                prev = prev.force(letter)
        b = scratch_builder(self.block)
        v = self._compute(b, letter)
        if prev is not None:
            v = b.select(keep, prev, v)
        # after the anchor and the letters of this recipe that precede this
        # one in emission order and are already there
        after = self.anchor
        for earlier in _ORDER[self.kind]:
            if earlier == letter:
                break
            after = self.last.get(earlier, after)
        new = splice(self.block, index_after(self.block, after), b)
        if new:
            self.last[letter] = new[-1]
        return v

    def _compute(self, b: IRBuilder, letter: str) -> Value:
        kind, a, bv, r = self.kind, self.a, self.b, self.result
        if letter == "k":
            assert self.count is not None
            return b.icmp("eq", self.count, Constant(self.count.type, 0))
        if kind == "ucomisd":
            # zf/pf/cf per IEEE compare, unordered sets all three
            return b.fcmp(_UCOMISD_PRED[letter], a, bv)
        t = r.type
        assert isinstance(t, IntType)
        if letter == "z":
            return b.icmp("eq", r, Constant(t, 0))
        if letter == "s":
            return b.icmp("slt", r, Constant(t, 0))
        if letter == "p":
            pop = b.call("llvm.ctpop.i8", [b.trunc(r, I8)], I8)
            bit = b.and_(pop, Constant(I8, 1))
            return b.icmp("eq", bit, Constant(I8, 0))
        if kind == "shift":
            # c/o/a after a non-zero count: approximated as undef (lifted
            # code in the supported subset never consumes them)
            return Undef(I1)
        if letter == "c":
            return b.icmp("ult", a, bv) if kind == "sub" \
                else b.icmp("ult", r, a)
        if letter == "o":
            x, y = OVERFLOW_TERMS[kind](a, bv, r)
            both = b.and_(b.xor(*x), b.xor(*y))
            return b.icmp("slt", both, Constant(t, 0))
        assert letter == "a"
        nib = b.and_(b.xor(b.xor(a, bv), r), Constant(t, 0x10))
        return b.icmp("ne", nib, Constant(t, 0))


class FlagModel:
    """Records and queries flags through a RegFile."""

    def __init__(self, regs: RegFile, builder: IRBuilder,
                 flag_cache: bool = True) -> None:
        self.regs = regs
        self.b = builder
        self.use_cache = flag_cache
        self.cache: FlagCacheEntry | None = None

    def invalidate_cache(self) -> None:
        self.cache = None

    # -- flag recipes after ALU ops -------------------------------------------

    def _record(self, kind: str, a: Value | None, b: Value | None,
                result: Value | None, count: Value | None = None,
                prev: dict[str, Value | FlagRecipe] | None = None) -> None:
        """Leave one recipe in every flag slot its kind computes."""
        assert self.b.block is not None
        recipe = FlagRecipe(kind, a, b, result, self.b.block, count, prev)
        for f in _ORDER[kind]:
            if f != "k":
                self.regs.write_flag(f, recipe)

    def _constant(self, letters: str, value: Value) -> None:
        for f in letters:
            self.regs.write_flag(f, value)

    def set_after_sub(self, a: Value, b: Value, result: Value,
                      *, is_cmp: bool = False) -> None:
        self._record("sub", a, b, result)
        if self.use_cache:
            self.cache = FlagCacheEntry("sub", a, b)

    def set_after_add(self, a: Value, b: Value, result: Value) -> None:
        self._record("add", a, b, result)
        self.invalidate_cache()

    def set_after_logic(self, result: Value, *, cache_test: tuple[Value, Value] | None = None) -> None:
        self._record("logic", None, None, result)
        self._constant("coa", Constant(I1, 0))
        if self.use_cache and cache_test is not None:
            self.cache = FlagCacheEntry("test", *cache_test)
        else:
            self.invalidate_cache()

    def set_after_incdec(self, a: Value, result: Value, *, inc: bool) -> None:
        """inc/dec: like add/sub by 1 but CF is preserved — whatever holds
        it, forced or not, is carried across."""
        cf = self.regs.state.flags["c"]
        one = Constant(result.type, 1)
        if inc:
            self.set_after_add(a, one, result)
        else:
            self.set_after_sub(a, one, result)
        self.regs.write_flag("c", cf)
        self.invalidate_cache()

    def set_after_shift(self, result: Value, count: Value) -> None:
        """Shift flags: s/z/p defined from the result; c/o approximated as
        undef (lifted code in the supported subset never consumes them).
        A masked ``count`` of 0 leaves every flag as it was: an immediate 0
        touches neither the flags nor the flag cache, a ``cl`` count makes
        each letter a select on ``count == 0``."""
        if isinstance(count, Constant):
            if count.value == 0:
                return
            self._record("logic", None, None, result)
            self._constant("coa", Undef(I1))
        else:
            self._record("shift", None, None, result, count=count,
                         prev=dict(self.regs.state.flags))
        self.invalidate_cache()

    def set_after_imul(self) -> None:
        self.set_all_undef()

    def set_after_ucomisd(self, a: Value, b: Value) -> None:
        self._record("ucomisd", a, b, None)
        self._constant("osa", Constant(I1, 0))
        self.invalidate_cache()

    def set_all_undef(self) -> None:
        self._constant("oszapc", Undef(I1))
        self.invalidate_cache()

    # -- condition reconstruction ----------------------------------------------

    _CACHE_SUB_PRED = {
        "e": "eq", "ne": "ne",
        "l": "slt", "ge": "sge", "le": "sle", "g": "sgt",
        "b": "ult", "ae": "uge", "be": "ule", "a": "ugt",
    }

    def condition(self, cc: str) -> Value:
        """i1 value of a canonical condition code.

        With a valid flag cache the signed/unsigned predicates become a
        single icmp (Fig. 6c); otherwise they are reconstructed from the
        flag bits (Fig. 6b), which the optimizer cannot reduce.
        """
        if self.use_cache and self.cache is not None:
            v = self._condition_cached(cc)
            if v is not None:
                _FLAG_HITS.value += 1
                return v
        if self.use_cache:
            _FLAG_MISSES.value += 1
        return self._condition_from_bits(cc)

    def _condition_cached(self, cc: str) -> Value | None:
        """Condition from the flag cache, or None if it cannot serve cc."""
        entry = self.cache
        assert entry is not None
        if entry.kind == "sub" and cc in self._CACHE_SUB_PRED:
            return self.b.icmp(self._CACHE_SUB_PRED[cc], entry.a, entry.b)
        if entry.kind == "test" and entry.a is entry.b:
            t = entry.a.type
            if cc == "e":
                return self.b.icmp("eq", entry.a, Constant(t, 0))
            if cc == "ne":
                return self.b.icmp("ne", entry.a, Constant(t, 0))
            if cc == "l":  # sf != of, of == 0 -> sf
                return self.b.icmp("slt", entry.a, Constant(t, 0))
            if cc == "ge":
                return self.b.icmp("sge", entry.a, Constant(t, 0))
            if cc == "le":
                return self.b.icmp("sle", entry.a, Constant(t, 0))
            if cc == "g":
                return self.b.icmp("sgt", entry.a, Constant(t, 0))
        return None

    def _condition_from_bits(self, cc: str) -> Value:
        r = self.regs
        b = self.b
        one = Constant(I1, 1)
        if cc == "e":
            return r.read_flag("z")
        if cc == "ne":
            return b.xor(r.read_flag("z"), one)
        if cc == "s":
            return r.read_flag("s")
        if cc == "ns":
            return b.xor(r.read_flag("s"), one)
        if cc == "b":
            return r.read_flag("c")
        if cc == "ae":
            return b.xor(r.read_flag("c"), one)
        if cc == "be":
            return b.or_(r.read_flag("c"), r.read_flag("z"))
        if cc == "a":
            return b.xor(b.or_(r.read_flag("c"), r.read_flag("z")), one)
        if cc == "l":
            return b.xor(r.read_flag("s"), r.read_flag("o"))
        if cc == "ge":
            return b.xor(b.xor(r.read_flag("s"), r.read_flag("o")), one)
        if cc == "le":
            lt = b.xor(r.read_flag("s"), r.read_flag("o"))
            return b.or_(lt, r.read_flag("z"))
        if cc == "g":
            lt = b.xor(r.read_flag("s"), r.read_flag("o"))
            return b.xor(b.or_(lt, r.read_flag("z")), one)
        if cc == "o":
            return r.read_flag("o")
        if cc == "no":
            return b.xor(r.read_flag("o"), one)
        if cc == "p":
            return r.read_flag("p")
        if cc == "np":
            return b.xor(r.read_flag("p"), one)
        raise ValueError(f"unknown condition code {cc}")
