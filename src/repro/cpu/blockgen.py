"""A hot block as one generated Python function.

:func:`generate` writes a block's decoded run out as the source of one
function, ``_blk(st, mem) -> next rip``, and compiles it.  ``g = st.gpr``
and ``x = st.xmm`` are bound once and written in place, so a fault
mid-block leaves the registers and event counters the closure chain
leaves.  The hot shapes (:func:`statements`) are inlined; every other
instruction calls the closure the block already holds, bound with the same
flag-liveness choice.  Each statement is its closure's expression written
out — the same masks, flag formulas and float conversions — and
``tests/cpu/test_block_codegen.py`` holds the two to each other.

A block holds what its earlier statements found, in locals
(:class:`_Held`):

* **a region per base register** — the first access through a base looks
  its page up (``mem._pages``) and keeps the region as ``s{k}, e{k}, b{k}``
  (start, end, buffer); every later access through that base checks its
  address against the region it holds and calls ``mem._find`` only when
  it falls outside, which also raises the closures' fault.  Regions are
  append-only (:mod:`repro.mem.memory`), so a region found stays valid,
  and the check stays on every access: an address off the region, a
  straddle past its end, or a re-pointed base all reach ``mem._find``;
* **the last store** — its address expression and width, and its value in
  ``f``.  A load of the same expression at the same width reads ``f``;
  the store itself still happens.  The block forgets it on any other store
  (it may alias), on a closure call and on a write to a register the
  expression reads; a ``pop`` or ``ret``, which goes on to use ``a``,
  never reads it;
* **the double a register holds** — a ``movsd`` load also reads its slot
  as a double (``UD``), a register ``movsd`` copies the source's double
  and ``addsd``/``subsd``/``mulsd`` keep their result, each in ``d{k}``
  for ``xmm{k}``; a later scalar statement reads ``d{k}`` instead of
  turning ``x[k]``'s bits into a double, which it does only for a value
  the block does not hold.  ``x[k]`` is still written at every statement.
  The block forgets ``d{k}`` on any other write to ``x[k]`` (``pxor``,
  ``movss``, a reload forwarded from ``f``) and every ``d`` on a closure
  call.

The held state lives in one :func:`generate` call; :func:`statements`
called alone starts from nothing.  The inline look-ups read a plain
:class:`~repro.mem.memory.Memory`'s buffers: the simulator runs a
generated function on nothing else.
"""

from __future__ import annotations

import struct

from repro.arith import nan_operand, to_signed
from repro.cpu.semantics import _F64, _PARITY, Op
from repro.cpu.state import MASK64, MASK128
from repro.mem.memory import _PAGE_SHIFT
from repro.x86 import isa
from repro.x86.effects import effects_of
from repro.x86.instr import Imm, Instruction, Mem, Reg

#: what every generated function's globals start from (each gets a copy);
#: ``U{w}``/``P{w}`` load and store ``w`` bytes at an offset of a region
#: buffer, ``NO`` is a region that holds no address, and ``NR`` picks the
#: NaN of a scalar result that is one
_NS: dict[str, object] = {
    "PAR": _PARITY, "FB": int.from_bytes, "UP": _F64.unpack,
    "PK": _F64.pack, "UD": _F64.unpack_from, "NO": (0, 0, None),
    "NR": nan_operand,
    **{f"{k}{w}": getattr(struct.Struct(f), fn)
       for w, f in ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"))
       for k, fn in (("U", "unpack_from"), ("P", "pack_into"))}}

#: the flags of ``r = a op b`` at ``bits`` width, cut ``r`` to width
_FLAGS = {
    "add": ("st.cf = r > {mask}", "r &= {mask}", "sa = a >> {sh}",
            "sb = {b} >> {sh}", "sr = r >> {sh}",
            "st.of = sa == sb and sr != sa",
            "st.af = (a & 15) + ({b} & 15) > 15"),
    "sub": ("st.cf = a < {b}", "r &= {mask}", "sa = a >> {sh}",
            "sb = {b} >> {sh}", "sr = r >> {sh}",
            "st.of = sa != sb and sr != sa",
            "st.af = (a & 15) < ({b} & 15)"),
    "logic": ("st.cf = st.of = st.af = False", "sr = r >> {sh}"),
}
_SZP = ("st.zf = r == 0", "st.sf = sr == 1", "st.pf = PAR[r & 255]")
_ALU = {"add": ("+", "add"), "sub": ("-", "sub"), "cmp": ("-", "sub"),
        "and": ("&", "logic"), "test": ("&", "logic"),
        "or": ("|", "logic"), "xor": ("^", "logic")}
_SCALAR = {"addsd": "+", "subsd": "-", "mulsd": "*"}

#: ``CONDITIONS`` of :mod:`repro.cpu.semantics`, as expressions
_CC = {"o": "st.of", "no": "not st.of", "b": "st.cf", "ae": "not st.cf",
       "e": "st.zf", "ne": "not st.zf", "be": "st.cf or st.zf",
       "a": "not (st.cf or st.zf)", "s": "st.sf", "ns": "not st.sf",
       "p": "st.pf", "np": "not st.pf", "l": "st.sf != st.of",
       "ge": "st.sf == st.of", "le": "st.zf or st.sf != st.of",
       "g": "not st.zf and st.sf == st.of"}
#: a conditional branch, which always ends its block
_JCC = "if {cond}:\n    st.taken += 1\n    return {target}\nreturn {fall}"
#: the end of a block whose last instruction does not transfer control
_FALL = "return {end}"


def _mask(size: int) -> int:
    return (1 << (size * 8)) - 1


def _gp(op: object, full: bool = True) -> int | None:
    """The index of a GPR operand: a whole 64- or 32-bit view when ``full``,
    else any view but ``ah``..``bh``."""
    if isinstance(op, Reg) and op.kind == "gp" and not op.high8 \
            and (op.size >= 4 or not full):
        return op.index
    return None


def _xmm(op: object) -> int | None:
    return op.index if isinstance(op, Reg) and op.kind == "xmm" else None


class _Held:
    """What one block's statements so far leave in locals (module
    docstring): the keys of the bases whose region is bound, the last
    store's ``(address expression, width, registers it reads)``, and the
    xmm registers whose low-lane double is bound as ``d{k}``."""

    __slots__ = ("bases", "stored", "doubles")

    def __init__(self) -> None:
        self.bases: set[str] = set()
        self.stored: tuple[str, int, frozenset] | None = None
        self.doubles: set[int] = set()

    def forwards(self, m: Mem | str, width: int) -> bool:
        """Whether a load of ``m`` reads the last store's value ``f``."""
        return self.stored is not None and self.stored[:2] == (_ea(m), width)


def _access(held: _Held, m: Mem | str, width: int) -> tuple[list[str], str]:
    """Bind ``a`` to the address of ``m`` and check it against the region
    its base holds (a string address is ``rsp``'s): the lines, and
    ``buffer, offset`` of the access."""
    k = "4" if isinstance(m, str) else \
        "c" if m.base is None else str(m.base.index)
    s, e, b = f"s{k}", f"e{k}", f"b{k}"
    lines = [f"a = {_ea(m)}"]
    if k not in held.bases:
        held.bases.add(k)
        lines.append(f"{s}, {e}, {b} = pg(a >> {_PAGE_SHIFT}) or NO")
    lines.append(f"if a < {s} or a + {width} > {e}: "
                 f"{s}, {e}, {b} = mem._find(a, {width})")
    return lines, f"{b}, a - {s}"


def _ea(m: Mem | str) -> str:
    """The effective address of ``m``, mod 2**64 (a string is one); a
    register alone is one already."""
    if isinstance(m, str) or m.riprel or m.is_absolute:
        return m if isinstance(m, str) else str(m.disp & MASK64)
    if m.index is None and not m.disp:
        return f"g[{m.base.index}]"
    terms = [f"g[{m.base.index}]"] if m.base is not None else []
    if m.index is not None:
        terms.append(f"g[{m.index.index}] * {m.scale}")
    terms += [str(m.disp)] * (m.disp != 0)
    return f"({' + '.join(terms)}) & {MASK64}"


def _load(held: _Held, dst: str, m: Mem | str, width: int, sign: int = 0,
          mask: int = 0, pop: bool = False) -> list[str]:
    """``dst = [m]``: ``width`` bytes, zero-extended, or sign-extended from
    ``sign`` and cut to ``mask``; the last store's value where it wrote
    this slot, but not for a ``pop``, which goes on to use ``a``."""
    if not pop and held.forwards(m, width):
        lines, v = [], "f"
    else:
        lines, at = _access(held, m, width)
        v = f"U{width}({at})[0]"
    if sign:
        v = f"(({v} ^ {sign}) - {sign}) & {mask}"
    return lines + [f"{dst} = {v}"]


def _double(held: _Held, k: int) -> list[str]:
    """Bind ``d{k}`` to the double in ``x[k]``'s low lane, unless the block
    holds it: the one place a block turns bits into a double, for a value
    that entered the block or that it forgot."""
    if k in held.doubles:
        return []
    held.doubles.add(k)
    return [f'd{k} = UP((x[{k}] & {MASK64}).to_bytes(8, "little"))[0]']


def _store(held: _Held, m: Mem | str, value: object, width: int
           ) -> list[str]:
    """``[m] = value``, cut to ``width`` bytes; it is the last store now."""
    lines, at = _access(held, m, width)
    regs = {r.index for r in (m.base, m.index) if r is not None} \
        if isinstance(m, Mem) else {4}
    held.stored = (_ea(m), width, frozenset(("gp", r) for r in regs))
    return lines + [f"P{width}({at}, f := {value} & {_mask(width)})"]


def _read(op: object, size: int) -> str | None:
    """An integer read of a register view or an immediate, as
    ``semantics._reader`` reads it."""
    if isinstance(op, Imm):
        return str(op.value & _mask(size))
    if not isinstance(op, Reg) or op.kind != "gp":
        return None
    if op.high8:
        return f"(g[{op.index}] >> 8) & 255"
    return f"g[{op.index}]" if op.size == 8 else \
        f"(g[{op.index}] & {_mask(op.size)})"


def _move(ins: Instruction, flags: bool, held: _Held) -> list[str] | None:
    """``mov``, ``movsx*``/``movzx``, ``lea``, ``movsd``/``movss`` and
    the flag-free ``imul r, r, imm``, in the shapes their binders bind
    flat."""
    m, ops = ins.mnemonic, ins.operands
    if m == "imul":
        if flags or len(ops) != 3 or _gp(ops[0]) is None \
                or _gp(ops[1]) is None:
            return None
        factor = to_signed(ops[2].value & MASK64, 64)
        return [f"g[{ops[0].index}] = (g[{ops[1].index}] * {factor}) & "
                f"{_mask(ops[0].size)}"]
    (dst, src), d, s = ops, _gp(ops[0]), _gp(ops[1])
    if m == "lea":
        cut = "" if dst.size == 8 else f" & {_mask(dst.size)}"
        return None if d is None else [f"g[{d}] = {_ea(src)}{cut}"]
    if m in ("movsd", "movss"):
        width, d, s = 8 if m == "movsd" else 4, _xmm(dst), _xmm(src)
        if isinstance(dst, Mem) and s is not None:
            return _store(held, dst, f"x[{s}]", width)
        if d is None or s is None and not isinstance(src, Mem):
            return None
        held.doubles.discard(d)
        if isinstance(src, Mem):
            if width == 4 or held.forwards(src, 8):
                return _load(held, f"x[{d}]", src, width)
            held.doubles.add(d)
            lines, at = _access(held, src, 8)
            return lines + [f"x[{d}] = U8({at})[0]", f"d{d} = UD({at})[0]"]
        keep = MASK128 ^ _mask(width)
        lines = [f"x[{d}] = (x[{d}] & {keep}) | (x[{s}] & {_mask(width)})"]
        if width == 4 or s not in held.doubles:
            return lines
        held.doubles.add(d)
        return lines + [f"d{d} = d{s}"]
    if m != "mov":  # movsx, movsxd, movzx
        sign = 0 if m == "movzx" else 1 << (src.size * 8 - 1)
        if d is not None and isinstance(src, Mem):
            return _load(held, f"g[{d}]", src, src.size, sign,
                         _mask(dst.size))
        s = _gp(src, full=False)
        if d is None or s is None:
            return None
        return [f"g[{d}] = (((g[{s}] & {_mask(src.size)}) ^ {sign}) - "
                f"{sign}) & {_mask(dst.size)}"]
    if d is not None and isinstance(src, Mem):
        return _load(held, f"g[{d}]", src, src.size)
    if isinstance(dst, Mem) and _gp(src, full=False) is not None:
        return _store(held, dst, f"g[{src.index}]", dst.size)
    if d is not None and isinstance(src, Imm):
        return [f"g[{d}] = {src.value & _mask(dst.size)}"]
    if d is None or s is None:
        return None
    size = min(dst.size, src.size)
    return [f"g[{d}] = g[{s}]" + ("" if size == 8 else f" & {_mask(size)}")]


def _alu(ins: Instruction, flags: bool, held: _Held) -> list[str] | None:
    """``add``/``sub``/``and``/``or``/``xor``/``cmp``/``test`` on
    registers and immediates."""
    (dst, src), m = ins.operands, ins.mnemonic
    op, kind = _ALU[m]
    write = m not in ("cmp", "test")
    size = dst.size
    a, b = (_gp(dst) if write else _read(dst, size)), _read(src, size)
    if a is None or b is None:
        return None
    if write and not flags:
        return [f"g[{a}] = (g[{a}] {op} {b}) & {_mask(size)}"]
    if not flags:
        return []  # a register compare that sets no flags does nothing
    lines = [f"a = {_read(dst, size) if write else a}"]
    if not isinstance(src, Imm):
        lines.append(f"b = {b}")
        b = "b"
    lines.append(f"r = a {op} {b}")
    lines += [t.format(b=b, sh=size * 8 - 1, mask=_mask(size))
              for t in _FLAGS[kind] + _SZP]
    return lines + [f"g[{dst.index}] = r"] * write


def _sse(ins: Instruction, flags: bool, held: _Held) -> list[str] | None:
    """``addsd``/``subsd``/``mulsd`` and ``pxor`` on registers; a scalar
    result stays bound as ``d{k}``, and a memory operand is read as a
    double from its buffer."""
    (dst, src), m = ins.operands, ins.mnemonic
    d, s = _xmm(dst), _xmm(src)
    if d is None or s is None and not isinstance(src, Mem):
        return None
    if m == "pxor":
        if s is None:
            return None
        held.doubles.discard(d)
        return [f"x[{d}] = x[{d}] ^ (x[{s}] & {MASK128})"]
    if s is None:
        lines, at = _access(held, src, 8)
        b = f"UD({at})[0]"
    else:
        lines, b = _double(held, s), f"d{s}"
    op = _SCALAR[m]
    return lines + _double(held, d) + [
        f"d{d} = r if (r := d{d} {op} {b}) == r else NR(d{d}, {b}, r)",
        f'x[{d}] = (x[{d}] & {MASK128 ^ MASK64}) | FB(PK(d{d}), "little")']


def _shift(ins: Instruction, flags: bool, held: _Held) -> list[str] | None:
    """The flag-free ``shl``/``shr``/``sar`` of a whole register by an
    immediate that does not mask to 0."""
    (dst, src), m = ins.operands, ins.mnemonic
    d = _gp(dst)
    if flags or d is None or not isinstance(src, Imm):
        return None
    count = src.value & (63 if dst.size == 8 else 31)
    if not count:
        return None
    mask, a = _mask(dst.size), _read(dst, dst.size)
    if m == "shl":
        return [f"g[{d}] = (g[{d}] << {count}) & {mask}"]
    if m == "shr":
        return [f"g[{d}] = {a} >> {count}"]
    sign = 1 << (dst.size * 8 - 1)
    return [f"g[{d}] = ((({a} ^ {sign}) - {sign}) >> {count}) & {mask}"]


#: ``rsp`` moves down before the store that may fault, as in the closures
_DOWN = f"g[4] = (g[4] - 8) & {MASK64}"


def _control(ins: Instruction, flags: bool, held: _Held
             ) -> list[str] | None:
    """``push``/``pop``/``call``/``ret`` and the direct jumps; the last
    statement of a transfer returns the next ``rip``."""
    m, fx = ins.mnemonic, effects_of(ins)

    def pop() -> list[str]:  # built only where emitted: it binds ``s4``
        return _load(held, "v", "g[4]", 8, pop=True) + [
            f"g[4] = (a + 8) & {MASK64}"]
    if m == "push":
        (src,) = ins.operands
        if isinstance(src, Imm):
            v = to_signed(src.value & MASK64, src.size * 8 or 32) & MASK64
        elif _gp(src) is not None and src.size == 8:
            v = f"g[{src.index}]"
        else:
            return None
        return [f"v = {v}", *_store(held, _DOWN, "v", 8)]
    if m == "pop":
        (dst,) = ins.operands
        return None if _gp(dst) is None or dst.size != 8 else \
            pop() + [f"g[{dst.index}] = v"]
    if m == "call":
        return _store(held, _DOWN, ins.end, 8) + [f"return {fx.target}"]
    if m == "ret":
        return pop() + ["return v"]
    if m == "jmp":
        return [f"return {fx.target}"]
    return _JCC.format(cond=_CC[fx.cc], target=fx.target,
                       fall=ins.end).split("\n")


#: mnemonic -> its statements, or None where the closure runs instead
_EMIT = {**dict.fromkeys(("mov", "movzx", "movsx", "movsxd", "lea", "imul",
                          "movsd", "movss"), _move),
         **dict.fromkeys(_ALU, _alu), **dict.fromkeys((*_SCALAR, "pxor"), _sse),
         **dict.fromkeys(("shl", "shr", "sar"), _shift),
         **dict.fromkeys(("push", "pop", "call", "ret", "jmp"), _control),
         **{"j" + cc: _control for cc in (*isa.CC_NAMES, *isa.CC_ALIASES)}}


def statements(ins: Instruction, set_flags: bool,
               held: _Held | None = None) -> list[str] | None:
    """The statements that run ``ins`` (the last a ``return`` of the next
    ``rip`` where it transfers control), or None where it is not inlined;
    ``held`` is what the block's earlier statements leave in locals, and
    nothing when not given."""
    held = _Held() if held is None else held
    emit = _EMIT.get(ins.mnemonic)
    lines = None
    # a 16-byte access counts ``st.unaligned16``: the closure runs it
    if emit is not None and not any(isinstance(o, Mem) and o.size == 16
                                    for o in ins.operands):
        lines = emit(ins, set_flags, held)
    # a closure may store anywhere, and a register write moves the address
    if lines is None or held.stored is not None \
            and held.stored[2] & effects_of(ins).writes:
        held.stored = None
    if lines is None:  # and it may write any xmm register
        held.doubles.clear()
    return lines


def generate(run: list[Instruction], set_flags: list[bool],
             closures: tuple[Op, ...]) -> Op:
    """One function that runs the block ``run`` and returns the next
    ``rip``; ``set_flags`` is each instruction's flag-liveness choice and
    ``closures`` its bound closure, for the shapes not inlined."""
    ns = dict(_NS)
    held = _Held()
    body: list[str] = []
    last = len(run) - 1
    for k, ins in enumerate(run):
        lines = statements(ins, set_flags[k], held)
        control = effects_of(ins).control != "none"
        if lines is None:
            ns[f"o{k}"] = closures[k]
            lines = [f"{'return ' if control and k == last else ''}"
                     f"o{k}(st, mem)"]
        elif control and k < last:
            lines = lines[:-1]  # a transfer the run goes on through
        body += lines
    if not control:
        body.append(_FALL.format(end=run[-1].end))
    text = "\n".join(body)
    head = ["g = st.gpr", "x = st.xmm" if "x[" in text else "",
            "pg = mem._pages.get" if "pg(" in text else ""]
    src = "def _blk(st, mem):\n" + "\n".join(
        "    " + line for line in (*filter(None, head), *body))
    exec(compile(src, f"<block {run[0].addr:#x}>", "exec"), ns)
    return ns["_blk"]
