"""A hot block as one generated Python function.

:func:`generate` writes a block's decoded run out as the source of one
function, ``_blk(st, mem) -> next rip``, and compiles it.  ``g = st.gpr``
and ``x = st.xmm`` are bound once and written in place, so a fault
mid-block leaves the registers and event counters the closure chain
leaves.  The hot shapes (:func:`statements`) are inlined, and so is the
page look-up of their memory accesses, as ``Memory.read_uint``/
``write_uint`` do it (``mem._find`` on a miss raises their fault); every
other instruction calls the closure the block already holds, bound with
the same flag-liveness choice.  Each statement is its closure's expression
written out — the same masks, flag formulas and float conversions — and
``tests/cpu/test_block_codegen.py`` holds the two to each other.  The
inline look-up reads a plain :class:`~repro.mem.memory.Memory`'s buffers:
the simulator runs a generated function on nothing else.
"""

from __future__ import annotations

import struct

from repro.arith import to_signed
from repro.cpu.semantics import _F64, _PARITY, Op
from repro.cpu.state import MASK64, MASK128
from repro.mem.memory import _PAGE_SHIFT
from repro.x86 import isa
from repro.x86.effects import effects_of
from repro.x86.instr import Imm, Instruction, Mem, Reg

#: what every generated function's globals start from; ``U{w}``/``P{w}``
#: load and store ``w`` bytes at an offset of a region buffer
_NS: dict[str, object] = {"PAR": _PARITY, "FB": int.from_bytes,
                          "UP": _F64.unpack, "PK": _F64.pack,
                          "UD": _F64.unpack_from}
for _w, _f in ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q")):
    _NS[f"U{_w}"] = struct.Struct(_f).unpack_from
    _NS[f"P{_w}"] = struct.Struct(_f).pack_into

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


def _access(addr: str, width: int) -> list[str]:
    """Bind ``a`` to ``addr`` and ``h`` to its region: the access is at
    offset ``a - h[0]`` of ``h[2]``."""
    return [f"a = {addr}", f"h = pg(a >> {_PAGE_SHIFT})",
            f"if h is None or a < h[0] or a + {width} > h[1]: "
            f"h = mem._find(a, {width})"]


def _ea(m: Mem | str) -> str:
    """The effective address of ``m``, mod 2**64 (a string is one)."""
    if isinstance(m, str) or m.riprel or m.is_absolute:
        return m if isinstance(m, str) else str(m.disp & MASK64)
    terms = [f"g[{m.base.index}]"] if m.base is not None else []
    if m.index is not None:
        terms.append(f"g[{m.index.index}] * {m.scale}")
    return f"({' + '.join(terms)} + {m.disp}) & {MASK64}"


def _load(dst: str, m: Mem | str, width: int, sign: int = 0, mask: int = 0
          ) -> list[str]:
    """``dst = [m]``: ``width`` bytes, zero-extended, or sign-extended from
    ``sign`` and cut to ``mask``."""
    v = f"U{width}(h[2], a - h[0])[0]"
    if sign:
        v = f"(({v} ^ {sign}) - {sign}) & {mask}"
    return _access(_ea(m), width) + [f"{dst} = {v}"]


def _store(m: Mem | str, value: object, width: int) -> list[str]:
    """``[m] = value``, cut to ``width`` bytes."""
    return _access(_ea(m), width) + [
        f"P{width}(h[2], a - h[0], {value} & {_mask(width)})"]


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


def _move(ins: Instruction, flags: bool) -> list[str] | None:
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
        return None if d is None else [f"g[{d}] = {_ea(src)} & "
                                       f"{_mask(dst.size)}"]
    if m in ("movsd", "movss"):
        width, d, s = 8 if m == "movsd" else 4, _xmm(dst), _xmm(src)
        if isinstance(dst, Mem) and s is not None:
            return _store(dst, f"x[{s}]", width)
        if d is not None and isinstance(src, Mem):
            return _load(f"x[{d}]", src, width)
        if d is None or s is None:
            return None
        keep = MASK128 ^ _mask(width)
        return [f"x[{d}] = (x[{d}] & {keep}) | (x[{s}] & {_mask(width)})"]
    if m != "mov":  # movsx, movsxd, movzx
        sign = 0 if m == "movzx" else 1 << (src.size * 8 - 1)
        if d is not None and isinstance(src, Mem):
            return _load(f"g[{d}]", src, src.size, sign, _mask(dst.size))
        s = _gp(src, full=False)
        if d is None or s is None:
            return None
        return [f"g[{d}] = (((g[{s}] & {_mask(src.size)}) ^ {sign}) - "
                f"{sign}) & {_mask(dst.size)}"]
    if d is not None and isinstance(src, Mem):
        return _load(f"g[{d}]", src, src.size)
    if isinstance(dst, Mem) and _gp(src, full=False) is not None:
        return _store(dst, f"g[{src.index}]", dst.size)
    if d is not None and isinstance(src, Imm):
        return [f"g[{d}] = {src.value & _mask(dst.size)}"]
    if d is None or s is None:
        return None
    return [f"g[{d}] = g[{s}] & {_mask(min(dst.size, src.size))}"]


def _alu(ins: Instruction, flags: bool) -> list[str] | None:
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


def _sse(ins: Instruction, flags: bool) -> list[str] | None:
    """``addsd``/``subsd``/``mulsd`` and ``pxor`` on registers."""
    (dst, src), m = ins.operands, ins.mnemonic
    d, s = _xmm(dst), _xmm(src)
    if m == "pxor":
        return None if d is None or s is None else \
            [f"x[{d}] = x[{d}] ^ (x[{s}] & {MASK128})"]
    if d is None:
        return None
    if isinstance(src, Mem):
        lines = _access(_ea(src), 8) + ["b = UD(h[2], a - h[0])[0]"]
    elif s is not None:
        lines = [f'b = UP((x[{s}] & {MASK64}).to_bytes(8, "little"))[0]']
    else:
        return None
    return lines + [
        f"a = x[{d}]",
        f'r = UP((a & {MASK64}).to_bytes(8, "little"))[0] {_SCALAR[m]} b',
        f'x[{d}] = (a & {MASK128 ^ MASK64}) | FB(PK(r), "little")']


#: ``rsp`` moves down before the store that may fault, as in the closures
_DOWN = f"g[4] = (g[4] - 8) & {MASK64}"


def _control(ins: Instruction, flags: bool) -> list[str] | None:
    """``push``/``pop``/``call``/``ret`` and the direct jumps; the last
    statement of a transfer returns the next ``rip``."""
    m, fx = ins.mnemonic, effects_of(ins)
    pop = _load("v", "g[4]", 8) + [f"g[4] = (a + 8) & {MASK64}"]
    if m == "push":
        (src,) = ins.operands
        if isinstance(src, Imm):
            v = to_signed(src.value & MASK64, src.size * 8 or 32) & MASK64
        elif _gp(src) is not None and src.size == 8:
            v = f"g[{src.index}]"
        else:
            return None
        return [f"v = {v}", *_store(_DOWN, "v", 8)]
    if m == "pop":
        (dst,) = ins.operands
        return None if _gp(dst) is None or dst.size != 8 else \
            pop + [f"g[{dst.index}] = v"]
    if m == "call":
        return _store(_DOWN, ins.end, 8) + [f"return {fx.target}"]
    if m == "ret":
        return pop + ["return v"]
    if m == "jmp":
        return [f"return {fx.target}"]
    return _JCC.format(cond=_CC[fx.cc], target=fx.target,
                       fall=ins.end).split("\n")


#: mnemonic -> its statements, or None where the closure runs instead
_EMIT = {**dict.fromkeys(("mov", "movzx", "movsx", "movsxd", "lea", "imul",
                          "movsd", "movss"), _move),
         **dict.fromkeys(_ALU, _alu), **dict.fromkeys((*_SCALAR, "pxor"), _sse),
         **dict.fromkeys(("push", "pop", "call", "ret", "jmp"), _control),
         **{"j" + cc: _control for cc in (*isa.CC_NAMES, *isa.CC_ALIASES)}}


def statements(ins: Instruction, set_flags: bool) -> list[str] | None:
    """The statements that run ``ins`` (the last a ``return`` of the next
    ``rip`` where it transfers control), or None where it is not inlined."""
    emit = _EMIT.get(ins.mnemonic)
    if emit is None or any(isinstance(o, Mem) and o.size == 16
                           for o in ins.operands):
        return None  # a 16-byte access counts ``st.unaligned16``
    return emit(ins, set_flags)


def generate(run: list[Instruction], set_flags: list[bool],
             closures: tuple[Op, ...]) -> Op:
    """One function that runs the block ``run`` and returns the next
    ``rip``; ``set_flags`` is each instruction's flag-liveness choice and
    ``closures`` its bound closure, for the shapes not inlined."""
    ns = dict(_NS)
    body: list[str] = []
    last = len(run) - 1
    for k, ins in enumerate(run):
        lines = statements(ins, set_flags[k])
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
