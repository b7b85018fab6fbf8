"""TAC -> x86-64 emission.

Produces a label-resolved item stream for :func:`repro.x86.asm.assemble`.
The emitter owns the SysV frame protocol (prologue/epilogue, 16-byte call
alignment), spill-slot access through reserved scratch registers
(rax/rcx/rdx, xmm14/xmm15), and a parallel-move resolver for argument
shuffling at function entry and call sites.

Instruction-selection knobs live in :class:`EmitOptions`:

* ``mul_style='lea'`` synthesizes constant multiplies as lea/shl chains
  (GCC's ``synth_mult``, visible in the paper's Sec. VI-A observation);
  ``'imul'`` always uses one imul (LLVM's choice).
* ``const_addressing`` selects RIP-relative (compiler-style) or absolute
  (DBrew-style, Fig. 8) addressing for pool constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.backend.regalloc import AllocResult, Assignment, allocate
from repro.backend.tac import TAddr, TFunc, TInstr, VReg
from repro.errors import CodegenError
from repro.mem.layout import align_up
from repro.x86.asm import Item, Label, LabelRef
from repro.x86.instr import Imm, Instruction, Mem, Operand, Reg, gp, make, xmm
from repro.x86.registers import RAX, RBP, RCX, RDX, RSP, SYSV_INT_ARGS

_SCRATCH0, _SCRATCH1, _SCRATCH2 = RAX, RCX, RDX
_FSCRATCH0, _FSCRATCH1 = 14, 15


class ConstPool(Protocol):
    """Interning allocator for literal pool constants."""

    def f64(self, value: float) -> int:
        """Address of an 8-byte double constant."""
        ...

    def data(self, payload: bytes, align: int = 16) -> int:
        """Address of arbitrary rodata bytes."""
        ...


@dataclass(frozen=True)
class EmitOptions:
    """Code-generation style knobs (see module docstring)."""

    mul_style: str = "lea"  # 'lea' (GCC-like) or 'imul' (LLVM-like)
    const_addressing: str = "riprel"  # 'riprel' or 'absolute'


def _fits32(v: int) -> bool:
    return -(2**31) <= v < 2**31


# -- constant-multiply synthesis (GCC synth_mult flavour) -----------------------

# step kinds: ('scale', s) R=R*s via lea [R*s]; ('lea', s) R=R+R*s;
# ('leax', s) R=X+R*s; ('shl', k) R<<=k
_SynthStep = tuple[str, int]


def _synth_mult(imm: int, max_steps: int = 3) -> list[_SynthStep] | None:
    """Find a short lea/shl chain computing x*imm, or None."""
    if imm <= 0:
        return None
    from collections import deque

    start = 1
    seen = {start: []}
    queue: deque[int] = deque([start])
    while queue:
        m = queue.popleft()
        steps = seen[m]
        if m == imm:
            return steps
        if len(steps) >= max_steps:
            continue
        nexts: list[tuple[int, _SynthStep]] = []
        for s in (2, 4, 8):
            nexts.append((m * s, ("scale", s)))
        for s in (2, 4, 8):
            nexts.append((m * (s + 1), ("lea", s)))
        for s in (1, 2, 4, 8):
            nexts.append((m * s + 1, ("leax", s)))
        for k in range(1, 32):
            if m << k > imm:
                break
            nexts.append((m << k, ("shl", k)))
        for nm, step in nexts:
            if nm <= imm * 8 and nm not in seen:
                seen[nm] = steps + [step]
                queue.append(nm)
    return None


class _FrameLayout:
    """Offsets of frame objects and spill slots relative to rbp."""

    def __init__(self, func: TFunc, alloc: AllocResult) -> None:
        self.offsets: dict[int, int] = {}
        cursor = -8 * len(alloc.used_callee_saved)
        objects = list(func.frame_objects.items()) + list(alloc.spill_slots.items())
        # place large-alignment objects first for dense packing
        for slot, (size, align) in sorted(objects, key=lambda kv: -kv[1][1]):
            cursor -= size
            cursor = -align_up(-cursor, align)
            self.offsets[slot] = cursor
        below_saves = -cursor - 8 * len(alloc.used_callee_saved)
        pad = (-(8 * len(alloc.used_callee_saved) + below_saves)) % 16
        self.local_size = below_saves + pad


class Emitter:
    """Emits one TFunc as an item stream."""

    def __init__(
        self,
        func: TFunc,
        pool: ConstPool,
        options: EmitOptions = EmitOptions(),
        symbols: dict[str, int] | None = None,
    ) -> None:
        self.func = func
        self.pool = pool
        self.options = options
        self.symbols = symbols or {}
        self.alloc = allocate(func)
        self.frame = _FrameLayout(func, self.alloc)
        self.items: list[Item] = []
        self._epilogue = f".epilogue.{func.name}"
        self._label_prefix = f"{func.name}$"

    # -- item helpers -------------------------------------------------------

    def op(self, mnemonic: str, *operands: Operand | LabelRef) -> None:
        self.items.append(Instruction(mnemonic, tuple(operands)))  # type: ignore[arg-type]

    def label(self, name: str) -> None:
        self.items.append(Label(self._label_prefix + name))

    def labelref(self, name: str) -> LabelRef:
        return LabelRef(self._label_prefix + name)

    # -- location helpers --------------------------------------------------

    def _assignment(self, v: VReg) -> Assignment:
        try:
            return self.alloc.assignments[v]
        except KeyError:
            raise CodegenError(f"{self.func.name}: vreg {v!r} never assigned") from None

    def _slot_mem(self, slot: int, size: int) -> Mem:
        return Mem(size, base=gp(RBP), disp=self.frame.offsets[slot])

    def ireg(self, v: VReg, scratch: int = _SCRATCH0) -> Reg:
        """Integer vreg as a 64-bit register, loading spills into scratch."""
        a = self._assignment(v)
        if a.is_reg:
            return gp(a.value)
        self.op("mov", gp(scratch), self._slot_mem(a.value, 8))
        return gp(scratch)

    def iout(self, v: VReg) -> tuple[Reg, Callable[[], None]]:
        """Destination register + commit callback (stores spills back)."""
        a = self._assignment(v)
        if a.is_reg:
            return gp(a.value), lambda: None
        slot = a.value
        return gp(_SCRATCH2), lambda: self.op("mov", self._slot_mem(slot, 8), gp(_SCRATCH2))

    def freg(self, v: VReg, scratch: int = _FSCRATCH0) -> Reg:
        a = self._assignment(v)
        if a.is_reg:
            return xmm(a.value)
        size = 8 if v.cls == "f" else 16
        self.op("movsd" if v.cls == "f" else "movupd",
                xmm(scratch), self._slot_mem(a.value, size))
        return xmm(scratch)

    def fout(self, v: VReg) -> tuple[Reg, Callable[[], None]]:
        a = self._assignment(v)
        if a.is_reg:
            return xmm(a.value), lambda: None
        slot = a.value
        mn = "movsd" if v.cls == "f" else "movupd"
        sz = 8 if v.cls == "f" else 16
        return xmm(_FSCRATCH1), lambda: self.op(mn, self._slot_mem(slot, sz), xmm(_FSCRATCH1))

    def addr_mem(self, addr: TAddr, size: int, scratch: int = _SCRATCH1) -> Mem:
        """Materialize a TAddr as an x86 memory operand."""
        disp = addr.disp
        base = None
        if addr.base is not None:
            base = self.ireg(addr.base, scratch)
        index = None
        if addr.index is not None:
            index = self.ireg(addr.index, _SCRATCH2 if scratch != _SCRATCH2 else _SCRATCH1)
        if base is None and index is None and not _fits32(disp):
            self.op("mov", gp(scratch), Imm(disp, 8))
            return Mem(size, base=gp(scratch))
        return Mem(size, base=base, index=index, scale=addr.scale, disp=disp)

    def const_mem(self, addr: int, size: int) -> Mem:
        if self.options.const_addressing == "riprel":
            return Mem(size, disp=addr, riprel=True)
        return Mem(size, disp=addr)

    # -- parallel moves -----------------------------------------------------

    def _parallel_move(
        self, moves: list[tuple[object, object, str]]
    ) -> None:
        """Resolve moves (src, dst, cls) where src/dst are Reg or Mem.

        Registers may form cycles; memory never does (slots are unique).
        """

        def key(loc: object) -> object:
            if isinstance(loc, Reg):
                return (loc.kind, loc.index)
            return None  # memory locations never alias registers here

        pending = [m for m in moves if key(m[0]) != key(m[1]) or key(m[0]) is None]
        pending = [m for m in pending if not self._same_loc(m[0], m[1])]
        while pending:
            progressed = False
            for i, (src, dst, cls) in enumerate(pending):
                dst_key = key(dst)
                blocked = dst_key is not None and any(
                    key(s) == dst_key for s, _d, _c in pending[:i] + pending[i + 1:]
                )
                if not blocked:
                    self._move(src, dst, cls)
                    pending.pop(i)
                    progressed = True
                    break
            if not progressed:
                # cycle: rotate through scratch
                src, dst, cls = pending[0]
                scratch = gp(_SCRATCH0) if cls == "i" else xmm(_FSCRATCH0)
                self._move(src, scratch, cls)
                pending[0] = (scratch, dst, cls)
        return

    @staticmethod
    def _same_loc(a: object, b: object) -> bool:
        if isinstance(a, Reg) and isinstance(b, Reg):
            return a.kind == b.kind and a.index == b.index
        if isinstance(a, Mem) and isinstance(b, Mem):
            return a == b
        return False

    def _move(self, src: object, dst: object, cls: str) -> None:
        if isinstance(src, Mem) and isinstance(dst, Mem):
            scratch = gp(_SCRATCH0) if cls == "i" else xmm(_FSCRATCH0)
            self._move(src, scratch, cls)
            self._move(scratch, dst, cls)
            return
        if cls == "i":
            self.op("mov", dst, src)  # type: ignore[arg-type]
        elif cls == "f":
            self.op("movsd", dst, src)  # type: ignore[arg-type]
        else:
            self.op("movupd", dst, src)  # type: ignore[arg-type]

    def _loc(self, v: VReg) -> object:
        a = self._assignment(v)
        if v.cls == "i":
            return gp(a.value) if a.is_reg else self._slot_mem(a.value, 8)
        size = 8 if v.cls == "f" else 16
        return xmm(a.value) if a.is_reg else self._slot_mem(a.value, size)

    # -- prologue / epilogue ------------------------------------------------

    def _prologue(self) -> None:
        self.items.append(Label(self.func.name))
        self.op("push", gp(RBP))
        self.op("mov", gp(RBP), gp(RSP))
        for reg in self.alloc.used_callee_saved:
            self.op("push", gp(reg))
        if self.frame.local_size:
            self.op("sub", gp(RSP), Imm(self.frame.local_size))
        moves: list[tuple[object, object, str]] = []
        for i, v in enumerate(self.func.iparams):
            if v in self.alloc.assignments:
                moves.append((gp(SYSV_INT_ARGS[i]), self._loc(v), "i"))
        for i, v in enumerate(self.func.fparams):
            if v in self.alloc.assignments:
                moves.append((xmm(i), self._loc(v), "f"))
        self._parallel_move(moves)

    def _emit_epilogue(self) -> None:
        self.items.append(Label(self._label_prefix + self._epilogue))
        if self.frame.local_size:
            self.op("add", gp(RSP), Imm(self.frame.local_size))
        for reg in reversed(self.alloc.used_callee_saved):
            self.op("pop", gp(reg))
        self.op("pop", gp(RBP))
        self.op("ret")

    # -- main loop ------------------------------------------------------------

    def run(self) -> list[Item]:
        self._prologue()
        for blk in self.func.blocks:
            self.label(blk.label)
            for ins in blk.instrs:
                self._instr(ins)
        self._emit_epilogue()
        return peephole(self.items)

    # -- per-op emission ---------------------------------------------------------

    def _instr(self, ins: TInstr) -> None:
        handler = getattr(self, f"_op_{ins.op}", None)
        if handler is None:
            raise CodegenError(f"no emitter for TAC op {ins.op!r}")
        handler(ins)

    def _op_li(self, ins: TInstr) -> None:
        dst, commit = self.iout(ins.dst)
        if ins.imm == 0:
            self.op("xor", dst.with_size(4), dst.with_size(4))
        else:
            self.op("mov", dst, Imm(ins.imm, 8 if not _fits32(ins.imm) else 4))
        commit()

    def _op_lf(self, ins: TInstr) -> None:
        dst, commit = self.fout(ins.dst)
        if ins.fimm == 0.0 and not _is_negzero(ins.fimm):
            self.op("pxor", dst, dst)
        else:
            addr = self.pool.f64(ins.fimm)
            self.op("movsd", dst, self.const_mem(addr, 8))
        commit()

    def _op_mov(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg) and ins.dst is not None
        self._parallel_move([(self._loc(ins.a), self._loc(ins.dst), ins.dst.cls)])

    _COMMUTATIVE = {"add", "and", "or", "xor", "mul"}
    _INT_MNEM = {"add": "add", "sub": "sub", "and": "and", "or": "or",
                 "xor": "xor", "shl": "shl", "shr": "shr", "sar": "sar"}

    def _int_binop(self, ins: TInstr, mnemonic: str) -> None:
        dst, commit = self.iout(ins.dst)
        a = ins.a
        b = ins.b
        # width 4 selects 32-bit operation forms, whose register writes
        # zero-extend — keeping narrow IR values in canonical zext form for
        # free, exactly like hardware (Fig. 4a)
        w = 4 if ins.width == 4 else 8
        dw = dst.with_size(w)
        if mnemonic in ("shl", "shr", "sar") and isinstance(b, VReg):
            # variable shift count must be in cl
            self.op("mov", gp(RCX), self.ireg(b, _SCRATCH1))
            self._load_int(dst, a)
            self.op(mnemonic, dw, gp(RCX, 1))
            commit()
            return
        if isinstance(b, int):
            self._load_int(dst, a)
            if mnemonic in ("shl", "shr", "sar"):
                self.op(mnemonic, dw, Imm(b & 63, 1))
            elif _fits32(b):
                self.op(mnemonic, dw, Imm(b))
            else:
                self.op("mov", gp(_SCRATCH1), Imm(b, 8))
                self.op(mnemonic, dw, gp(_SCRATCH1, w))
            commit()
            return
        assert isinstance(b, VReg)
        breg = self.ireg(b, _SCRATCH1)
        if isinstance(a, VReg):
            areg_assign = self._assignment(a)
            if (not areg_assign.is_reg or areg_assign.value != dst.index) and \
                    breg.index == dst.index:
                if mnemonic in self._COMMUTATIVE:
                    self.op(mnemonic, dw, self.ireg(a, _SCRATCH2).with_size(w))
                    commit()
                    return
                # non-commutative with b in dst: go through scratch
                tmp = gp(_SCRATCH2)
                self._load_int(tmp, a)
                self.op(mnemonic, tmp.with_size(w), breg.with_size(w))
                self.op("mov", dst, tmp)
                commit()
                return
        self._load_int(dst, a)
        self.op(mnemonic, dw, breg.with_size(w))
        commit()

    def _load_int(self, dst: Reg, a: object) -> None:
        if isinstance(a, VReg):
            src = self._loc(a)
            if not (isinstance(src, Reg) and src.index == dst.index):
                self.op("mov", dst, src)  # type: ignore[arg-type]
        elif isinstance(a, int):
            if a == 0:
                self.op("xor", dst.with_size(4), dst.with_size(4))
            else:
                self.op("mov", dst, Imm(a, 8 if not _fits32(a) else 4))
        else:
            raise CodegenError(f"bad int operand {a!r}")

    def _op_add(self, ins: TInstr) -> None:
        self._int_binop(ins, "add")

    def _op_sub(self, ins: TInstr) -> None:
        self._int_binop(ins, "sub")

    def _op_and(self, ins: TInstr) -> None:
        self._int_binop(ins, "and")

    def _op_or(self, ins: TInstr) -> None:
        self._int_binop(ins, "or")

    def _op_xor(self, ins: TInstr) -> None:
        self._int_binop(ins, "xor")

    def _op_shl(self, ins: TInstr) -> None:
        self._int_binop(ins, "shl")

    def _op_shr(self, ins: TInstr) -> None:
        self._int_binop(ins, "shr")

    def _op_sar(self, ins: TInstr) -> None:
        self._int_binop(ins, "sar")

    def _op_mul(self, ins: TInstr) -> None:
        dst, commit = self.iout(ins.dst)
        a, b = ins.a, ins.b
        w = 4 if ins.width == 4 else 8
        dw = dst.with_size(w)
        if isinstance(a, int):
            a, b = b, a
        if isinstance(b, int):
            assert isinstance(a, VReg)
            if self.options.mul_style == "lea" and w == 8:
                steps = _synth_mult(b)
                if steps is not None:
                    self._emit_synth_mult(dst, a, steps)
                    commit()
                    return
            src = self._loc(a)
            if isinstance(src, Reg) and _fits32(b):
                self.op("imul", dw, src.with_size(w), Imm(b))
            else:
                self._load_int(dst, a)
                if _fits32(b):
                    self.op("imul", dw, dw, Imm(b))
                else:
                    self.op("mov", gp(_SCRATCH1), Imm(b, 8))
                    self.op("imul", dst, gp(_SCRATCH1))
            commit()
            return
        assert isinstance(a, VReg) and isinstance(b, VReg)
        breg = self.ireg(b, _SCRATCH1)
        if breg.index == dst.index:
            self.op("imul", dw, self.ireg(a, _SCRATCH2).with_size(w))
        else:
            self._load_int(dst, a)
            self.op("imul", dw, breg.with_size(w))
        commit()

    def _emit_synth_mult(self, dst: Reg, a: VReg, steps: list[_SynthStep]) -> None:
        """GCC-style multiply-by-constant as lea/shl chain."""
        x = self.ireg(a, _SCRATCH1)
        if not steps:
            # imm == 1: the chain is empty, but dst must still receive the
            # multiplicand — falling through would leave dst unwritten
            if x.index != dst.index:
                self.op("mov", dst, x)
            return
        if x.index == dst.index:
            # need the original value later; stash it
            self.op("mov", gp(_SCRATCH1), x)
            x = gp(_SCRATCH1)
        cur = dst
        first = True
        for kind, s in steps:
            if first:
                if kind == "scale":
                    self.op("lea", cur, Mem(8, index=x, scale=s))
                elif kind == "lea":
                    self.op("lea", cur, Mem(8, base=x, index=x, scale=s))
                elif kind == "leax":
                    # m = 1*s + 1
                    self.op("lea", cur, Mem(8, base=x, index=x, scale=s))
                else:  # shl
                    self.op("mov", cur, x)
                    self.op("shl", cur, Imm(s, 1))
                first = False
                continue
            if kind == "scale":
                self.op("lea", cur, Mem(8, index=cur, scale=s))
            elif kind == "lea":
                self.op("lea", cur, Mem(8, base=cur, index=cur, scale=s))
            elif kind == "leax":
                self.op("lea", cur, Mem(8, base=x, index=cur, scale=s))
            else:
                self.op("shl", cur, Imm(s, 1))

    def _op_div(self, ins: TInstr) -> None:
        self._divrem(ins, want_rem=False)

    def _op_rem(self, ins: TInstr) -> None:
        self._divrem(ins, want_rem=True)

    def _divrem(self, ins: TInstr, want_rem: bool) -> None:
        w = 4 if ins.width == 4 else 8
        self._load_int(gp(RAX), ins.a)
        if isinstance(ins.b, int):
            self.op("mov", gp(RCX), Imm(ins.b, 8 if not _fits32(ins.b) else 4))
            breg = gp(RCX)
        else:
            assert isinstance(ins.b, VReg)
            breg = self.ireg(ins.b, _SCRATCH1)
        self.op("cqo" if w == 8 else "cdq")
        self.op("idiv", breg.with_size(w))
        dst, commit = self.iout(ins.dst)
        src_reg = RDX if want_rem else RAX
        if w == 4:
            self.op("mov", dst.with_size(4), gp(src_reg, 4))
        else:
            self.op("mov", dst, gp(src_reg))
        commit()

    def _op_neg(self, ins: TInstr) -> None:
        dst, commit = self.iout(ins.dst)
        self._load_int(dst, ins.a)
        self.op("neg", dst)
        commit()

    def _op_not(self, ins: TInstr) -> None:
        dst, commit = self.iout(ins.dst)
        self._load_int(dst, ins.a)
        self.op("not", dst)
        commit()

    def _op_ext(self, ins: TInstr) -> None:
        dst, commit = self.iout(ins.dst)
        assert isinstance(ins.a, VReg)
        src = self.ireg(ins.a, _SCRATCH1)
        if ins.width == 8:
            if src.index != dst.index:
                self.op("mov", dst, src)
        elif ins.width == 4:
            if ins.signed:
                self.op("movsxd", dst, src.with_size(4))
            else:
                self.op("mov", dst.with_size(4), src.with_size(4))
        elif ins.signed:
            self.op("movsx", dst, src.with_size(ins.width))
        else:
            self.op("movzx", dst.with_size(4), src.with_size(ins.width))
        commit()

    def _cmp(self, a: object, b: object, width: int = 8) -> None:
        w = 4 if width == 4 else 8
        if isinstance(a, int):
            self.op("mov", gp(_SCRATCH2), Imm(a, 8 if not _fits32(a) else 4))
            areg: Reg = gp(_SCRATCH2)
        else:
            assert isinstance(a, VReg)
            areg = self.ireg(a, _SCRATCH2)
        areg = areg.with_size(w)
        if isinstance(b, int):
            if _fits32(b):
                self.op("cmp", areg, Imm(b))
            else:
                self.op("mov", gp(_SCRATCH1), Imm(b, 8))
                self.op("cmp", areg, gp(_SCRATCH1, w))
        else:
            assert isinstance(b, VReg)
            self.op("cmp", areg, self.ireg(b, _SCRATCH1).with_size(w))

    def _op_setcc(self, ins: TInstr) -> None:
        self._cmp(ins.a, ins.b, ins.width)
        dst, commit = self.iout(ins.dst)
        self.op("set" + ins.cc, gp(_SCRATCH1, 1))
        self.op("movzx", dst.with_size(4), gp(_SCRATCH1, 1))
        commit()

    def _op_br(self, ins: TInstr) -> None:
        self._cmp(ins.a, ins.b, ins.width)
        lt, lf = ins.labels
        self.op("j" + ins.cc, self.labelref(lt))
        self.op("jmp", self.labelref(lf))

    def _op_fbr(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg) and isinstance(ins.b, VReg)
        areg = self.freg(ins.a, _FSCRATCH0)
        breg = self.freg(ins.b, _FSCRATCH1)
        self.op("ucomisd", areg, breg)
        lt, lf = ins.labels
        self.op("j" + ins.cc, self.labelref(lt))
        self.op("jmp", self.labelref(lf))

    def _op_jmp(self, ins: TInstr) -> None:
        self.op("jmp", self.labelref(ins.labels[0]))

    def _op_load(self, ins: TInstr) -> None:
        assert ins.addr is not None
        mem = self.addr_mem(ins.addr, ins.width)
        dst, commit = self.iout(ins.dst)
        if ins.width == 8:
            self.op("mov", dst, mem)
        elif ins.width == 4:
            if ins.signed:
                self.op("movsxd", dst, mem)
            else:
                self.op("mov", dst.with_size(4), mem)
        elif ins.signed:
            self.op("movsx", dst, mem)  # extend to the full 64-bit invariant
        else:
            self.op("movzx", dst.with_size(4), mem)
        commit()

    def _op_store(self, ins: TInstr) -> None:
        assert ins.addr is not None
        mem = self.addr_mem(ins.addr, ins.width)
        if isinstance(ins.a, int):
            if _fits32(ins.a):
                self.op("mov", mem, Imm(ins.a, min(ins.width, 4)))
            else:
                self.op("mov", gp(_SCRATCH0), Imm(ins.a, 8))
                self.op("mov", mem, gp(_SCRATCH0))
            return
        assert isinstance(ins.a, VReg)
        src = self.ireg(ins.a, _SCRATCH0)
        self.op("mov", mem, src.with_size(ins.width))

    def _op_fload(self, ins: TInstr) -> None:
        assert ins.addr is not None
        mem = self.addr_mem(ins.addr, 8)
        dst, commit = self.fout(ins.dst)
        self.op("movsd", dst, mem)
        commit()

    def _op_fstore(self, ins: TInstr) -> None:
        assert ins.addr is not None and isinstance(ins.a, VReg)
        mem = self.addr_mem(ins.addr, 8)
        self.op("movsd", mem, self.freg(ins.a))

    def _op_lea(self, ins: TInstr) -> None:
        assert ins.addr is not None
        dst, commit = self.iout(ins.dst)
        mem = self.addr_mem(ins.addr, 8)
        if mem.base is None and mem.index is None and not mem.riprel:
            self.op("mov", dst, Imm(mem.disp, 8 if not _fits32(mem.disp) else 4))
        else:
            self.op("lea", dst, mem)
        commit()

    def _op_frame(self, ins: TInstr) -> None:
        dst, commit = self.iout(ins.dst)
        self.op("lea", dst, Mem(8, base=gp(RBP), disp=self.frame.offsets[ins.slot]))
        commit()

    def _fbinop(self, ins: TInstr, mnemonic: str) -> None:
        assert isinstance(ins.a, VReg) and isinstance(ins.b, VReg)
        dst, commit = self.fout(ins.dst)
        a_assign = self._assignment(ins.a)
        b_assign = self._assignment(ins.b)
        commutative = mnemonic in ("addsd", "mulsd", "addpd", "mulpd")
        if b_assign.is_reg and b_assign.value == dst.index and \
                not (a_assign.is_reg and a_assign.value == dst.index):
            if commutative:
                self.op(mnemonic, dst, self.freg(ins.a, _FSCRATCH0))
                commit()
                return
            tmp = xmm(_FSCRATCH0)
            self._move(self._loc(ins.a), tmp, ins.dst.cls)
            self.op(mnemonic, tmp, self.freg(ins.b, _FSCRATCH1))
            self._move(tmp, dst, ins.dst.cls)
            commit()
            return
        self._move_if_needed(ins.a, dst, ins.dst.cls)
        self.op(mnemonic, dst, self.freg(ins.b, _FSCRATCH1))
        commit()

    def _move_if_needed(self, src: VReg, dst: Reg, cls: str) -> None:
        loc = self._loc(src)
        if isinstance(loc, Reg) and loc.index == dst.index:
            return
        self._move(loc, dst, cls)

    def _op_fadd(self, ins: TInstr) -> None:
        self._fbinop(ins, "addsd")

    def _op_fsub(self, ins: TInstr) -> None:
        self._fbinop(ins, "subsd")

    def _op_fmul(self, ins: TInstr) -> None:
        self._fbinop(ins, "mulsd")

    def _op_fdiv(self, ins: TInstr) -> None:
        self._fbinop(ins, "divsd")

    def _op_fneg(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg)
        dst, commit = self.fout(ins.dst)
        sign_mask = (0x8000000000000000).to_bytes(8, "little") * 2
        addr = self.pool.data(sign_mask, align=16)
        self._move_if_needed(ins.a, dst, "f")
        self.op("xorpd", dst, self.const_mem(addr, 16))
        commit()

    def _op_i2f(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg)
        dst, commit = self.fout(ins.dst)
        self.op("cvtsi2sd", dst, self.ireg(ins.a))
        commit()

    def _op_f2i(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg)
        dst, commit = self.iout(ins.dst)
        self.op("cvttsd2si", dst, self.freg(ins.a))
        commit()

    def _op_call(self, ins: TInstr) -> None:
        moves: list[tuple[object, object, str]] = []
        for i, v in enumerate(ins.iargs):
            moves.append((self._loc(v), gp(SYSV_INT_ARGS[i]), "i"))
        for i, v in enumerate(ins.fargs):
            moves.append((self._loc(v), xmm(i), "f"))
        self._parallel_move(moves)
        if ins.func in self.symbols:
            self.op("call", Imm(self.symbols[ins.func], 8))
        else:
            self.op("call", LabelRef(ins.func))
        if ins.dst is not None:
            if ins.dst.cls == "i":
                self._parallel_move([(gp(RAX), self._loc(ins.dst), "i")])
            else:
                self._parallel_move([(xmm(0), self._loc(ins.dst), "f")])

    def _op_ret(self, ins: TInstr) -> None:
        if ins.a is not None:
            if isinstance(ins.a, int):
                self.op("mov", gp(RAX), Imm(ins.a, 8 if not _fits32(ins.a) else 4))
            elif ins.a.cls == "i":
                self._parallel_move([(self._loc(ins.a), gp(RAX), "i")])
            else:
                self._parallel_move([(self._loc(ins.a), xmm(0), "f")])
        self.op("jmp", self.labelref(self._epilogue))

    # -- vector ops -----------------------------------------------------------

    def _op_vload(self, ins: TInstr) -> None:
        assert ins.addr is not None
        mem = self.addr_mem(ins.addr, 16)
        dst, commit = self.fout(ins.dst)
        self.op("movapd" if ins.aligned else "movupd", dst, mem)
        commit()

    def _op_vload_split(self, ins: TInstr) -> None:
        """Conservative unaligned vector load: movsd + movhpd pair."""
        assert ins.addr is not None
        lo = self.addr_mem(ins.addr, 8)
        from dataclasses import replace as _replace
        hi = _replace(lo, disp=lo.disp + 8)
        dst, commit = self.fout(ins.dst)
        self.op("movsd", dst, lo)
        self.op("movhpd", dst, hi)
        commit()

    def _op_vstore(self, ins: TInstr) -> None:
        assert ins.addr is not None and isinstance(ins.a, VReg)
        mem = self.addr_mem(ins.addr, 16)
        self.op("movapd" if ins.aligned else "movupd", mem, self.freg(ins.a))

    def _op_vadd(self, ins: TInstr) -> None:
        self._fbinop(ins, "addpd")

    def _op_vsub(self, ins: TInstr) -> None:
        self._fbinop(ins, "subpd")

    def _op_vmul(self, ins: TInstr) -> None:
        self._fbinop(ins, "mulpd")

    def _op_vbroadcast(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg)
        dst, commit = self.fout(ins.dst)
        self._move_if_needed(ins.a, dst, "f")
        self.op("unpcklpd", dst, dst)
        commit()

    def _op_vlow(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg)
        dst, commit = self.fout(ins.dst)
        self._move_if_needed(ins.a, dst, "f")
        commit()

    def _op_vhadd(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg)
        dst, commit = self.fout(ins.dst)
        self._move_if_needed(ins.a, dst, "v")
        self.op("haddpd", dst, dst)
        commit()

    def _op_vhigh(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg)
        dst, commit = self.fout(ins.dst)
        self._move_if_needed(ins.a, dst, "v")
        self.op("unpckhpd", dst, dst)
        commit()

    def _op_vxor(self, ins: TInstr) -> None:
        self._vbitop(ins, "pxor")

    def _op_vand(self, ins: TInstr) -> None:
        self._vbitop(ins, "pand")

    def _op_vor(self, ins: TInstr) -> None:
        self._vbitop(ins, "por")

    def _vbitop(self, ins: TInstr, mnemonic: str) -> None:
        assert isinstance(ins.a, VReg) and isinstance(ins.b, VReg)
        dst, commit = self.fout(ins.dst)
        b_assign = self._assignment(ins.b)
        if b_assign.is_reg and b_assign.value == dst.index:
            self.op(mnemonic, dst, self.freg(ins.a, _FSCRATCH0))  # commutative
        else:
            self._move_if_needed(ins.a, dst, "v")
            self.op(mnemonic, dst, self.freg(ins.b, _FSCRATCH1))
        commit()

    def _op_vinsert0(self, ins: TInstr) -> None:
        # dst = [b, a.high]
        assert isinstance(ins.a, VReg) and isinstance(ins.b, VReg)
        dst, commit = self.fout(ins.dst)
        b_assign = self._assignment(ins.b)
        if b_assign.is_reg and b_assign.value == dst.index:
            # the scalar already sits in dst's low lane: merge a's high lane
            tmp = xmm(_FSCRATCH0)
            self._move(self._loc(ins.a), tmp, "v")
            self.op("movsd", tmp, self.freg(ins.b, _FSCRATCH1))
            self._move(tmp, dst, "v")
        else:
            self._move_if_needed(ins.a, dst, "v")
            self.op("movsd", dst, self.freg(ins.b, _FSCRATCH1))
        commit()

    def _op_vinsert1(self, ins: TInstr) -> None:
        # dst = [a.low, b]
        assert isinstance(ins.a, VReg) and isinstance(ins.b, VReg)
        dst, commit = self.fout(ins.dst)
        b_assign = self._assignment(ins.b)
        if b_assign.is_reg and b_assign.value == dst.index:
            tmp = xmm(_FSCRATCH0)
            self._move(self._loc(ins.a), tmp, "v")
            self.op("unpcklpd", tmp, self.freg(ins.b, _FSCRATCH1))
            self._move(tmp, dst, "v")
        else:
            self._move_if_needed(ins.a, dst, "v")
            self.op("unpcklpd", dst, self.freg(ins.b, _FSCRATCH1))
        commit()

    def _op_vshuf(self, ins: TInstr) -> None:
        # dst = [a[imm&1], b[(imm>>1)&1]]
        assert isinstance(ins.a, VReg) and isinstance(ins.b, VReg)
        dst, commit = self.fout(ins.dst)
        b_assign = self._assignment(ins.b)
        if b_assign.is_reg and b_assign.value == dst.index and ins.a != ins.b:
            tmp = xmm(_FSCRATCH0)
            self._move(self._loc(ins.a), tmp, "v")
            self.op("shufpd", tmp, self.freg(ins.b, _FSCRATCH1), Imm(ins.imm, 1))
            self._move(tmp, dst, "v")
        else:
            self._move_if_needed(ins.a, dst, "v")
            self.op("shufpd", dst, self.freg(ins.b, _FSCRATCH1), Imm(ins.imm, 1))
        commit()

    def _op_cmp(self, ins: TInstr) -> None:
        self._cmp(ins.a, ins.b, ins.width)

    def _op_cmov(self, ins: TInstr) -> None:
        # dst must already hold the else-value; only flag-preserving movs may
        # be emitted here (spill reloads are plain movs, which are fine)
        dst, commit = self.iout(ins.dst)
        a = self._assignment(ins.dst)
        if not a.is_reg:
            # reload current dst value without touching flags
            self.op("mov", dst, self._slot_mem(a.value, 8))
        assert isinstance(ins.a, VReg)
        self.op("cmov" + ins.cc, dst, self.ireg(ins.a, _SCRATCH1))
        commit()

    def _op_fsetcc(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg) and isinstance(ins.b, VReg)
        self.op("ucomisd", self.freg(ins.a, _FSCRATCH0), self.freg(ins.b, _FSCRATCH1))
        dst, commit = self.iout(ins.dst)
        self.op("set" + ins.cc, gp(_SCRATCH1, 1))
        self.op("movzx", dst.with_size(4), gp(_SCRATCH1, 1))
        commit()

    def _op_bits2f(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg)
        dst, commit = self.fout(ins.dst)
        self.op("movq", dst, self.ireg(ins.a))
        commit()

    def _op_f2bits(self, ins: TInstr) -> None:
        assert isinstance(ins.a, VReg)
        dst, commit = self.iout(ins.dst)
        self.op("movq", dst, self.freg(ins.a))
        commit()


def _is_negzero(v: float) -> bool:
    import struct as _s
    return _s.pack("<d", v) == _s.pack("<d", -0.0)


def peephole(items: list[Item]) -> list[Item]:
    """Cheap cleanups: drop self-moves, invert branch+jump pairs whose
    conditional target is the fall-through label, drop jumps to next label."""
    from repro.x86 import isa as _isa

    out: list[Item] = []
    for it in items:
        if isinstance(it, Instruction):
            if it.mnemonic in ("mov", "movsd", "movapd", "movupd") and len(it.operands) == 2:
                a, b = it.operands
                if isinstance(a, Reg) and isinstance(b, Reg) and \
                        a.kind == b.kind and a.index == b.index and a.size == b.size:
                    # NOT a no-op for 32-bit GPR moves: `mov esi, esi`
                    # zero-extends into the upper half (Fig. 4a)
                    if a.kind == "xmm" or a.size == 8:
                        continue
        out.append(it)

    # invert [jcc X; jmp Y; X:] -> [j!cc Y; X:] so loop bodies fall through
    inverted: list[Item] = []
    i = 0
    while i < len(out):
        it = out[i]
        if (
            isinstance(it, Instruction)
            and _isa.control_class(it.mnemonic) == "jcc"
            and i + 2 < len(out)
            and isinstance(out[i + 1], Instruction)
            and out[i + 1].mnemonic == "jmp"  # type: ignore[union-attr]
            and isinstance(out[i + 2], Label)
            and isinstance(it.operands[0], LabelRef)
            and out[i + 2].name == it.operands[0].name  # type: ignore[union-attr]
        ):
            cc = _isa.cc_of(it.mnemonic)
            assert cc is not None
            inv = _isa.CC_NAMES[_isa.CC_INDEX[cc] ^ 1]  # flip the low bit
            jmp_target = out[i + 1].operands[0]  # type: ignore[union-attr]
            inverted.append(Instruction("j" + inv, (jmp_target,)))
            inverted.append(out[i + 2])
            i += 3
            continue
        inverted.append(it)
        i += 1
    out = inverted
    # remove jmp-to-next-label
    result: list[Item] = []
    for i, it in enumerate(out):
        if isinstance(it, Instruction) and it.mnemonic == "jmp" and it.operands:
            target = it.operands[0]
            if isinstance(target, LabelRef):
                j = i + 1
                skip = False
                while j < len(out) and isinstance(out[j], Label):
                    if out[j].name == target.name:  # type: ignore[union-attr]
                        skip = True
                        break
                    j += 1
                if skip:
                    continue
        result.append(it)
    return result


def emit_function(
    func: TFunc,
    pool: ConstPool,
    options: EmitOptions = EmitOptions(),
    symbols: dict[str, int] | None = None,
) -> list[Item]:
    """Emit one TAC function as an assembler item stream."""
    return Emitter(func, pool, options, symbols).run()


@dataclass
class EmitInfo:
    """Register-allocation and frame facts the machine verifier needs:
    vreg assignments, frame-slot offsets and sizes, and the prologue shape."""

    assignments: dict[VReg, Assignment]
    frame_offsets: dict[int, int]          # slot id -> rbp-relative offset
    slot_sizes: dict[int, tuple[int, int]]  # slot id -> (size, align)
    local_size: int
    used_callee_saved: tuple[int, ...]


def emit_function_info(
    func: TFunc,
    pool: ConstPool,
    options: EmitOptions = EmitOptions(),
    symbols: dict[str, int] | None = None,
) -> tuple[list[Item], EmitInfo]:
    """Like :func:`emit_function`, also returning allocation/frame facts."""
    em = Emitter(func, pool, options, symbols)
    items = em.run()
    slot_sizes = dict(func.frame_objects)
    slot_sizes.update(em.alloc.spill_slots)
    info = EmitInfo(
        assignments=dict(em.alloc.assignments),
        frame_offsets=dict(em.frame.offsets),
        slot_sizes=slot_sizes,
        local_size=em.frame.local_size,
        used_callee_saved=tuple(em.alloc.used_callee_saved),
    )
    return items, info
