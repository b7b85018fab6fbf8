"""IR -> TAC lowering: out-of-SSA conversion and instruction selection.

Value-class mapping: i1..i64 and pointers -> 'i' (64-bit GPR, values kept
*zero-extended* to 64 bits as the canonical form); double -> 'f'; i128 and
16-byte vectors -> 'v'.  Signed operations (sdiv, ashr, signed icmp,
sitofp) sign-extend their inputs on demand.

Phi elimination inserts parallel copies on each incoming edge; critical
edges are split first so the copies execute only on the intended path.
"""

from __future__ import annotations

from repro.backend.tac import TAddr, TBlock, TFunc, TInstr, VReg
from repro.errors import CodegenError
from repro.ir import instructions as I
from repro.ir.irtypes import (
    DoubleType, FloatType, IntType, PointerType, Type, VectorType,
)
from repro.ir.module import BasicBlock, Function, GlobalVariable
from repro.ir.values import Argument, Constant, ConstantFP, Undef, Value


def _cls_of(t: Type) -> str:
    if isinstance(t, (DoubleType,)):
        return "f"
    if isinstance(t, FloatType):
        raise CodegenError("binary32 float codegen is outside the subset")
    if isinstance(t, VectorType) or (isinstance(t, IntType) and t.bits == 128):
        if t.size_bytes() != 16:
            raise CodegenError(f"unsupported vector width {t}")
        return "v"
    if isinstance(t, (IntType, PointerType)):
        return "i"
    raise CodegenError(f"cannot lower values of type {t}")


def split_critical_edges(func: Function) -> None:
    """Insert empty blocks on edges from multi-succ blocks to multi-pred
    blocks so phi copies have a unique home."""
    preds: dict[int, list[BasicBlock]] = {}
    for b in func.blocks:
        for s in b.successors():
            preds.setdefault(id(s), []).append(b)
    for blk in list(func.blocks):
        term = blk.terminator
        if not isinstance(term, I.Br) or not term.is_conditional:
            continue
        for ti, target in enumerate(list(term.targets)):
            if len(preds.get(id(target), [])) <= 1 or not target.phis():
                continue
            mid = BasicBlock(func.next_name(f"crit.{blk.name}.{target.name}"))
            mid.function = func
            jmp = I.Br(None, target)
            jmp.block = mid
            mid.instructions.append(jmp)
            term.targets[ti] = mid
            for phi in target.phis():
                for i, ib in enumerate(phi.incoming_blocks):
                    if ib is blk:
                        phi.incoming_blocks[i] = mid
            func.blocks.insert(func.blocks.index(target), mid)
            func.bump_version()  # the predecessor map is stale


class Lowerer:
    def __init__(self, func: Function, *, split_unaligned: bool = True) -> None:
        self.func = func
        self.tf = TFunc(name=func.name)
        self.vmap: dict[int, VReg] = {}
        self.alloca_slots: dict[int, int] = {}  # id(Alloca) -> frame slot
        self.block_map: dict[int, TBlock] = {}
        self.current: TBlock | None = None
        #: LLVM-style conservative lowering of align-1 vector loads into a
        #: movsd+movhpd pair (vs GCC's movupd) — part of the Sec. VI-B
        #: forced-vectorization overhead
        self.split_unaligned = split_unaligned

    # -- helpers -------------------------------------------------------------

    def emit(self, **kw: object) -> TInstr:
        ins = TInstr(**kw)  # type: ignore[arg-type]
        assert self.current is not None
        self.current.instrs.append(ins)
        return ins

    def vreg(self, value: Value) -> VReg:
        v = self.vmap.get(id(value))
        if v is None:
            v = self.tf.new_vreg(_cls_of(value.type))
            self.vmap[id(value)] = v
        return v

    def alias(self, ins: I.Instruction, v: VReg) -> None:
        """Let ``ins`` share the vreg ``v`` of the value it merely renames.

        A phi copy may have read ``ins`` ahead of its definition — a split
        critical edge into a loop header is laid out, and lowered, before
        the header — and then ``ins`` already has a vreg the copy refers
        to: that one stays and receives a move."""
        home = self.vmap.setdefault(id(ins), v)
        if home != v:
            self.emit(op="mov", dst=home, a=v)

    def value(self, value: Value) -> VReg:
        """Materialize an IR value into a vreg (constants emit loads)."""
        if isinstance(value, Constant):
            if _cls_of(value.type) == "v":
                # i128 constant: build the vector from its 64-bit halves
                lo_bits = value.value & (2**64 - 1)
                hi_bits = value.value >> 64
                lo_i = self.tf.new_vreg("i")
                self.emit(op="li", dst=lo_i, imm=lo_bits)
                lo_f = self.tf.new_vreg("f")
                self.emit(op="bits2f", dst=lo_f, a=lo_i)
                v = self.tf.new_vreg("v")
                self.emit(op="vbroadcast", dst=v, a=lo_f)
                if hi_bits != lo_bits:
                    hi_i = self.tf.new_vreg("i")
                    self.emit(op="li", dst=hi_i, imm=hi_bits)
                    hi_f = self.tf.new_vreg("f")
                    self.emit(op="bits2f", dst=hi_f, a=hi_i)
                    v2 = self.tf.new_vreg("v")
                    self.emit(op="vinsert1", dst=v2, a=v, b=hi_f)
                    return v2
                return v
            v = self.tf.new_vreg("i")
            self.emit(op="li", dst=v, imm=value.value)
            return v
        if isinstance(value, ConstantFP):
            v = self.tf.new_vreg("f")
            self.emit(op="lf", dst=v, fimm=value.value)
            return v
        from repro.ir.values import ConstantVector
        if isinstance(value, ConstantVector):
            elems = value.elements
            v = self.tf.new_vreg("v")
            lo = self.tf.new_vreg("f")
            e0 = elems[0].value if hasattr(elems[0], "value") else 0.0
            e1 = elems[1].value if len(elems) > 1 and hasattr(elems[1], "value") else 0.0
            self.emit(op="lf", dst=lo, fimm=float(e0))
            self.emit(op="vbroadcast", dst=v, a=lo)
            if float(e1) != float(e0):
                hi = self.tf.new_vreg("f")
                self.emit(op="lf", dst=hi, fimm=float(e1))
                v2 = self.tf.new_vreg("v")
                self.emit(op="vinsert1", dst=v2, a=v, b=hi)
                return v2
            return v
        if isinstance(value, Undef):
            cls = _cls_of(value.type)
            v = self.tf.new_vreg(cls)
            if cls == "i":
                self.emit(op="li", dst=v, imm=0)
            elif cls == "f":
                self.emit(op="lf", dst=v, fimm=0.0)
            else:
                z = self.tf.new_vreg("f")
                self.emit(op="lf", dst=z, fimm=0.0)
                self.emit(op="vbroadcast", dst=v, a=z)
            return v
        if isinstance(value, GlobalVariable):
            if value.addr is None:
                raise CodegenError(f"global @{value.name} has no address")
            v = self.tf.new_vreg("i")
            self.emit(op="li", dst=v, imm=value.addr)
            return v
        if isinstance(value, Function):
            raise CodegenError("function pointers are not supported")
        return self.vreg(value)

    def int_operand(self, value: Value) -> VReg | int:
        """Integer operand: small constants stay (signed) immediates."""
        if isinstance(value, Constant) and -(2**31) <= value.signed < 2**31:
            return value.signed
        return self.value(value)

    def sext64(self, value: Value) -> VReg:
        """Sign-extended-to-64 view of an integer value."""
        bits = value.type.bits  # type: ignore[attr-defined]
        v = self.value(value)
        if bits == 64 or bits == 1:
            return v
        out = self.tf.new_vreg("i")
        self.emit(op="ext", dst=out, a=v, width=bits // 8, signed=True)
        return out

    # -- addressing ------------------------------------------------------------

    def address_of(self, ptr: Value) -> TAddr:
        """Fold GEP/const chains into an x86 addressing mode."""
        disp = 0
        base: Value = ptr
        index: Value | None = None
        scale = 1
        for _ in range(16):
            if isinstance(base, I.GEP):
                idx = base.operands[1]
                size = base.elem.size_bytes()
                if isinstance(idx, Constant):
                    disp += idx.signed * size
                    base = base.operands[0]
                    continue
                if index is None and size in (1, 2, 4, 8) \
                        and isinstance(idx.type, IntType) and idx.type.bits == 64:
                    # peel `add x, C` and `mul x, {2,4,8}` / `shl x, {1,2,3}`
                    # out of the index so the i8* GEPs the lifter builds
                    # become real base+index*scale+disp operands
                    for _ in range(4):
                        if isinstance(idx, I.BinOp) and idx.opcode == "add" \
                                and isinstance(idx.operands[1], Constant):
                            disp += idx.operands[1].signed * size  # type: ignore[attr-defined]
                            idx = idx.operands[0]
                            continue
                        if isinstance(idx, I.BinOp) and idx.opcode == "add" \
                                and isinstance(idx.operands[0], Constant):
                            disp += idx.operands[0].signed * size  # type: ignore[attr-defined]
                            idx = idx.operands[1]
                            continue
                        break
                    if size == 1:
                        if isinstance(idx, I.BinOp) and idx.opcode == "mul" \
                                and isinstance(idx.operands[1], Constant) \
                                and idx.operands[1].value in (2, 4, 8):  # type: ignore[attr-defined]
                            scale = idx.operands[1].value  # type: ignore[attr-defined]
                            idx = idx.operands[0]
                        elif isinstance(idx, I.BinOp) and idx.opcode == "shl" \
                                and isinstance(idx.operands[1], Constant) \
                                and idx.operands[1].value in (1, 2, 3):  # type: ignore[attr-defined]
                            scale = 1 << idx.operands[1].value  # type: ignore[attr-defined]
                            idx = idx.operands[0]
                        else:
                            scale = size
                    else:
                        scale = size
                    # the scaled index may itself be offset: [b + (x+C)*s]
                    for _ in range(4):
                        if isinstance(idx, I.BinOp) and idx.opcode == "add" \
                                and isinstance(idx.operands[1], Constant):
                            disp += idx.operands[1].signed * scale  # type: ignore[attr-defined]
                            idx = idx.operands[0]
                            continue
                        if isinstance(idx, I.BinOp) and idx.opcode == "add" \
                                and isinstance(idx.operands[0], Constant):
                            disp += idx.operands[0].signed * scale  # type: ignore[attr-defined]
                            idx = idx.operands[1]
                            continue
                        break
                    index = idx
                    base = base.operands[0]
                    continue
                break
            if isinstance(base, I.Cast) and base.opcode in ("bitcast", "inttoptr"):
                inner = base.operands[0]
                if base.opcode == "inttoptr" and isinstance(inner, Constant):
                    disp += inner.signed
                    return TAddr(base=None, index=self.value(index) if index else None,
                                 scale=scale, disp=disp)
                base = inner
                continue
            if isinstance(base, I.BinOp) and base.opcode == "add" \
                    and isinstance(base.operands[1], Constant):
                disp += base.operands[1].signed  # type: ignore[attr-defined]
                base = base.operands[0]
                continue
            break
        if isinstance(base, GlobalVariable):
            if base.addr is None:
                raise CodegenError(f"global @{base.name} has no address")
            disp += base.addr
            return TAddr(base=None, index=self.value(index) if index else None,
                         scale=scale, disp=disp)
        return TAddr(
            base=self.value(base),
            index=self.value(index) if index is not None else None,
            scale=scale, disp=disp,
        )

    # -- driver --------------------------------------------------------------

    def run(self) -> TFunc:
        func = self.func
        for blk in func.blocks:
            if blk.terminator is None:
                raise CodegenError(
                    f"@{func.name}: block {blk.name} has no terminator")
        split_critical_edges(func)
        # classify params
        iparams: list[VReg] = []
        fparams: list[VReg] = []
        for arg in func.args:
            cls = _cls_of(arg.type)
            v = self.vreg(arg)
            if cls == "f":
                fparams.append(v)
            elif cls == "i":
                iparams.append(v)
            else:
                raise CodegenError("vector parameters are not supported")
        self.tf.iparams = tuple(iparams)
        self.tf.fparams = tuple(fparams)
        ret = func.ftype.ret
        self.tf.ret_cls = None if ret.is_void else _cls_of(ret)

        for blk in func.blocks:
            tb = self.tf.block(f"b.{blk.name}")
            self.block_map[id(blk)] = tb

        for blk in func.blocks:
            self.current = self.block_map[id(blk)]
            for ins in blk.instructions:
                if isinstance(ins, I.Phi):
                    self.vreg(ins)  # ensure a home; copies come from preds
                    continue
                if ins.is_terminator:
                    self._phi_copies(blk)
                    self._terminator(blk, ins)
                else:
                    self._instr(ins)
        return self.tf

    def _phi_copies(self, blk: BasicBlock) -> None:
        """Parallel copies for phis of all successors (edge-split CFG).

        Copies are ordered so a destination is written only after it has
        been consumed as a source; cycles are broken with one temp.  Most
        edges degenerate to direct moves the register allocator can coalesce.
        """
        for succ in blk.successors():
            phis = succ.phis()
            if not phis:
                continue
            pending: list[tuple[VReg, VReg]] = []  # (src, home)
            for phi in phis:
                incoming = phi.incoming_for(blk)
                if incoming is None:
                    raise CodegenError(
                        f"@{self.func.name}: phi %{phi.name} lacks incoming "
                        f"for {blk.name}"
                    )
                if isinstance(incoming, Undef):
                    continue
                src = self.value(incoming)
                home = self.vreg(phi)
                if src != home:
                    pending.append((src, home))
            while pending:
                progressed = False
                for i, (src, home) in enumerate(pending):
                    blocked = any(s == home for s, _h in pending[:i] + pending[i + 1:])
                    if not blocked:
                        self.emit(op="mov", dst=home, a=src)
                        pending.pop(i)
                        progressed = True
                        break
                if not progressed:
                    src, home = pending[0]
                    tmp = self.tf.new_vreg(src.cls)
                    self.emit(op="mov", dst=tmp, a=src)
                    pending[0] = (tmp, home)

    # -- terminators -----------------------------------------------------------

    def _terminator(self, blk: BasicBlock, ins: I.Instruction) -> None:
        if isinstance(ins, I.Ret):
            if ins.value is None:
                self.emit(op="ret")
            else:
                self.emit(op="ret", a=self.value(ins.value))
            return
        if isinstance(ins, I.Br):
            if not ins.is_conditional:
                self.emit(op="jmp", labels=(self._label(ins.targets[0]),))
                return
            cond = ins.operands[0]
            lt = self._label(ins.targets[0])
            lf = self._label(ins.targets[1])
            if isinstance(cond, I.ICmp) and self._single_use_here(cond, ins):
                a, b, cc, w = self._icmp_parts(cond)
                self.emit(op="br", cc=cc, a=a, b=b, labels=(lt, lf), width=w)
                return
            if isinstance(cond, I.FCmp) and self._single_use_here(cond, ins) \
                    and cond.pred in _FCMP_CC:
                self.emit(op="fbr", cc=_FCMP_CC[cond.pred],
                          a=self.value(cond.operands[0]),
                          b=self.value(cond.operands[1]), labels=(lt, lf))
                return
            cv = self.value(cond)
            self.emit(op="br", cc="ne", a=cv, b=0, labels=(lt, lf))
            return
        if isinstance(ins, I.Unreachable):
            # lower as a self-loop trap; should never execute
            trap = self.tf.new_label("trap")
            self.emit(op="jmp", labels=(trap,))
            self.current = self.tf.block(trap)
            self.emit(op="jmp", labels=(trap,))
            return
        raise CodegenError(f"unknown terminator {ins.opcode}")

    def _label(self, blk: BasicBlock) -> str:
        return self.block_map[id(blk)].label

    def _single_use_here(self, value: I.Instruction, user: I.Instruction) -> bool:
        return len(value.uses) == 1 and next(iter(value.uses))[0] is user

    def _icmp_parts(self, cmp: I.ICmp) -> tuple[VReg, VReg | int, str, int]:
        t = cmp.operands[0].type
        bits = t.bits if isinstance(t, IntType) else 64
        signed = cmp.pred in ("slt", "sle", "sgt", "sge")
        width = 8
        if bits in (64, 1) or not signed:
            a: VReg = self.value(cmp.operands[0])
            b: VReg | int = self.int_operand(cmp.operands[1])
        elif bits == 32:
            # 32-bit compare forms work directly on the canonical low bits
            width = 4
            a = self.value(cmp.operands[0])
            rhs = cmp.operands[1]
            b = rhs.signed if isinstance(rhs, Constant) else self.value(rhs)
        else:
            # odd narrow signed compare: sign-extend both sides to 64
            a = self.sext64(cmp.operands[0])
            rhs = cmp.operands[1]
            if isinstance(rhs, Constant):
                b = rhs.signed
            else:
                b = self.sext64(rhs)
        cc = {"eq": "e", "ne": "ne", "slt": "l", "sle": "le", "sgt": "g",
              "sge": "ge", "ult": "b", "ule": "be", "ugt": "a", "uge": "ae"}[cmp.pred]
        return a, b, cc, width

    # -- instructions ----------------------------------------------------------

    def _instr(self, ins: I.Instruction) -> None:
        op = ins.opcode
        if isinstance(ins, I.BinOp):
            self._binop(ins)
            return
        if isinstance(ins, I.ICmp):
            if self._only_used_by_branches(ins):
                return  # fused at the branch site
            a, b, cc, w = self._icmp_parts(ins)
            self.emit(op="setcc", dst=self.vreg(ins), cc=cc, a=a, b=b, width=w)
            return
        if isinstance(ins, I.FCmp):
            if self._only_used_by_branches(ins):
                return
            if ins.pred not in _FCMP_CC:
                raise CodegenError(f"fcmp {ins.pred} not lowered")
            self.emit(op="fsetcc", dst=self.vreg(ins), cc=_FCMP_CC[ins.pred],
                      a=self.value(ins.operands[0]), b=self.value(ins.operands[1]))
            return
        if isinstance(ins, I.Select):
            self._select(ins)
            return
        if isinstance(ins, I.Cast):
            self._cast(ins)
            return
        if isinstance(ins, I.Load):
            self._load(ins)
            return
        if isinstance(ins, I.Store):
            self._store(ins)
            return
        if isinstance(ins, I.Alloca):
            slot = self.tf.new_slot(ins.size, ins.align)
            self.alloca_slots[id(ins)] = slot
            self.emit(op="frame", dst=self.vreg(ins), slot=slot)
            return
        if isinstance(ins, I.GEP):
            addr = self.address_of(ins)
            self.emit(op="lea", dst=self.vreg(ins), addr=addr)
            return
        if isinstance(ins, I.ExtractElement):
            self._extract(ins)
            return
        if isinstance(ins, I.InsertElement):
            self._insert(ins)
            return
        if isinstance(ins, I.ShuffleVector):
            self._shuffle(ins)
            return
        if isinstance(ins, I.Call):
            self._call(ins)
            return
        raise CodegenError(f"cannot lower {op}")

    def _only_used_by_branches(self, value: I.Instruction) -> bool:
        return all(isinstance(ins, I.Br) and ins.is_conditional
                   and self._single_use_here(value, ins)
                   for ins, _slot in value.uses)

    _INT_OPS = {"add": "add", "sub": "sub", "mul": "mul", "and": "and",
                "or": "or", "xor": "xor", "shl": "shl", "lshr": "shr"}
    _FP_OPS = {"fadd": "fadd", "fsub": "fsub", "fmul": "fmul", "fdiv": "fdiv"}
    _VEC_OPS = {"fadd": "vadd", "fsub": "vsub", "fmul": "vmul",
                "and": "vand", "or": "vor", "xor": "vxor"}

    def _binop(self, ins: I.BinOp) -> None:
        t = ins.type
        dst = self.vreg(ins)
        a_v, b_v = ins.operands
        if isinstance(t, VectorType) or (isinstance(t, IntType) and t.bits == 128):
            vop = self._VEC_OPS.get(ins.opcode)
            if vop is None:
                raise CodegenError(f"{ins.opcode} on {t} not lowered")
            self.emit(op=vop, dst=dst, a=self.value(a_v), b=self.value(b_v))
            return
        if isinstance(t, DoubleType):
            fop = self._FP_OPS[ins.opcode]
            self.emit(op=fop, dst=dst, a=self.value(a_v), b=self.value(b_v))
            return
        assert isinstance(t, IntType)
        bits = t.bits
        opc = ins.opcode
        # i32 ops use 32-bit register forms (results zero-extend for free);
        # i64 uses 64-bit forms; odd widths mask afterwards
        width = 4 if bits == 32 else 8
        mask_after = bits not in (32, 64) and opc not in ("and", "or", "lshr")
        if opc in self._INT_OPS:
            top = self._INT_OPS[opc]
            if opc == "lshr" and bits not in (32, 64):
                pass  # canonical zext form makes plain shr correct at any width
            self.emit(op=top, dst=dst, a=self.value(a_v),
                      b=self.int_operand(b_v), width=width)
        elif opc == "ashr":
            av = self.sext64(a_v) if bits not in (32, 64) else self.value(a_v)
            self.emit(op="sar", dst=dst, a=av, b=self.int_operand(b_v), width=width)
        elif opc in ("sdiv", "srem"):
            if bits in (32, 64):
                av: VReg | int = self.value(a_v)
                bv: VReg | int = self.value(b_v)
            else:
                av = self.sext64(a_v)
                bv = self.sext64(b_v) if not isinstance(b_v, Constant) else b_v.signed
            self.emit(op="div" if opc == "sdiv" else "rem", dst=dst,
                      a=av, b=bv, width=width)
        elif opc in ("udiv", "urem"):
            if bits == 32:
                raise CodegenError("udiv i32 not lowered")  # rare; use 64-bit
            self.emit(op="div" if opc == "udiv" else "rem",
                      dst=dst, a=self.value(a_v), b=self.int_operand(b_v))
        else:
            raise CodegenError(f"binop {opc} not lowered")
        if mask_after:
            masked = self.tf.new_vreg("i")
            if bits == 1:
                self.emit(op="and", dst=masked, a=dst, b=1)
            else:
                self.emit(op="ext", dst=masked, a=dst, width=max(1, bits // 8),
                          signed=False)
            self.vmap[id(ins)] = masked

    def _select(self, ins: I.Select) -> None:
        cond, a_v, b_v = ins.operands
        dst = self.vreg(ins)
        if _cls_of(ins.type) != "i":
            # float select via tiny diamond
            lt = self.tf.new_label("selt")
            lf = self.tf.new_label("self")
            lj = self.tf.new_label("selj")
            self._emit_cond_jump(cond, lt, lf)
            self.current = self.tf.block(lt)
            self.emit(op="mov", dst=dst, a=self.value(a_v))
            self.emit(op="jmp", labels=(lj,))
            self.current = self.tf.block(lf)
            self.emit(op="mov", dst=dst, a=self.value(b_v))
            self.emit(op="jmp", labels=(lj,))
            self.current = self.tf.block(lj)
            return
        # integer select -> cmp + cmov (Fig. 6 pattern)
        self.emit(op="mov", dst=dst, a=self.value(b_v))
        then_v = self.value(a_v)
        if isinstance(cond, I.ICmp) and self._only_used_by_selects_here(cond):
            a, b, cc, w = self._icmp_parts(cond)
            self.emit(op="cmp", a=a, b=b, width=w)
            self.emit(op="cmov", dst=dst, cc=cc, a=then_v)
        else:
            cv = self.value(cond)
            self.emit(op="cmp", a=cv, b=0)
            self.emit(op="cmov", dst=dst, cc="ne", a=then_v)

    def _only_used_by_selects_here(self, value: I.Instruction) -> bool:
        return all(isinstance(ins, I.Select) for ins, _slot in value.uses)

    def _emit_cond_jump(self, cond: Value, lt: str, lf: str) -> None:
        if isinstance(cond, I.ICmp):
            a, b, cc, w = self._icmp_parts(cond)
            self.emit(op="br", cc=cc, a=a, b=b, labels=(lt, lf), width=w)
        else:
            self.emit(op="br", cc="ne", a=self.value(cond), b=0, labels=(lt, lf))

    def _cast(self, ins: I.Cast) -> None:
        (src,) = ins.operands
        op = ins.opcode
        dst_t = ins.type
        if op == "trunc":
            bits = dst_t.bits  # type: ignore[attr-defined]
            v = self.value(src)
            if v.cls == "v":
                # i128 -> iN: take the low lane bits first (movq r64, xmm)
                low = self.tf.new_vreg("f")
                self.emit(op="vlow", dst=low, a=v)
                v64 = self.tf.new_vreg("i")
                self.emit(op="f2bits", dst=v64, a=low)
                v = v64
            if bits == 64:
                self.alias(ins, v)
                return
            if bits == 1:
                out = self.vreg(ins)
                self.emit(op="and", dst=out, a=v, b=1)
                return
            out = self.vreg(ins)
            self.emit(op="ext", dst=out, a=v, width=bits // 8, signed=False)
            return
        if op == "zext":
            if _cls_of(dst_t) == "v":
                # iN -> i128: value in the low lane, upper lane zeroed
                v = self.value(src)
                f = self.tf.new_vreg("f")
                self.emit(op="bits2f", dst=f, a=v)
                z = self.tf.new_vreg("f")
                self.emit(op="lf", dst=z, fimm=0.0)
                zv = self.tf.new_vreg("v")
                self.emit(op="vbroadcast", dst=zv, a=z)
                out = self.vreg(ins)
                self.emit(op="vinsert0", dst=out, a=zv, b=f)
                return
            self.alias(ins, self.value(src))  # canonical form is zext
            return
        if op == "sext":
            sbits = src.type.bits  # type: ignore[attr-defined]
            dbits = dst_t.bits  # type: ignore[attr-defined]
            v = self.sext64(src) if sbits > 1 else self.value(src)
            if sbits == 1 and dbits > 1:
                out = self.vreg(ins)
                neg = self.tf.new_vreg("i")
                self.emit(op="neg", dst=neg, a=v)
                if dbits < 64:
                    self.emit(op="ext", dst=out, a=neg, width=dbits // 8, signed=False)
                else:
                    self.alias(ins, neg)
                return
            if dbits < 64:
                out = self.vreg(ins)
                self.emit(op="ext", dst=out, a=v, width=dbits // 8, signed=False)
            else:
                self.alias(ins, v)
            return
        if op in ("inttoptr", "ptrtoint"):
            self.alias(ins, self.value(src))
            return
        if op == "bitcast":
            scls = _cls_of(src.type)
            dcls = _cls_of(dst_t)
            if scls == dcls:
                self.alias(ins, self.value(src))
                return
            out = self.vreg(ins)
            if scls == "i" and dcls == "f":
                self.emit(op="bits2f", dst=out, a=self.value(src))
            elif scls == "f" and dcls == "i":
                self.emit(op="f2bits", dst=out, a=self.value(src))
            elif scls == "f" and dcls == "v":
                # widen: scalar becomes low lane, upper lane zero
                z = self.tf.new_vreg("f")
                self.emit(op="lf", dst=z, fimm=0.0)
                zv = self.tf.new_vreg("v")
                self.emit(op="vbroadcast", dst=zv, a=z)
                self.emit(op="vinsert0", dst=out, a=zv, b=self.value(src))
            elif scls == "v" and dcls == "f":
                self.emit(op="vlow", dst=out, a=self.value(src))
            else:
                raise CodegenError(f"bitcast {src.type} -> {dst_t} not lowered")
            return
        if op in ("sitofp", "uitofp"):
            v = self.sext64(src) if op == "sitofp" else self.value(src)
            self.emit(op="i2f", dst=self.vreg(ins), a=v)
            return
        if op == "fptosi":
            out = self.vreg(ins)
            self.emit(op="f2i", dst=out, a=self.value(src))
            bits = dst_t.bits  # type: ignore[attr-defined]
            if bits < 64:
                masked = self.tf.new_vreg("i")
                self.emit(op="ext", dst=masked, a=out, width=bits // 8, signed=False)
                self.vmap[id(ins)] = masked
            return
        raise CodegenError(f"cast {op} not lowered")

    def _load(self, ins: I.Load) -> None:
        t = ins.type
        addr = self.address_of(ins.operands[0])
        cls = _cls_of(t)
        if cls == "f":
            self.emit(op="fload", dst=self.vreg(ins), addr=addr)
        elif cls == "v":
            if ins.align < 8 and self.split_unaligned:
                self.emit(op="vload_split", dst=self.vreg(ins), addr=addr)
            else:
                self.emit(op="vload", dst=self.vreg(ins), addr=addr,
                          aligned=ins.align >= 16)
        else:
            width = t.size_bytes() if isinstance(t, IntType) else 8
            if isinstance(t, IntType) and t.bits == 1:
                width = 1
            self.emit(op="load", dst=self.vreg(ins), addr=addr,
                      width=width, signed=False)
            if isinstance(t, IntType) and t.bits == 1:
                masked = self.tf.new_vreg("i")
                self.emit(op="and", dst=masked, a=self.vmap[id(ins)], b=1)
                self.vmap[id(ins)] = masked

    def _store(self, ins: I.Store) -> None:
        value, pointer = ins.operands
        t = value.type
        addr = self.address_of(pointer)
        cls = _cls_of(t)
        if cls == "f":
            self.emit(op="fstore", addr=addr, a=self.value(value))
        elif cls == "v":
            self.emit(op="vstore", addr=addr, a=self.value(value),
                      aligned=ins.align >= 16)
        else:
            width = t.size_bytes() if isinstance(t, IntType) else 8
            self.emit(op="store", addr=addr, a=self.value(value), width=width)

    def _extract(self, ins: I.ExtractElement) -> None:
        vec, idx = ins.operands
        if not isinstance(idx, Constant):
            raise CodegenError("dynamic extractelement not lowered")
        if not isinstance(ins.type, DoubleType):
            raise CodegenError(f"extractelement of {ins.type} not lowered")
        v = self.value(vec)
        self.emit(op="vlow" if idx.value == 0 else "vhigh",
                  dst=self.vreg(ins), a=v)

    def _insert(self, ins: I.InsertElement) -> None:
        vec, val, idx = ins.operands
        if not isinstance(idx, Constant):
            raise CodegenError("dynamic insertelement not lowered")
        if not isinstance(val.type, DoubleType):
            raise CodegenError(f"insertelement of {val.type} not lowered")
        self.emit(op="vinsert0" if idx.value == 0 else "vinsert1",
                  dst=self.vreg(ins), a=self.value(vec), b=self.value(val))

    def _shuffle(self, ins: I.ShuffleVector) -> None:
        a, b = ins.operands
        if len(ins.mask) != 2:
            raise CodegenError("only 2-lane shuffles are lowered")
        m0, m1 = ins.mask
        src0 = a if m0 < 2 else b
        src1 = a if m1 < 2 else b
        imm = (m0 & 1) | ((m1 & 1) << 1)
        self.emit(op="vshuf", dst=self.vreg(ins), a=self.value(src0),
                  b=self.value(src1), imm=imm)

    def _call(self, ins: I.Call) -> None:
        if ins.intrinsic:
            self._intrinsic(ins)
            return
        iargs: list[VReg] = []
        fargs: list[VReg] = []
        for arg in ins.operands:
            cls = _cls_of(arg.type)
            if cls == "f":
                fargs.append(self.value(arg))
            elif cls == "i":
                iargs.append(self.value(arg))
            else:
                raise CodegenError("vector call arguments not supported")
        dst = None if ins.type.is_void else self.vreg(ins)
        self.emit(op="call", dst=dst, func=ins.callee_name,
                  iargs=tuple(iargs), fargs=tuple(fargs))

    def _intrinsic(self, ins: I.Call) -> None:
        name = ins.callee_name
        if name.startswith("llvm.ctpop"):
            # popcount via the classic SWAR sequence on 8 bits
            v = self.value(ins.operands[0])
            dst = self.vreg(ins)
            t1 = self.tf.new_vreg("i")
            t2 = self.tf.new_vreg("i")
            t3 = self.tf.new_vreg("i")
            t4 = self.tf.new_vreg("i")
            # b - ((b >> 1) & 0x55)
            self.emit(op="shr", dst=t1, a=v, b=1)
            self.emit(op="and", dst=t2, a=t1, b=0x55)
            self.emit(op="sub", dst=t3, a=v, b=t2)
            # (x & 0x33) + ((x >> 2) & 0x33)
            a1 = self.tf.new_vreg("i")
            a2 = self.tf.new_vreg("i")
            a3 = self.tf.new_vreg("i")
            self.emit(op="and", dst=a1, a=t3, b=0x33)
            self.emit(op="shr", dst=t4, a=t3, b=2)
            self.emit(op="and", dst=a2, a=t4, b=0x33)
            self.emit(op="add", dst=a3, a=a1, b=a2)
            # (x + (x >> 4)) & 0x0f
            b1 = self.tf.new_vreg("i")
            b2 = self.tf.new_vreg("i")
            self.emit(op="shr", dst=b1, a=a3, b=4)
            self.emit(op="add", dst=b2, a=a3, b=b1)
            self.emit(op="and", dst=dst, a=b2, b=0x0F)
            return
        if name.startswith("llvm.sqrt"):
            raise CodegenError("llvm.sqrt lowering not implemented")
        raise CodegenError(f"intrinsic {name} not lowered")


_FCMP_CC = {
    "oeq": "e", "one": "ne", "olt": "b", "ole": "be", "ogt": "a", "oge": "ae",
    "ueq": "e", "une": "ne", "ult": "b", "ule": "be", "ugt": "a", "uge": "ae",
    # ucomisd sets PF exactly when the operands are unordered (lifted `jp`)
    "uno": "p", "ord": "np",
}


class LowerInfo:
    """Byproduct of lowering consumed by the machine-verification witness:
    which vreg each IR value ended up in, and which frame slot each alloca
    received.  Keys are ``id(value)`` (values stay alive via the function)."""

    __slots__ = ("vmap", "alloca_slots")

    def __init__(self, vmap: dict[int, VReg], alloca_slots: dict[int, int]) -> None:
        self.vmap = vmap
        self.alloca_slots = alloca_slots


def lower_function_info(func: Function) -> tuple[TFunc, LowerInfo]:
    """Lower one optimized IR function to TAC, also returning the
    value/slot maps the machine-verification witness reads."""
    lw = Lowerer(func)
    tf = lw.run()
    return tf, LowerInfo(lw.vmap, lw.alloca_slots)
