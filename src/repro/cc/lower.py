"""Lowering: checked AST -> TAC.

Strategy (classic "promote to 64-bit"):

* every scalar local lives in one virtual register; narrow integer types
  are kept sign/zero-extended to 64 bits at loads and truncated at stores,
  so register arithmetic is uniformly 64-bit;
* address-taken locals and local arrays get frame slots;
* lvalues lower to :class:`~repro.backend.tac.TAddr` so x86 addressing
  modes (base + index*scale + disp) fall out naturally — this is what makes
  DBrew's and the lifter's address reconstruction realistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.arith import trunc_div, trunc_rem
from repro.backend.tac import INVERT_CC, TAddr, TBlock, TFunc, TInstr, VReg
from repro.cc import cast as A
from repro.cc.ctypes import CType, DOUBLE, LONG, StructType
from repro.cc.sema import FunctionInfo
from repro.errors import CompileError

IntVal = Union[VReg, int]


@dataclass
class LValue:
    """A resolved assignable location."""

    kind: str  # 'var' (vreg-homed scalar) or 'mem'
    var: VReg | None = None
    addr: TAddr | None = None
    ctype: CType | None = None


def _cls_of(t: CType) -> str:
    if t.is_float:
        return "f"
    return "i"


def _int_cc(op: str, signed: bool) -> str:
    if signed:
        return {"<": "l", ">": "g", "<=": "le", ">=": "ge", "==": "e", "!=": "ne"}[op]
    return {"<": "b", ">": "a", "<=": "be", ">=": "ae", "==": "e", "!=": "ne"}[op]


def _float_cc(op: str) -> str:
    # ucomisd sets cf/zf like an unsigned compare
    return {"<": "b", ">": "a", "<=": "be", ">=": "ae", "==": "e", "!=": "ne"}[op]


class Lowerer:
    """Lowers one function."""

    def __init__(self, func: A.FuncDef, info: FunctionInfo,
                 functions: dict[str, FunctionInfo]) -> None:
        self.ast = func
        self.info = info
        self.functions = functions
        self.tf = TFunc(name=func.name)
        self.vars: dict[str, VReg] = {}
        self.var_types: dict[str, CType] = {}
        self.frame_vars: dict[str, tuple[int, CType]] = {}  # name -> (slot, type)
        self.block: TBlock | None = None
        self._loops: list[tuple[str, str]] = []  # (break label, continue label)
        self._addr_taken: set[str] = set()

    # -- emission helpers ------------------------------------------------------

    def emit(self, **kw: object) -> TInstr:
        ins = TInstr(**kw)  # type: ignore[arg-type]
        assert self.block is not None, "emission outside a block"
        self.block.instrs.append(ins)
        return ins

    def new_block(self, label: str) -> None:
        self.block = self.tf.block(label)

    def terminated(self) -> bool:
        return bool(self.block and self.block.instrs and self.block.instrs[-1].is_terminator)

    def ensure_terminated(self, label: str) -> None:
        if not self.terminated():
            self.emit(op="jmp", labels=(label,))

    # -- driver ----------------------------------------------------------------

    def run(self) -> TFunc:
        assert self.ast.body is not None
        self._find_address_taken(self.ast.body)
        self.tf.ret_cls = None if self.ast.ret.kind == "void" else _cls_of(self.ast.ret)
        self.new_block("entry")
        iparams: list[VReg] = []
        fparams: list[VReg] = []
        for p in self.ast.params:
            v = self._declare_var(p.name, p.ctype)
            if _cls_of(p.ctype) == "f":
                fparams.append(v if v is not None else self._frame_param(p))
            else:
                iparams.append(v if v is not None else self._frame_param(p))
        self.tf.iparams = tuple(iparams)
        self.tf.fparams = tuple(fparams)
        self._stmt(self.ast.body)
        if not self.terminated():
            if self.tf.ret_cls is None:
                self.emit(op="ret")
            else:
                # C allows missing return; result is unspecified -> return 0
                zero = self.tf.new_vreg(self.tf.ret_cls)
                if self.tf.ret_cls == "i":
                    self.emit(op="li", dst=zero, imm=0)
                else:
                    self.emit(op="lf", dst=zero, fimm=0.0)
                self.emit(op="ret", a=zero)
        return self.tf

    def _frame_param(self, p: A.Param) -> VReg:
        raise CompileError(f"address-taken parameter {p.name!r} not supported")

    def _declare_var(self, name: str, ctype: CType) -> VReg | None:
        """Give a local a home; returns its vreg, or None if frame-allocated."""
        needs_memory = (
            name in self._addr_taken
            or ctype.kind in ("array", "struct")
        )
        if needs_memory:
            size = max(ctype.size, 1)
            align = 16 if size >= 16 else 8
            slot = self.tf.new_slot(size, align)
            self.frame_vars[name] = (slot, ctype)
            return None
        v = self.tf.new_vreg(_cls_of(ctype))
        self.vars[name] = v
        self.var_types[name] = ctype
        return v

    def _find_address_taken(self, node: object) -> None:
        if isinstance(node, A.Unary) and node.op == "&":
            target = node.operand
            if isinstance(target, A.Ident):
                # sema renames later; record by original or resolved name
                self._addr_taken.add(getattr(target, "resolved", target.name))
        for child in _children(node):
            self._find_address_taken(child)

    # -- statements --------------------------------------------------------------

    def _stmt(self, stmt: A.Stmt) -> None:
        if self.terminated() and not isinstance(stmt, A.Block):
            return  # unreachable code after return/break
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                self._stmt(s)
        elif isinstance(stmt, A.Decl):
            v = self._declare_var(stmt.name, stmt.ctype)
            if stmt.init is not None:
                if v is None:
                    slot, _ = self.frame_vars[stmt.name]
                    base = self.tf.new_vreg("i")
                    self.emit(op="frame", dst=base, slot=slot)
                    self._store(TAddr(base=base), stmt.init, stmt.ctype)
                else:
                    self._eval_into(stmt.init, v)
        elif isinstance(stmt, A.ExprStmt):
            self._expr(stmt.expr)
        elif isinstance(stmt, A.If):
            lt = self.tf.new_label("then")
            lf = self.tf.new_label("else")
            lj = self.tf.new_label("endif")
            self._cond(stmt.cond, lt, lf)
            self.new_block(lt)
            self._stmt(stmt.then)
            self.ensure_terminated(lj)
            self.new_block(lf)
            if stmt.otherwise is not None:
                self._stmt(stmt.otherwise)
            self.ensure_terminated(lj)
            self.new_block(lj)
        elif isinstance(stmt, A.While):
            lh = self.tf.new_label("whead")
            lb = self.tf.new_label("wbody")
            le = self.tf.new_label("wend")
            self.ensure_terminated(lh)
            self.new_block(lh)
            self._cond(stmt.cond, lb, le)
            self.new_block(lb)
            self._loops.append((le, lh))
            self._stmt(stmt.body)
            self._loops.pop()
            self.ensure_terminated(lh)
            self.new_block(le)
        elif isinstance(stmt, A.DoWhile):
            lb = self.tf.new_label("dbody")
            lc = self.tf.new_label("dcond")
            le = self.tf.new_label("dend")
            self.ensure_terminated(lb)
            self.new_block(lb)
            self._loops.append((le, lc))
            self._stmt(stmt.body)
            self._loops.pop()
            self.ensure_terminated(lc)
            self.new_block(lc)
            self._cond(stmt.cond, lb, le)
            self.new_block(le)
        elif isinstance(stmt, A.For):
            if stmt.init is not None:
                self._stmt(stmt.init)
            lh = self.tf.new_label("fhead")
            lb = self.tf.new_label("fbody")
            ls = self.tf.new_label("fstep")
            le = self.tf.new_label("fend")
            self.ensure_terminated(lh)
            self.new_block(lh)
            if stmt.cond is not None:
                self._cond(stmt.cond, lb, le)
            else:
                self.emit(op="jmp", labels=(lb,))
            self.new_block(lb)
            self._loops.append((le, ls))
            self._stmt(stmt.body)
            self._loops.pop()
            self.ensure_terminated(ls)
            self.new_block(ls)
            if stmt.step is not None:
                self._expr(stmt.step)
            self.ensure_terminated(lh)
            self.new_block(le)
        elif isinstance(stmt, A.Return):
            if stmt.value is None:
                self.emit(op="ret")
            else:
                v = self._expr_vreg(stmt.value)
                self.emit(op="ret", a=v)
            # block stays terminated; trailing dead statements are skipped
        elif isinstance(stmt, A.Break):
            if not self._loops:
                raise CompileError("break outside a loop")
            self.emit(op="jmp", labels=(self._loops[-1][0],))
            self.new_block(self.tf.new_label("after_break"))
        elif isinstance(stmt, A.Continue):
            if not self._loops:
                raise CompileError("continue outside a loop")
            self.emit(op="jmp", labels=(self._loops[-1][1],))
            self.new_block(self.tf.new_label("after_continue"))
        else:
            raise CompileError(f"cannot lower statement {stmt!r}")

    # -- conditions ----------------------------------------------------------

    def _cond(self, expr: A.Expr, lt: str, lf: str) -> None:
        if isinstance(expr, A.Binary) and expr.op in ("<", ">", "<=", ">=", "==", "!="):
            t = expr.lhs.ctype
            assert t is not None
            if t.is_float:
                a = self._expr_vreg(expr.lhs)
                b = self._expr_vreg(expr.rhs)
                self.emit(op="fbr", cc=_float_cc(expr.op), a=a, b=b, labels=(lt, lf))
            else:
                a = self._expr_int(expr.lhs)
                b = self._expr_int(expr.rhs)
                signed = not (t.is_integer and not t.signed)
                if isinstance(a, int) and isinstance(b, int):
                    taken = _const_compare(expr.op, a, b, signed)
                    self.emit(op="jmp", labels=(lt if taken else lf,))
                    return
                if isinstance(a, int):
                    a_v = self.tf.new_vreg("i")
                    self.emit(op="li", dst=a_v, imm=a)
                    a = a_v
                self.emit(op="br", cc=_int_cc(expr.op, signed), a=a, b=b,
                          signed=signed, labels=(lt, lf))
            return
        if isinstance(expr, A.Binary) and expr.op == "&&":
            mid = self.tf.new_label("and")
            self._cond(expr.lhs, mid, lf)
            self.new_block(mid)
            self._cond(expr.rhs, lt, lf)
            return
        if isinstance(expr, A.Binary) and expr.op == "||":
            mid = self.tf.new_label("or")
            self._cond(expr.lhs, lt, mid)
            self.new_block(mid)
            self._cond(expr.rhs, lt, lf)
            return
        if isinstance(expr, A.Unary) and expr.op == "!":
            self._cond(expr.operand, lf, lt)
            return
        t = expr.ctype
        assert t is not None
        if t.is_float:
            a = self._expr_vreg(expr)
            zero = self.tf.new_vreg("f")
            self.emit(op="lf", dst=zero, fimm=0.0)
            self.emit(op="fbr", cc="ne", a=a, b=zero, labels=(lt, lf))
            return
        a = self._expr_int(expr)
        if isinstance(a, int):
            self.emit(op="jmp", labels=(lt if a != 0 else lf,))
            return
        self.emit(op="br", cc="ne", a=a, b=0, labels=(lt, lf))

    # -- expressions -----------------------------------------------------------

    def _expr(self, expr: A.Expr) -> IntVal | VReg | None:
        """Evaluate for value (may be None for void calls)."""
        t = expr.ctype
        assert t is not None
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.FloatLit):
            v = self.tf.new_vreg("f")
            self.emit(op="lf", dst=v, fimm=expr.value)
            return v
        if isinstance(expr, A.SizeofType):
            return expr.of.size
        if isinstance(expr, A.Ident):
            name = expr.resolved  # type: ignore[attr-defined]
            if name in self.vars:
                return self.vars[name]
            lv = self._lvalue(expr)
            return self._load(lv)
        if isinstance(expr, A.Cast):
            return self._cast(expr)
        if isinstance(expr, A.Unary):
            return self._unary(expr)
        if isinstance(expr, A.Binary):
            return self._binary(expr)
        if isinstance(expr, A.Assign):
            return self._assign(expr)
        if isinstance(expr, A.Conditional):
            return self._conditional(expr)
        if isinstance(expr, A.Call):
            return self._call(expr)
        if isinstance(expr, (A.Index, A.Member)):
            lv = self._lvalue(expr)
            return self._load(lv)
        raise CompileError(f"cannot lower expression {expr!r}")

    def _expr_int(self, expr: A.Expr) -> IntVal:
        v = self._expr(expr)
        assert v is not None and (isinstance(v, int) or v.cls == "i")
        return v

    def _expr_vreg(self, expr: A.Expr) -> VReg:
        v = self._expr(expr)
        if isinstance(v, int):
            r = self.tf.new_vreg("i")
            self.emit(op="li", dst=r, imm=v)
            return r
        assert v is not None
        return v

    def _eval_into(self, expr: A.Expr, dst: VReg) -> None:
        v = self._expr(expr)
        if isinstance(v, int):
            self.emit(op="li", dst=dst, imm=v)
        elif v is not None and v != dst:
            self.emit(op="mov", dst=dst, a=v)

    # -- lvalues -------------------------------------------------------------

    def _lvalue(self, expr: A.Expr) -> LValue:
        t = expr.ctype
        assert t is not None
        if isinstance(expr, A.Ident):
            name = expr.resolved  # type: ignore[attr-defined]
            if name in self.vars:
                return LValue("var", var=self.vars[name], ctype=t)
            slot, ctype = self.frame_vars[name]
            base = self.tf.new_vreg("i")
            self.emit(op="frame", dst=base, slot=slot)
            return LValue("mem", addr=TAddr(base=base), ctype=ctype)
        if isinstance(expr, A.Unary) and expr.op == "*":
            ptr = self._expr_vreg(expr.operand)
            return LValue("mem", addr=TAddr(base=ptr), ctype=t)
        if isinstance(expr, A.Unary) and expr.op == "&decay":
            return self._lvalue(expr.operand)
        if isinstance(expr, A.Index):
            base = self._expr_vreg(expr.base)
            elem = t
            idx_expr, const_off = _split_index(expr.index)
            disp = const_off * elem.size
            if idx_expr is None:
                return LValue("mem", addr=TAddr(base=base, disp=disp), ctype=t)
            idx = self._expr_int(idx_expr)
            if isinstance(idx, int):
                return LValue(
                    "mem", addr=TAddr(base=base, disp=disp + idx * elem.size), ctype=t
                )
            if elem.size in (1, 2, 4, 8):
                return LValue(
                    "mem",
                    addr=TAddr(base=base, index=idx, scale=elem.size, disp=disp),
                    ctype=t,
                )
            scaled = self.tf.new_vreg("i")
            self.emit(op="mul", dst=scaled, a=idx, b=elem.size)
            return LValue(
                "mem", addr=TAddr(base=base, index=scaled, scale=1, disp=disp), ctype=t
            )
        if isinstance(expr, A.Member):
            if expr.arrow:
                base = self._expr_vreg(expr.base)
                bt = expr.base.ctype
                assert bt is not None and bt.pointee is not None
                st = bt.pointee.struct
                assert isinstance(st, StructType)
                _mt, off = st.member(expr.name)
                return LValue("mem", addr=TAddr(base=base, disp=off), ctype=t)
            base_lv = self._lvalue(expr.base)
            assert base_lv.kind == "mem" and base_lv.addr is not None
            bt = expr.base.ctype
            assert bt is not None
            st = bt.struct
            assert isinstance(st, StructType)
            _mt, off = st.member(expr.name)
            a = base_lv.addr
            return LValue("mem", addr=TAddr(base=a.base, index=a.index,
                                            scale=a.scale, disp=a.disp + off,
                                            sym=a.sym), ctype=t)
        raise CompileError(f"not an lvalue: {expr!r}")

    def _addr_of(self, lv: LValue) -> VReg:
        assert lv.kind == "mem" and lv.addr is not None
        v = self.tf.new_vreg("i")
        self.emit(op="lea", dst=v, addr=lv.addr)
        return v

    def _load(self, lv: LValue) -> IntVal | VReg:
        t = lv.ctype
        assert t is not None
        if lv.kind == "var":
            assert lv.var is not None
            return lv.var
        assert lv.addr is not None
        if t.kind == "array":
            return self._addr_of(lv)  # decay
        if t.is_float:
            if t.kind == "float":
                raise CompileError("binary32 float is outside the subset; use double")
            v = self.tf.new_vreg("f")
            self.emit(op="fload", dst=v, addr=lv.addr)
            return v
        v = self.tf.new_vreg("i")
        width = 8 if t.is_pointer else t.size
        self.emit(op="load", dst=v, addr=lv.addr, width=width,
                  signed=t.signed if t.is_integer else False)
        return v

    def _store(self, addr: TAddr, value_expr: A.Expr, t: CType) -> IntVal | VReg:
        if t.is_float:
            v = self._expr_vreg(value_expr)
            self.emit(op="fstore", addr=addr, a=v)
            return v
        v = self._expr_int(value_expr)
        width = 8 if t.is_pointer else t.size
        self.emit(op="store", addr=addr, a=v, width=width)
        return v

    # -- expression families ------------------------------------------------------

    def _cast(self, expr: A.Cast) -> IntVal | VReg:
        src_t = expr.operand.ctype
        dst_t = expr.to
        assert src_t is not None
        if dst_t.kind == "float" or src_t.kind == "float":
            raise CompileError("binary32 float is outside the subset; use double")
        if src_t.is_float and dst_t.is_float:
            return self._expr(expr.operand)
        if src_t.is_float and dst_t.is_integer:
            a = self._expr_vreg(expr.operand)
            v = self.tf.new_vreg("i")
            self.emit(op="f2i", dst=v, a=a)
            if dst_t.size < 8:
                w = self.tf.new_vreg("i")
                self.emit(op="ext", dst=w, a=v, width=dst_t.size, signed=dst_t.signed)
                return w
            return v
        if src_t.is_integer and dst_t.is_float:
            a = self._expr(expr.operand)
            if isinstance(a, int):
                v = self.tf.new_vreg("f")
                self.emit(op="lf", dst=v, fimm=float(a))
                return v
            v = self.tf.new_vreg("f")
            self.emit(op="i2f", dst=v, a=a)
            return v
        # int/pointer <-> int/pointer
        a = self._expr(expr.operand)
        if isinstance(a, int):
            if dst_t.is_integer and dst_t.size < 8:
                bits = dst_t.size * 8
                a &= (1 << bits) - 1
                if dst_t.signed and a >> (bits - 1):
                    a -= 1 << bits
            return a
        if dst_t.is_integer and dst_t.size < 8 and src_t.size > dst_t.size:
            v = self.tf.new_vreg("i")
            self.emit(op="ext", dst=v, a=a, width=dst_t.size, signed=dst_t.signed)
            return v
        return a

    def _unary(self, expr: A.Unary) -> IntVal | VReg:
        op = expr.op
        t = expr.ctype
        assert t is not None
        if op == "&decay":
            return self._addr_of(self._lvalue(expr.operand))
        if op == "&":
            return self._addr_of(self._lvalue(expr.operand))
        if op == "*":
            return self._load(self._lvalue(expr))
        if op == "-":
            if t.is_float:
                a = self._expr_vreg(expr.operand)
                v = self.tf.new_vreg("f")
                self.emit(op="fneg", dst=v, a=a)
                return v
            a = self._expr_int(expr.operand)
            if isinstance(a, int):
                return -a
            v = self.tf.new_vreg("i")
            self.emit(op="neg", dst=v, a=a)
            return v
        if op == "~":
            a = self._expr_int(expr.operand)
            if isinstance(a, int):
                return ~a
            v = self.tf.new_vreg("i")
            self.emit(op="not", dst=v, a=a)
            return v
        if op == "!":
            a = self._expr(expr.operand)
            if isinstance(a, int):
                return int(a == 0)
            assert isinstance(a, VReg)
            if a.cls == "f":
                zero = self.tf.new_vreg("f")
                self.emit(op="lf", dst=zero, fimm=0.0)
                # !x on a double: compare equal to zero
                lt = self.tf.new_label("nz1")
                lf = self.tf.new_label("nz0")
                lj = self.tf.new_label("nzj")
                out = self.tf.new_vreg("i")
                self.emit(op="fbr", cc="e", a=a, b=zero, labels=(lt, lf))
                self.new_block(lt)
                self.emit(op="li", dst=out, imm=1)
                self.emit(op="jmp", labels=(lj,))
                self.new_block(lf)
                self.emit(op="li", dst=out, imm=0)
                self.emit(op="jmp", labels=(lj,))
                self.new_block(lj)
                return out
            v = self.tf.new_vreg("i")
            self.emit(op="setcc", dst=v, cc="e", a=a, b=0)
            return v
        if op in ("pre++", "pre--", "post++", "post--"):
            return self._incdec(expr)
        raise CompileError(f"cannot lower unary {op}")

    def _incdec(self, expr: A.Unary) -> IntVal | VReg:
        target = expr.operand
        t = target.ctype
        assert t is not None
        step = t.pointee.size if t.is_pointer and t.pointee else 1
        delta = step if "++" in expr.op else -step
        lv = self._lvalue(target)
        old = self._load(lv)
        old_v = old if isinstance(old, VReg) else None
        if old_v is None:
            r = self.tf.new_vreg("i")
            self.emit(op="li", dst=r, imm=old)  # type: ignore[arg-type]
            old_v = r
        if expr.op.startswith("post"):
            saved = self.tf.new_vreg("i")
            self.emit(op="mov", dst=saved, a=old_v)
        new = self.tf.new_vreg("i")
        self.emit(op="add", dst=new, a=old_v, b=delta)
        if lv.kind == "var":
            assert lv.var is not None
            self.emit(op="mov", dst=lv.var, a=new)
        else:
            assert lv.addr is not None
            width = 8 if t.is_pointer else t.size
            self.emit(op="store", addr=lv.addr, a=new, width=width)
        return saved if expr.op.startswith("post") else new

    def _binary(self, expr: A.Binary) -> IntVal | VReg:
        op = expr.op
        t = expr.ctype
        assert t is not None
        if op in ("&&", "||"):
            out = self.tf.new_vreg("i")
            lt = self.tf.new_label("b1")
            lf = self.tf.new_label("b0")
            lj = self.tf.new_label("bj")
            self._cond(expr, lt, lf)
            self.new_block(lt)
            self.emit(op="li", dst=out, imm=1)
            self.emit(op="jmp", labels=(lj,))
            self.new_block(lf)
            self.emit(op="li", dst=out, imm=0)
            self.emit(op="jmp", labels=(lj,))
            self.new_block(lj)
            return out
        if op in ("<", ">", "<=", ">=", "==", "!="):
            lt_t = expr.lhs.ctype
            assert lt_t is not None
            if lt_t.is_float:
                out = self.tf.new_vreg("i")
                l1 = self.tf.new_label("c1")
                l0 = self.tf.new_label("c0")
                lj = self.tf.new_label("cj")
                self._cond(expr, l1, l0)
                self.new_block(l1)
                self.emit(op="li", dst=out, imm=1)
                self.emit(op="jmp", labels=(lj,))
                self.new_block(l0)
                self.emit(op="li", dst=out, imm=0)
                self.emit(op="jmp", labels=(lj,))
                self.new_block(lj)
                return out
            a = self._expr_int(expr.lhs)
            b = self._expr_int(expr.rhs)
            signed = not (lt_t.is_integer and not lt_t.signed)
            if isinstance(a, int) and isinstance(b, int):
                return int(_const_compare(op, a, b, signed))
            if isinstance(a, int):
                r = self.tf.new_vreg("i")
                self.emit(op="li", dst=r, imm=a)
                a = r
            v = self.tf.new_vreg("i")
            self.emit(op="setcc", dst=v, cc=_int_cc(op, signed), a=a, b=b, signed=signed)
            return v

        # pointer arithmetic
        lt_t, rt_t = expr.lhs.ctype, expr.rhs.ctype
        assert lt_t is not None and rt_t is not None
        if op in ("+", "-") and lt_t.is_pointer:
            base = self._expr_vreg(expr.lhs)
            if rt_t.is_pointer:  # pointer difference
                other = self._expr_vreg(expr.rhs)
                diff = self.tf.new_vreg("i")
                self.emit(op="sub", dst=diff, a=base, b=other)
                assert lt_t.pointee is not None
                size = lt_t.pointee.size
                if size > 1:
                    out = self.tf.new_vreg("i")
                    if size & (size - 1) == 0:
                        self.emit(op="sar", dst=out, a=diff, b=size.bit_length() - 1)
                    else:
                        self.emit(op="div", dst=out, a=diff, b=size)
                    return out
                return diff
            idx = self._expr_int(expr.rhs)
            assert lt_t.pointee is not None
            size = lt_t.pointee.size
            out = self.tf.new_vreg("i")
            if isinstance(idx, int):
                self.emit(op="add" if op == "+" else "sub", dst=out, a=base, b=idx * size)
                return out
            if size != 1:
                scaled = self.tf.new_vreg("i")
                self.emit(op="mul", dst=scaled, a=idx, b=size)
                idx = scaled
            self.emit(op="add" if op == "+" else "sub", dst=out, a=base, b=idx)
            return out

        if t.is_float:
            a = self._expr_vreg(expr.lhs)
            b = self._expr_vreg(expr.rhs)
            v = self.tf.new_vreg("f")
            fop = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}.get(op)
            if fop is None:
                raise CompileError(f"{op} on doubles")
            self.emit(op=fop, dst=v, a=a, b=b)
            return v

        a = self._expr_int(expr.lhs)
        b = self._expr_int(expr.rhs)
        if isinstance(a, int) and isinstance(b, int):
            return _const_int_binop(op, a, b)
        top = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
               "&": "and", "|": "or", "^": "xor", "<<": "shl",
               ">>": "sar" if t.signed else "shr"}.get(op)
        if top is None:
            raise CompileError(f"cannot lower binary {op}")
        if isinstance(a, int) and top in ("add", "mul", "and", "or", "xor"):
            a, b = b, a  # commute immediate to the right
        if isinstance(a, int):
            r = self.tf.new_vreg("i")
            self.emit(op="li", dst=r, imm=a)
            a = r
        v = self.tf.new_vreg("i")
        self.emit(op=top, dst=v, a=a, b=b)
        return v

    def _assign(self, expr: A.Assign) -> IntVal | VReg:
        target = expr.target
        t = target.ctype
        assert t is not None
        lv = self._lvalue(target)
        if lv.kind == "var":
            assert lv.var is not None
            self._eval_into(expr.value, lv.var)
            return lv.var
        assert lv.addr is not None
        return self._store(lv.addr, expr.value, t)

    def _conditional(self, expr: A.Conditional) -> VReg:
        t = expr.ctype
        assert t is not None
        out = self.tf.new_vreg(_cls_of(t))
        lt = self.tf.new_label("q1")
        lf = self.tf.new_label("q0")
        lj = self.tf.new_label("qj")
        self._cond(expr.cond, lt, lf)
        self.new_block(lt)
        self._eval_into(expr.then, out)
        self.emit(op="jmp", labels=(lj,))
        self.new_block(lf)
        self._eval_into(expr.otherwise, out)
        self.emit(op="jmp", labels=(lj,))
        self.new_block(lj)
        return out

    def _call(self, expr: A.Call) -> VReg | None:
        info = self.functions[expr.func]
        iargs: list[VReg] = []
        fargs: list[VReg] = []
        for arg in expr.args:
            at = arg.ctype
            assert at is not None
            if at.is_float:
                fargs.append(self._expr_vreg(arg))
            else:
                iargs.append(self._expr_vreg(arg))
        if len(iargs) > 6 or len(fargs) > 8:
            raise CompileError(f"{expr.func}: too many arguments for register passing")
        dst = None
        if info.ret.kind != "void":
            dst = self.tf.new_vreg(_cls_of(info.ret))
        self.emit(op="call", dst=dst, func=expr.func,
                  iargs=tuple(iargs), fargs=tuple(fargs))
        return dst


def _split_index(expr: A.Expr) -> tuple[A.Expr | None, int]:
    """Peel a constant offset out of an index expression.

    ``x + 3`` -> (x, 3); ``x - SZ`` -> (x, -SZ); constants fold entirely.
    Looks through the int->long casts sema inserts (legal because signed
    overflow in the index is UB in C, which is exactly the license GCC
    uses to do the same folding).
    """
    e: A.Expr = expr
    while isinstance(e, A.Cast) and e.to.is_integer and \
            e.operand.ctype is not None and e.operand.ctype.is_integer:
        e = e.operand
    if isinstance(e, A.IntLit):
        return None, e.value
    if isinstance(e, A.Binary) and e.op in ("+", "-"):
        lhs, rhs = e.lhs, e.rhs
        while isinstance(rhs, A.Cast) and rhs.to.is_integer:
            rhs = rhs.operand
        if isinstance(rhs, A.IntLit):
            inner, c = _split_index(lhs)
            off = rhs.value if e.op == "+" else -rhs.value
            return inner, c + off
        while isinstance(lhs, A.Cast) and lhs.to.is_integer:
            lhs = lhs.operand
        if isinstance(lhs, A.IntLit) and e.op == "+":
            inner, c = _split_index(e.rhs)
            return inner, c + lhs.value
    return e, 0


def _const_compare(op: str, a: int, b: int, signed: bool) -> bool:
    if not signed:
        a &= 2**64 - 1
        b &= 2**64 - 1
    return {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b,
            "==": a == b, "!=": a != b}[op]


def _const_int_binop(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise CompileError("constant division by zero")
        return trunc_div(a, b)
    if op == "%":
        if b == 0:
            raise CompileError("constant modulo by zero")
        return trunc_rem(a, b)
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    if op == "<<":
        return a << (b & 63)
    if op == ">>":
        return a >> (b & 63)
    raise CompileError(f"unknown constant op {op}")


def _children(node: object) -> list[object]:
    out: list[object] = []
    if hasattr(node, "__dataclass_fields__"):
        for name in node.__dataclass_fields__:  # type: ignore[attr-defined]
            v = getattr(node, name)
            if isinstance(v, (A.Expr, A.Stmt)):
                out.append(v)
            elif isinstance(v, list):
                out.extend(x for x in v if isinstance(x, (A.Expr, A.Stmt)))
    return out


def lower_function(func: A.FuncDef, info: FunctionInfo,
                   functions: dict[str, FunctionInfo]) -> TFunc:
    """Lower one checked function to TAC."""
    return Lowerer(func, info, functions).run()
