"""IR-side symbolic executor: a term-level mirror of the lowering.

For every MiniLLVM construct this module computes the *same canonical
term* the machine-side executor derives from the emitted bytes, by
replaying the decisions of :class:`repro.ir.codegen.lower.Lowerer` and
the emitter symbolically:

* integer values are 64-bit zero-extended canonical terms; i32 operations
  pre-mask both operands and the result to 32 bits (32-bit register forms
  zero-extend on write, so the machine side does exactly this);
* fused compares (`icmp` used only by branches / selects) never
  materialize — branch sites rebuild the condition term from the compare's
  operands, mirroring ``_icmp_parts``;
* GEPs produce naive ``base + index*size`` linear terms; the ``lin``
  normal form provably absorbs every peeling `address_of` performs;
* loads/stores/calls go through the shared :class:`MemState` so effect
  order and load-fence terms line up with the machine side.

Also home to the IR liveness analysis the per-block induction needs.
Liveness is computed over *located* values: a value without a machine home
(fused compare, folded GEP, copy-propagated cast) is expanded into the
located values it is recomputed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.machine import terms as T
from repro.analysis.machine.state import Inconclusive, MemState
from repro.arith import f64_to_bits
from repro.ir import instructions as I
from repro.ir.irtypes import DoubleType, IntType, PointerType, VectorType
from repro.ir.module import BasicBlock, Function, GlobalVariable
from repro.ir.values import (
    Argument, Constant, ConstantFP, ConstantVector, Undef, Value,
)

#: icmp predicate -> emitter condition code (mirror of Lowerer._icmp_parts)
ICMP_CC = {"eq": "e", "ne": "ne", "slt": "l", "sle": "le", "sgt": "g",
           "sge": "ge", "ult": "b", "ule": "be", "ugt": "a", "uge": "ae"}

#: fcmp predicate -> cc (mirror of lower._FCMP_CC; ucomisd semantics)
FCMP_CC = {
    "oeq": "e", "one": "ne", "olt": "b", "ole": "be", "ogt": "a", "oge": "ae",
    "ueq": "e", "une": "ne", "ult": "b", "ule": "be", "ugt": "a", "uge": "ae",
}


def _cls_of(t) -> str:
    if isinstance(t, DoubleType):
        return "f"
    if isinstance(t, VectorType) or (isinstance(t, IntType) and t.bits == 128):
        return "v"
    return "i"


def _is_leaf(v: Value) -> bool:
    return isinstance(v, (Constant, ConstantFP, ConstantVector, Undef,
                          GlobalVariable, Function))


# -- liveness over located values ---------------------------------------------


class Liveness:
    """live_in/live_out per block, in terms of located values.

    ``expand(v)`` maps a value to the set of located values needed to
    recompute it: located values map to themselves; leaves to nothing;
    location-less instructions to the union over their operands.
    """

    def __init__(self, func: Function, value_locs: dict[int, tuple]) -> None:
        self.func = func
        self.locs = value_locs
        self.by_id: dict[int, Value] = {}
        for a in func.args:
            self.by_id[id(a)] = a
        for ins in func.instructions():
            self.by_id[id(ins)] = ins
        self._expand_cache: dict[int, frozenset[int]] = {}
        self.live_in: dict[str, frozenset[int]] = {}
        self._compute()

    def expand(self, v: Value) -> frozenset[int]:
        key = id(v)
        got = self._expand_cache.get(key)
        if got is not None:
            return got
        if _is_leaf(v):
            out: frozenset[int] = frozenset()
        elif key in self.locs or isinstance(v, (Argument, I.Phi)):
            out = frozenset((key,))
        elif isinstance(v, I.Instruction):
            self._expand_cache[key] = frozenset()  # cycle guard
            acc: set[int] = set()
            for op in v.operands:
                acc |= self.expand(op)
            out = frozenset(acc)
        else:
            out = frozenset()
        self._expand_cache[key] = out
        return out

    def _uses(self, ins: I.Instruction) -> frozenset[int]:
        acc: set[int] = set()
        for op in ins.operands:
            acc |= self.expand(op)
        return frozenset(acc)

    def _compute(self) -> None:
        func = self.func
        live_in: dict[str, set[int]] = {b.name: set() for b in func.blocks}
        changed = True
        while changed:
            changed = False
            for blk in reversed(func.blocks):
                live: set[int] = set()
                for succ in blk.successors():
                    sl = set(live_in[succ.name])
                    for phi in succ.phis():
                        sl.discard(id(phi))
                        if id(phi) in self.locs:
                            inc = phi.incoming_for(blk)
                            if inc is not None:
                                sl |= self.expand(inc)
                    live |= sl
                for ins in reversed(blk.instructions):
                    if isinstance(ins, I.Phi):
                        continue
                    live.discard(id(ins))
                    live |= self._uses(ins)
                for phi in blk.phis():
                    live.discard(id(phi))
                if live != live_in[blk.name]:
                    live_in[blk.name] = live
                    changed = True
        self.live_in = {k: frozenset(v) for k, v in live_in.items()}

    def check_set(self, blk: BasicBlock) -> list[Value]:
        """Values whose location must be proven at entry to ``blk``."""
        ids = set(self.live_in[blk.name])
        for phi in blk.phis():
            if id(phi) in self.locs:
                ids.add(id(phi))
        return [self.by_id[i] for i in sorted(ids)]


# -- the mirror executor ------------------------------------------------------


@dataclass
class IRPath:
    """One symbolic path through the IR of a single extended block."""

    block: BasicBlock
    index: int
    env: dict[int, T.Term]
    mem: MemState
    constraints: list[T.Term] = field(default_factory=list)

    def fork(self) -> "IRPath":
        return IRPath(self.block, self.index, dict(self.env),
                      self.mem.clone(), list(self.constraints))


@dataclass
class IRExit:
    """Where an IR path left the block."""

    kind: str                     # 'edge' | 'ret' | 'trap'
    constraints: frozenset
    env: dict[int, T.Term]
    mem: MemState
    landing: BasicBlock | None = None   # for 'edge'
    phi_terms: dict[int, T.Term] = field(default_factory=dict)
    ret_term: T.Term | None = None      # for 'ret' (None for void)
    ret_cls: str = ""


class IRExecutor:
    """Mirrors the lowering over one block, forking at conditional exits."""

    def __init__(self, witness, arities: dict[str, tuple[int, int]]) -> None:
        self.wit = witness
        self.func: Function = witness.func
        self.arities = arities
        self._use_counts: dict[int, int] = {}
        self._branch_only: dict[int, bool] = {}
        self._select_only: dict[int, bool] = {}
        for ins in self.func.instructions():
            for op in ins.operands:
                self._use_counts[id(op)] = self._use_counts.get(id(op), 0) + 1

    # -- lowering-predicate mirrors ------------------------------------------

    def _single_use_here(self, value: Value, user: I.Instruction) -> bool:
        if self._use_counts.get(id(value), 0) != 1:
            return False
        for op in user.operands:
            if op is value:
                return True
        return False

    def only_used_by_branches(self, value: Value) -> bool:
        got = self._branch_only.get(id(value))
        if got is not None:
            return got
        ok = True
        for ins in self.func.instructions():
            for op in ins.operands:
                if op is value:
                    if not (isinstance(ins, I.Br) and ins.is_conditional
                            and self._single_use_here(value, ins)):
                        ok = False
        self._branch_only[id(value)] = ok
        return ok

    def only_used_by_selects(self, value: Value) -> bool:
        got = self._select_only.get(id(value))
        if got is not None:
            return got
        ok = True
        for ins in self.func.instructions():
            for op in ins.operands:
                if op is value and not isinstance(ins, I.Select):
                    ok = False
        self._select_only[id(value)] = ok
        return ok

    # -- terms ----------------------------------------------------------------

    def term(self, p: IRPath, v: Value) -> T.Term:
        """Canonical term of ``v`` (for 'v'-class values: a lane pair)."""
        got = p.env.get(id(v))
        if got is not None:
            return got
        t = self._leaf_or_recompute(p, v)
        p.env[id(v)] = t
        return t

    def _leaf_or_recompute(self, p: IRPath, v: Value) -> T.Term:
        if isinstance(v, Constant):
            if _cls_of(v.type) == "v":
                raw = v.value
                return (T.const(raw & T.MASK64), T.const(raw >> 64))
            return T.const(v.value)
        if isinstance(v, ConstantFP):
            return T.const(f64_to_bits(v.value))
        if isinstance(v, ConstantVector):
            elems = v.elements
            e0 = elems[0].value if hasattr(elems[0], "value") else 0.0
            e1 = elems[1].value if len(elems) > 1 and hasattr(elems[1], "value") else 0.0
            return (T.const(f64_to_bits(float(e0))), T.const(f64_to_bits(float(e1))))
        if isinstance(v, Undef):
            cls = _cls_of(v.type)
            return (0, 0) if cls == "v" else 0
        if isinstance(v, GlobalVariable):
            if v.addr is None:
                raise Inconclusive(f"global @{v.name} unplaced")
            return T.const(v.addr)
        if isinstance(v, Argument):
            raise Inconclusive(f"argument %{v.name} not seeded")
        if isinstance(v, I.Phi):
            raise Inconclusive("phi demanded outside its env")
        if isinstance(v, I.Instruction):
            return self._recompute(p, v)
        raise Inconclusive(f"cannot evaluate {v!r}")

    def _recompute(self, p: IRPath, ins: I.Instruction) -> T.Term:
        """Pure recomputation of a location-less instruction's value."""
        if isinstance(ins, I.BinOp):
            return self._binop_term(p, ins)
        if isinstance(ins, I.ICmp):
            a, b, cc, w = self._icmp_parts(p, ins)
            return T.cc_term(cc, w, a, b)
        if isinstance(ins, I.FCmp):
            if ins.pred not in FCMP_CC:
                raise Inconclusive(f"fcmp {ins.pred}")
            return T.fcc_term(FCMP_CC[ins.pred],
                              self.lo(self.term(p, ins.operands[0])),
                              self.lo(self.term(p, ins.operands[1])))
        if isinstance(ins, I.GEP):
            return self._gep_term(p, ins)
        if isinstance(ins, I.Cast):
            return self._cast_term(p, ins)
        if isinstance(ins, I.Alloca):
            return self._alloca_term(ins)
        if isinstance(ins, I.Select) and _cls_of(ins.type) == "i":
            cond, a_v, b_v = ins.operands
            return T.ite(self._select_cond(p, cond),
                         self.term(p, a_v), self.term(p, b_v))
        raise Inconclusive(f"cannot recompute {ins.opcode} without a home")

    @staticmethod
    def lo(t: T.Term) -> T.Term:
        return t[0] if isinstance(t, tuple) and len(t) == 2 and not isinstance(t[0], str) else t

    # -- op mirrors -----------------------------------------------------------

    def _int_operand(self, p: IRPath, v: Value) -> T.Term:
        """Mirror of Lowerer.int_operand (immediates stay sign-extended)."""
        if isinstance(v, Constant) and -(2**31) <= v.signed < 2**31:
            return T.const(v.signed)
        return self.term(p, v)

    def _sext64(self, p: IRPath, v: Value) -> T.Term:
        bits = v.type.bits
        t = self.term(p, v)
        if bits in (64, 1):
            return t
        return T.sext(8 * max(1, bits // 8), t)

    def _icmp_parts(self, p: IRPath, cmp: I.ICmp
                    ) -> tuple[T.Term, T.Term, str, int]:
        t = cmp.operands[0].type
        bits = t.bits if isinstance(t, IntType) else 64
        signed = cmp.pred in ("slt", "sle", "sgt", "sge")
        width = 8
        if bits in (64, 1) or not signed:
            a = self.term(p, cmp.operands[0])
            b = self._int_operand(p, cmp.operands[1])
        elif bits == 32:
            width = 4
            a = self.term(p, cmp.operands[0])
            rhs = cmp.operands[1]
            b = T.const(rhs.signed) if isinstance(rhs, Constant) else self.term(p, rhs)
        else:
            a = self._sext64(p, cmp.operands[0])
            rhs = cmp.operands[1]
            b = T.const(rhs.signed) if isinstance(rhs, Constant) \
                else self._sext64(p, rhs)
        return a, b, ICMP_CC[cmp.pred], width

    def _binop_term(self, p: IRPath, ins: I.BinOp) -> T.Term:
        t = ins.type
        a_v, b_v = ins.operands
        opc = ins.opcode
        if isinstance(t, VectorType) or (isinstance(t, IntType) and t.bits == 128):
            a = self.term(p, a_v)
            b = self.term(p, b_v)
            if opc in ("fadd", "fsub", "fmul"):
                return (T.fp_term(opc, a[0], b[0]), T.fp_term(opc, a[1], b[1]))
            if opc in ("and", "or", "xor"):
                op = {"and": T.op_and, "or": T.op_or, "xor": T.op_xor}[opc]
                return (op(a[0], b[0]), op(a[1], b[1]))
            raise Inconclusive(f"vector {opc}")
        if isinstance(t, DoubleType):
            return T.fp_term({"fadd": "fadd", "fsub": "fsub", "fmul": "fmul",
                              "fdiv": "fdiv"}[opc],
                             self.lo(self.term(p, a_v)), self.lo(self.term(p, b_v)))
        assert isinstance(t, IntType)
        bits = t.bits
        width = 4 if bits == 32 else 8
        mask_after = bits not in (32, 64) and opc not in ("and", "or", "lshr")

        def at_w(x: T.Term) -> T.Term:
            return T.mask(32, x) if width == 4 else x

        if opc in ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr"):
            a = at_w(self.term(p, a_v))
            b = at_w(self._int_operand(p, b_v))
            if opc == "add":
                res = T.op_add(a, b)
            elif opc == "sub":
                res = T.op_sub(a, b)
            elif opc == "mul":
                res = T.op_mul(a, b)
            elif opc == "and":
                res = T.op_and(a, b)
            elif opc == "or":
                res = T.op_or(a, b)
            elif opc == "xor":
                res = T.op_xor(a, b)
            elif opc == "shl":
                res = T.op_shl(width, a, b)
            else:
                res = T.op_shr(width, a, b)
            res = at_w(res)
        elif opc == "ashr":
            a = self._sext64(p, a_v) if bits not in (32, 64) \
                else self.term(p, a_v)
            b = self._int_operand(p, b_v)
            res = at_w(T.op_sar(width, at_w(a), at_w(b) if not isinstance(b, int) else b))
        elif opc in ("sdiv", "srem", "udiv", "urem"):
            if opc in ("udiv", "urem") and bits == 32:
                raise Inconclusive("udiv i32 is not lowered")
            if bits in (32, 64) or opc in ("udiv", "urem"):
                a = self.term(p, a_v)
                b = self.term(p, b_v) if opc in ("sdiv", "srem") \
                    else self._int_operand(p, b_v)
            else:
                a = self._sext64(p, a_v)
                b = T.const(b_v.signed) if isinstance(b_v, Constant) \
                    else self._sext64(p, b_v)
            op = T.op_idiv if opc in ("sdiv", "udiv") else T.op_irem
            res = at_w(op(width, at_w(a), at_w(b)))
        else:
            raise Inconclusive(f"binop {opc}")
        if mask_after:
            res = T.mask(1 if bits == 1 else 8 * max(1, bits // 8), res)
        return res

    def _gep_term(self, p: IRPath, g: I.GEP) -> T.Term:
        base = self.term(p, g.operands[0])
        idx = g.operands[1]
        size = g.elem.size_bytes()
        if isinstance(idx, Constant):
            return T.op_add(base, T.const(idx.signed * size))
        if isinstance(idx.type, IntType) and idx.type.bits != 64:
            raise Inconclusive("non-i64 GEP index")
        return T.op_add(base, T.op_scale(self.term(p, idx), size))

    def _alloca_term(self, ins: I.Alloca) -> T.Term:
        off = self.wit.alloca_offsets.get(id(ins))
        if off is None:
            raise Inconclusive("alloca without frame slot")
        return T.stack_addr(off - 8)  # rbp = rsp0 - 8

    def _cast_term(self, p: IRPath, ins: I.Cast) -> T.Term:
        (src,) = ins.operands
        op = ins.opcode
        dst_t = ins.type
        if op == "trunc":
            bits = dst_t.bits
            t = self.term(p, src)
            if _cls_of(src.type) == "v":
                t = t[0]
            if bits == 64:
                return t
            if bits == 1:
                return T.mask(1, t)
            if bits < 8:
                raise Inconclusive(f"trunc to i{bits}")
            return T.mask(8 * (bits // 8), t)
        if op == "zext":
            if _cls_of(dst_t) == "v":
                return (self.term(p, src), 0)
            return self.term(p, src)
        if op == "sext":
            sbits = src.type.bits
            dbits = dst_t.bits
            v = self._sext64(p, src) if sbits > 1 else self.term(p, src)
            if sbits == 1 and dbits > 1:
                neg = T.op_neg(v)
                return T.mask(8 * (dbits // 8), neg) if dbits < 64 else neg
            return T.mask(8 * (dbits // 8), v) if dbits < 64 else v
        if op in ("inttoptr", "ptrtoint"):
            return self.term(p, src)
        if op == "bitcast":
            scls, dcls = _cls_of(src.type), _cls_of(dst_t)
            t = self.term(p, src)
            if scls == dcls:
                return t
            if scls == "i" and dcls == "f":
                return t
            if scls == "f" and dcls == "i":
                return self.lo(t)
            if scls == "f" and dcls == "v":
                return (self.lo(t), 0)
            if scls == "v" and dcls == "f":
                return t[0]
            raise Inconclusive(f"bitcast {src.type} -> {dst_t}")
        if op in ("sitofp", "uitofp"):
            v = self._sext64(p, src) if op == "sitofp" else self.term(p, src)
            return ("cvt_i2f", v)
        if op == "fptosi":
            t = ("cvt_f2i", self.lo(self.term(p, src)))
            bits = dst_t.bits
            return T.mask(8 * (bits // 8), t) if bits < 64 else t
        raise Inconclusive(f"cast {op}")

    def _select_cond(self, p: IRPath, cond: Value) -> T.Term:
        if isinstance(cond, I.ICmp) and self.only_used_by_selects(cond):
            a, b, cc, w = self._icmp_parts(p, cond)
            return T.cc_term(cc, w, a, b)
        return T.cc_term("ne", 8, self.term(p, cond), 0)

    def _branch_cond(self, p: IRPath, cond: Value, at: I.Instruction) -> T.Term:
        """Mirror of Lowerer._terminator / _emit_cond_jump condition forms."""
        if isinstance(cond, I.ICmp) and self._single_use_here(cond, at):
            a, b, cc, w = self._icmp_parts(p, cond)
            return T.cc_term(cc, w, a, b)
        if isinstance(cond, I.FCmp) and self._single_use_here(cond, at) \
                and cond.pred in FCMP_CC:
            return T.fcc_term(FCMP_CC[cond.pred],
                              self.lo(self.term(p, cond.operands[0])),
                              self.lo(self.term(p, cond.operands[1])))
        return T.cc_term("ne", 8, self.term(p, cond), 0)

    def _diamond_cond(self, p: IRPath, cond: Value) -> T.Term:
        """Mirror of _emit_cond_jump (float-select diamonds)."""
        if isinstance(cond, I.ICmp):
            a, b, cc, w = self._icmp_parts(p, cond)
            return T.cc_term(cc, w, a, b)
        return T.cc_term("ne", 8, self.term(p, cond), 0)

    # -- memory ---------------------------------------------------------------

    def _store_val(self, t: T.Term, w: int) -> T.Term:
        return T.mask(8 * w, t) if w < 8 else t

    def _do_load(self, p: IRPath, addr: T.Term, w: int) -> T.Term:
        off = T.stack_offset(addr)
        if off is not None:
            return p.mem.stack_read(off, w)
        if isinstance(addr, int):
            lo, hi = self.wit.rodata_range
            if lo <= addr and addr + w <= hi and self.wit.read_rodata is not None:
                return T.const(int.from_bytes(self.wit.read_rodata(addr, w), "little"))
        return p.mem.load(addr, w)

    def _do_store(self, p: IRPath, addr: T.Term, w: int, val: T.Term) -> None:
        off = T.stack_offset(addr)
        if off is not None:
            p.mem.stack_write(off, w, self._store_val(val, w))
            return
        p.mem.store(addr, w, self._store_val(val, w))

    # -- execution ------------------------------------------------------------

    def run_block(self, block: BasicBlock, env: dict[int, T.Term],
                  mem: MemState) -> list[IRExit]:
        """Execute ``block`` from ``env``; fork at conditional exits."""
        from repro.analysis.machine.verifier import MAX_PATHS  # imports us
        exits: list[IRExit] = []
        work = [IRPath(block, 0, env, mem)]
        while work:
            p = work.pop()
            self._run_path(p, work, exits)
            if len(exits) + len(work) > MAX_PATHS:
                raise Inconclusive("too many IR paths")
        return exits

    def _run_path(self, p: IRPath, work: list[IRPath],
                  exits: list[IRExit]) -> None:
        instrs = p.block.instructions
        while p.index < len(instrs):
            ins = instrs[p.index]
            p.index += 1
            if isinstance(ins, I.Phi):
                continue
            if ins.is_terminator:
                self._terminator(p, ins, work, exits)
                return
            if not self._instr(p, ins, work):
                return  # forked; clones continue from the worklist
        raise Inconclusive(f"block {p.block.name} lacks a terminator")

    def _instr(self, p: IRPath, ins: I.Instruction, work: list[IRPath]) -> bool:
        """Execute one instruction; False if the path forked (select diamond)."""
        if isinstance(ins, I.Select) and _cls_of(ins.type) != "i":
            cond = self._diamond_cond(p, ins.operands[0])
            neg = T.negate_cond(cond)
            if isinstance(cond, int):
                p.env[id(ins)] = self.term(
                    p, ins.operands[1] if cond else ins.operands[2])
                return True
            if neg is None:
                raise Inconclusive("unnegatable select condition")
            q = p.fork()
            p.constraints.append(cond)
            p.env[id(ins)] = self.term(p, ins.operands[1])
            q.constraints.append(neg)
            q.env[id(ins)] = self.term(q, ins.operands[2])
            work.append(p)
            work.append(q)
            return False
        if isinstance(ins, (I.BinOp, I.GEP, I.Cast, I.Alloca)):
            p.env[id(ins)] = self._recompute(p, ins)
            return True
        if isinstance(ins, I.ICmp):
            if not self.only_used_by_branches(ins):
                a, b, cc, w = self._icmp_parts(p, ins)
                p.env[id(ins)] = T.cc_term(cc, w, a, b)
            return True
        if isinstance(ins, I.FCmp):
            if not self.only_used_by_branches(ins):
                if ins.pred not in FCMP_CC:
                    raise Inconclusive(f"fcmp {ins.pred}")
                p.env[id(ins)] = T.fcc_term(
                    FCMP_CC[ins.pred],
                    self.lo(self.term(p, ins.operands[0])),
                    self.lo(self.term(p, ins.operands[1])))
            return True
        if isinstance(ins, I.Select):  # integer select: no fork
            cond, a_v, b_v = ins.operands
            p.env[id(ins)] = T.ite(self._select_cond(p, cond),
                                   self.term(p, a_v), self.term(p, b_v))
            return True
        if isinstance(ins, I.Load):
            self._load(p, ins)
            return True
        if isinstance(ins, I.Store):
            self._store(p, ins)
            return True
        if isinstance(ins, I.ExtractElement):
            vec, idx = ins.operands
            if not isinstance(idx, Constant):
                raise Inconclusive("dynamic extractelement")
            p.env[id(ins)] = self.term(p, vec)[idx.value & 1]
            return True
        if isinstance(ins, I.InsertElement):
            vec, val, idx = ins.operands
            if not isinstance(idx, Constant):
                raise Inconclusive("dynamic insertelement")
            vt = self.term(p, vec)
            sv = self.lo(self.term(p, val))
            p.env[id(ins)] = (sv, vt[1]) if idx.value == 0 else (vt[0], sv)
            return True
        if isinstance(ins, I.ShuffleVector):
            a, b = ins.operands
            m0, m1 = ins.mask
            at = self.term(p, a if m0 < 2 else b)
            bt = self.term(p, a if m1 < 2 else b)
            p.env[id(ins)] = (at[m0 & 1], bt[m1 & 1])
            return True
        if isinstance(ins, I.Call):
            self._call(p, ins)
            return True
        raise Inconclusive(f"cannot mirror {ins.opcode}")

    def _load(self, p: IRPath, ins: I.Load) -> None:
        t = ins.type
        addr = self.term(p, ins.operands[0])
        cls = _cls_of(t)
        if cls == "f":
            p.env[id(ins)] = self._do_load(p, addr, 8)
        elif cls == "v":
            lo = self._do_load(p, addr, 8)
            hi = self._do_load(p, T.op_add(addr, 8), 8)
            p.env[id(ins)] = (lo, hi)
        else:
            width = t.size_bytes() if isinstance(t, IntType) else 8
            if isinstance(t, IntType) and t.bits == 1:
                width = 1
            val = self._do_load(p, addr, width)
            if isinstance(t, IntType) and t.bits == 1:
                val = T.mask(1, val)
            p.env[id(ins)] = val

    def _store(self, p: IRPath, ins: I.Store) -> None:
        value, pointer = ins.operands
        t = value.type
        addr = self.term(p, pointer)
        cls = _cls_of(t)
        if cls == "f":
            self._do_store(p, addr, 8, self.lo(self.term(p, value)))
        elif cls == "v":
            vt = self.term(p, value)
            self._do_store(p, addr, 8, vt[0])
            self._do_store(p, T.op_add(addr, 8), 8, vt[1])
        else:
            width = t.size_bytes() if isinstance(t, IntType) else 8
            self._do_store(p, addr, width, self.term(p, value))

    #: SWAR popcount constants, mirroring Lowerer._intrinsic
    _CTPOP = ((1, 0x55), (2, 0x33), (4, 0x0F))

    def _call(self, p: IRPath, ins: I.Call) -> None:
        if ins.intrinsic:
            name = ins.callee_name
            if name.startswith("llvm.ctpop"):
                v = self.term(p, ins.operands[0])
                t3 = T.op_sub(v, T.op_and(T.op_shr(8, v, 1), 0x55))
                a3 = T.op_add(T.op_and(t3, 0x33),
                              T.op_and(T.op_shr(8, t3, 2), 0x33))
                b2 = T.op_add(a3, T.op_shr(8, a3, 4))
                p.env[id(ins)] = T.op_and(b2, 0x0F)
                return
            raise Inconclusive(f"intrinsic {name}")
        iargs: list[T.Term] = []
        fargs: list[T.Term] = []
        for arg in ins.operands:
            cls = _cls_of(arg.type)
            if cls == "f":
                fargs.append(self.lo(self.term(p, arg)))
            elif cls == "i":
                iargs.append(self.term(p, arg))
            else:
                raise Inconclusive("vector call argument")
        escapes = any(T.references_stack(t) for t in iargs)
        n = p.mem.call(("call", ins.callee_name, tuple(iargs), tuple(fargs)),
                       escapes)
        if not ins.type.is_void:
            if _cls_of(ins.type) == "f":
                p.env[id(ins)] = ("fret", n)
            else:
                p.env[id(ins)] = ("ret", n)

    # -- terminators and edges ------------------------------------------------

    def _terminator(self, p: IRPath, ins: I.Instruction,
                    work: list[IRPath], exits: list[IRExit]) -> None:
        if isinstance(ins, I.Ret):
            rt = None
            rc = ""
            if ins.value is not None:
                rc = _cls_of(ins.value.type)
                rt = self.lo(self.term(p, ins.value)) if rc == "f" \
                    else self.term(p, ins.value)
                if rc == "v":
                    raise Inconclusive("vector return")
            exits.append(IRExit("ret", frozenset(p.constraints), p.env, p.mem,
                                ret_term=rt, ret_cls=rc))
            return
        if isinstance(ins, I.Unreachable):
            exits.append(IRExit("trap", frozenset(p.constraints), p.env, p.mem))
            return
        if isinstance(ins, I.Br):
            if not ins.is_conditional:
                self._edge(p, p.block, ins.targets[0], exits)
                return
            cond = self._branch_cond(p, ins.operands[0], ins)
            if isinstance(cond, int):
                self._edge(p, p.block, ins.targets[0 if cond else 1], exits)
                return
            neg = T.negate_cond(cond)
            if neg is None:
                raise Inconclusive("unnegatable branch condition")
            q = p.fork()
            p.constraints.append(cond)
            self._edge(p, p.block, ins.targets[0], exits)
            q.constraints.append(neg)
            self._edge(q, q.block, ins.targets[1], exits)
            return
        raise Inconclusive(f"terminator {ins.opcode}")

    def _edge(self, p: IRPath, pred: BasicBlock, succ: BasicBlock,
              exits: list[IRExit]) -> None:
        """Resolve the edge pred->succ, following label-less forward blocks."""
        phi_terms: dict[int, T.Term] = {}
        seen: set[int] = set()
        for _hop in range(64):
            phi_terms = {}
            for phi in succ.phis():
                inc = phi.incoming_for(pred)
                if inc is None:
                    raise Inconclusive(f"phi %{phi.name}: no incoming for {pred.name}")
                if isinstance(inc, Undef):
                    continue
                phi_terms[id(phi)] = self.term(p, inc)
            if succ.name in self.wit.block_addrs:
                exits.append(IRExit("edge", frozenset(p.constraints), p.env,
                                    p.mem, landing=succ, phi_terms=phi_terms))
                return
            if succ.terminator is not None \
                    and isinstance(succ.terminator, I.Unreachable):
                exits.append(IRExit("trap", frozenset(p.constraints),
                                    p.env, p.mem))
                return
            # transparent block: bind its phis, execute its body purely,
            # and follow its unconditional branch
            if id(succ) in seen:
                raise Inconclusive("forwarding cycle")
            seen.add(id(succ))
            p.env.update(phi_terms)
            effects_before = len(p.mem.effects)
            for ins in succ.instructions:
                if isinstance(ins, I.Phi) or ins.is_terminator:
                    continue
                if isinstance(ins, (I.Store, I.Call)):
                    raise Inconclusive(
                        f"effectful instruction in label-less block {succ.name}")
                if not self._instr(p, ins, []):
                    raise Inconclusive(
                        f"forking instruction in label-less block {succ.name}")
            if len(p.mem.effects) != effects_before:
                raise Inconclusive(f"effects in label-less block {succ.name}")
            term = succ.terminator
            if not isinstance(term, I.Br) or term.is_conditional:
                raise Inconclusive(
                    f"label-less block {succ.name} has a non-trivial exit")
            pred, succ = succ, term.targets[0]
        raise Inconclusive("forwarding chain too long")
