"""Machine-level translation validator.

Decodes the bytes the backend just emitted (once, in
:func:`~repro.analysis.machine.mcfg.build_mcfg`, whose encoding audit is
part of the proof: an ERROR there refutes), symbolically executes every
basic block over an abstract register/flag/stack state, and checks the
result against the source MiniLLVM IR block by block.  The proof is an
induction over the block invariant

    at entry to block B, loc(v) holds term(v) for every live-in v

seeded with fresh symbolic values per block and discharged at every
successor edge (with phi substitution) and at every return.  Both sides
build values through :mod:`repro.analysis.machine.terms`, so semantic
correspondence reduces to structural equality of canonical terms.

Beyond value correspondence the executor enforces the machine-only
obligations: register-allocation soundness (a clobbered live value shows
up as a term mismatch at the next edge), callee-saved discipline and
return-address integrity at ``ret``, balanced stack adjustments, no
writes into the protected save area, no accesses below the red zone, and
no stores over the return sentinel.

The driver is ISA-neutral: everything x86-specific lives in the
:class:`X86Executor`; a second ISA plugs in by providing another executor
with the same ``seed_entry / seed_block / run`` surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.findings import ERROR, Finding, WARNING
from repro.analysis.machine import terms as T
from repro.analysis.machine.irexec import IRExecutor, IRExit, IRPath, Liveness, _cls_of
from repro.analysis.machine.mcfg import build_mcfg
from repro.analysis.machine.state import Inconclusive, MemState, match_effects
from repro.analysis.machine.witness import CodeWitness
from repro.cpu.image import RETURN_SENTINEL
from repro.ir import instructions as I
from repro.x86 import registers as R
from repro.x86.effects import effects_of
from repro.x86.instr import Imm, Instruction, Mem, Reg
from repro.x86.isa import cc_of

PROVED = "proved"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

#: condition codes both executors can evaluate against cmp/ucomisd flags
_USABLE_CC = frozenset({"e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae"})

_CALLEE_SAVED = frozenset(R.SYSV_CALLEE_SAVED)

#: symbolic paths per block, on either side, before a run is inconclusive
MAX_PATHS = 64
#: machine instructions per path before a run is inconclusive
MAX_STEPS = 4096


class _Refuted(Exception):
    """Abort the current run; the ERROR finding is already recorded."""


@dataclass
class VerifyResult:
    """Outcome of verifying one compiled function."""

    verdict: str                       #: proved | refuted | inconclusive
    findings: list[Finding] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)  #: inconclusive causes
    blocks_checked: int = 0
    paths_checked: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.verdict == PROVED


@dataclass
class MachState:
    """Abstract x86 machine state along one symbolic path."""

    regs: list          #: 16 GPR terms (64-bit canonical)
    xmm: list           #: 16 (lo, hi) lane-term pairs
    flags: object       #: None | ("icmp",w,a,b) | ("fcmp",a,b) | ("arith",)
    mem: MemState
    constraints: list
    pc: int = 0
    steps: int = 0
    prologue_ok: bool = False   #: writes into the save area allowed

    def clone(self) -> "MachState":
        return MachState(list(self.regs), list(self.xmm), self.flags,
                         self.mem.clone(), list(self.constraints),
                         self.pc, self.steps, self.prologue_ok)


@dataclass
class MachExit:
    """Where one machine path left the block."""

    kind: str                  #: 'edge' | 'ret' | 'trap'
    constraints: frozenset
    state: MachState
    pc: int = 0                #: target block address for 'edge'
    retaddr: object = None     #: popped return-address term for 'ret'


class X86Executor:
    """Symbolic interpreter for the decoded x86 bytes of one function."""

    def __init__(self, verifier: "MachineVerifier") -> None:
        self.v = verifier
        self.wit = verifier.wit
        self.decoded = verifier.cfg.instructions
        saves = self.wit.used_callee_saved
        #: [lo, hi) of retaddr + saved rbp + saved callee regs, rsp0-relative
        self.protected = (-(8 + 8 * len(saves)), 8)
        self.frame_total = 8 + 8 * len(saves) + self.wit.local_size

    # -- seeding --------------------------------------------------------------

    def seed_entry(self) -> MachState:
        regs = [("sym", f"reg:{R.gp_name(i, 8)}") for i in range(16)]
        xmm = [(("sym", ("xlo", j)), ("sym", ("xhi", j))) for j in range(16)]
        iarg = farg = 0
        for arg in self.wit.func.args:
            cls = _cls_of(arg.type)
            if cls == "i":
                if iarg >= len(R.SYSV_INT_ARGS):
                    raise Inconclusive("more than 6 integer arguments")
                regs[R.SYSV_INT_ARGS[iarg]] = ("sym", ("iarg", iarg))
                iarg += 1
            elif cls == "f":
                if farg >= 8:
                    raise Inconclusive("more than 8 float arguments")
                xmm[farg] = (("sym", ("farg", farg)), ("sym", ("farghi", farg)))
                farg += 1
            else:
                raise Inconclusive("vector argument")
        regs[R.RSP] = T.RSP0
        st = MachState(regs, xmm, None, MemState(self.v.alloca_ranges), [],
                       pc=self.wit.entry, prologue_ok=True)
        st.mem.stack[0] = (8, ("sym", "retaddr"))
        return st

    def seed_block(self, addr: int) -> MachState:
        regs = [("sym", ("loc", i)) for i in range(16)]
        regs[R.RSP] = T.stack_addr(-self.frame_total)
        regs[R.RBP] = T.stack_addr(-8)
        xmm = [(("sym", ("xlo", j)), ("sym", ("xhi", j))) for j in range(16)]
        return MachState(regs, xmm, None, MemState(self.v.alloca_ranges), [],
                         pc=addr)

    def seed_value(self, loc: tuple, cls: str):
        """The IR-side term for a value homed at ``loc`` at block entry."""
        kind, n = loc
        if kind == "reg":
            return ("sym", ("loc", n))
        if kind == "xmm":
            lo = ("sym", ("xlo", n))
            return (lo, ("sym", ("xhi", n))) if cls == "v" else lo
        if kind == "spill":
            lo = ("sload", 0, n - 8, 8)
            return (lo, ("sload", 0, n, 8)) if cls == "v" else lo
        raise Inconclusive(f"unknown location {loc!r}")

    def read_loc(self, st: MachState, loc: tuple, cls: str):
        """What the machine currently holds at ``loc``."""
        kind, n = loc
        if kind == "reg":
            return st.regs[n]
        if kind == "xmm":
            return st.xmm[n] if cls == "v" else st.xmm[n][0]
        if kind == "spill":
            lo = st.mem.stack_read(n - 8, 8)
            return (lo, st.mem.stack_read(n, 8)) if cls == "v" else lo
        raise Inconclusive(f"unknown location {loc!r}")

    # -- the run loop ---------------------------------------------------------

    def run(self, st: MachState) -> list[MachExit]:
        exits: list[MachExit] = []
        work = [st]
        while work:
            s = work.pop()
            while True:
                if s.steps > 0 and s.pc in self.v.stops:
                    exits.append(MachExit("edge", frozenset(s.constraints),
                                          s, pc=s.pc))
                    break
                ins = self._decode(s.pc)
                s.steps += 1
                if s.steps > MAX_STEPS:
                    raise Inconclusive("machine path exceeds step budget")
                done = self._exec(s, ins, work)
                if done is not None:
                    exits.append(done)
                    break
                if len(work) + len(exits) > MAX_PATHS:
                    raise Inconclusive("too many machine paths")
        return exits

    def _decode(self, pc: int) -> Instruction:
        ins = self.decoded.get(pc)
        if ins is None:
            # outside the function, or where mcfg met undecodable bytes
            self.v.error("machine.decode",
                         f"control reaches {pc:#x}, which mcfg did not decode")
        return ins

    # -- operand access -------------------------------------------------------

    def _rd_gp(self, st: MachState, r: Reg):
        # Corrupted bytes can decode to a form whose operand is memory or
        # a vector register where the handler assumed a GP register —
        # inconclusive (the mutant stays uninstalled), never a crash.
        if not isinstance(r, Reg) or r.kind != "gp" or r.index is None:
            raise Inconclusive(f"operand {r!r} where a GP register "
                               "was expected")
        v = st.regs[r.index]
        if r.size == 8:
            return v
        if r.size == 4:
            return T.mask(32, v)
        if r.size == 2:
            return T.mask(16, v)
        if r.high8:
            raise Inconclusive("high-8 register read")
        return T.mask(8, v)

    def _wr_gp(self, st: MachState, r: Reg, val) -> None:
        if not isinstance(r, Reg) or r.kind != "gp" or r.index is None:
            raise Inconclusive(f"operand {r!r} where a GP register "
                               "was expected")
        if r.size == 8:
            st.regs[r.index] = val
        elif r.size == 4:
            st.regs[r.index] = T.mask(32, val)
        elif r.size == 1 and not r.high8:
            st.regs[r.index] = ("merge1", st.regs[r.index], T.mask(8, val))
        else:
            raise Inconclusive(f"unsupported register write {r!r}")

    def _addr(self, st: MachState, m: Mem):
        if not isinstance(m, Mem):
            raise Inconclusive(f"operand {m!r} where a memory operand "
                               "was expected")
        if m.seg:
            raise Inconclusive(f"segment override {m.seg}")
        if m.riprel:
            return T.const(m.disp)
        t = T.const(m.disp)
        if m.base is not None:
            t = T.op_add(t, st.regs[m.base.index])
        if m.index is not None:
            t = T.op_add(t, T.op_scale(st.regs[m.index.index], m.scale))
        return t

    def _check_stack(self, st: MachState, off: int, w: int, write: bool) -> None:
        lo, hi = self.protected
        if write:
            if off < 8 and off + w > 0:
                self.v.error("machine.stack.protected",
                             f"write over the return address slot "
                             f"[{off},{off + w})")
            if not st.prologue_ok and off < hi and off + w > lo:
                self.v.error("machine.stack.protected",
                             f"write into the save area [{off},{off + w})")
        rsp_off = T.stack_offset(st.regs[R.RSP])
        if rsp_off is None:
            raise Inconclusive("stack access with non-affine rsp")
        if off < rsp_off - 128:
            self.v.error("machine.stack.redzone",
                         f"access at rsp0{off:+d} below the red zone "
                         f"(rsp is at rsp0{rsp_off:+d})")

    def _read_at(self, st: MachState, addr, w: int):
        off = T.stack_offset(addr)
        if off is not None:
            self._check_stack(st, off, w, write=False)
            return st.mem.stack_read(off, w)
        if isinstance(addr, int):
            lo, hi = self.wit.rodata_range
            if lo <= addr and addr + w <= hi and self.wit.read_rodata is not None:
                return T.const(int.from_bytes(
                    self.wit.read_rodata(addr, w), "little"))
        return st.mem.load(addr, w)

    def _write_at(self, st: MachState, addr, w: int, val) -> None:
        off = T.stack_offset(addr)
        if off is not None:
            self._check_stack(st, off, w, write=True)
            st.mem.stack_write(off, w, T.mask(8 * w, val) if w < 8 else val)
            return
        if isinstance(addr, int) and addr < RETURN_SENTINEL + 8 \
                and addr + w > RETURN_SENTINEL:
            self.v.error("machine.mem.sentinel",
                         f"store over the return sentinel at {addr:#x}")
        st.mem.store(addr, w, T.mask(8 * w, val) if w < 8 else val)

    def _value(self, st: MachState, op, width: int | None = None):
        """Read a gp-class operand (Reg/Imm/Mem) as a term."""
        if isinstance(op, Reg):
            return self._rd_gp(st, op)
        if isinstance(op, Imm):
            return T.const(op.value)
        return self._read_at(st, self._addr(st, op), width or op.size)

    def _xmm_lane(self, st: MachState, op, lane: int):
        if isinstance(op, Reg):
            return st.xmm[op.index][lane]
        addr = self._addr(st, op)
        return self._read_at(st, T.op_add(addr, 8 * lane), 8)

    # -- conditions -----------------------------------------------------------

    def _cond(self, st: MachState, cc: str):
        if cc not in _USABLE_CC:
            raise Inconclusive(f"condition {cc} not modeled")
        f = st.flags
        if isinstance(f, tuple) and f[0] == "icmp":
            return T.cc_term(cc, f[1], f[2], f[3])
        if isinstance(f, tuple) and f[0] == "fcmp":
            return T.fcc_term(cc, f[1], f[2])
        raise Inconclusive("conditional use of unmodeled flags")

    # -- instruction dispatch -------------------------------------------------

    def _exec(self, st: MachState, ins: Instruction,
              work: list[MachState]) -> MachExit | None:
        mn = ins.mnemonic
        fx = effects_of(ins)
        klass, tgt = fx.control, fx.target
        if klass == "jmp":
            if tgt is None:
                raise Inconclusive("indirect jump")
            if tgt == ins.addr:
                return MachExit("trap", frozenset(st.constraints), st)
            st.pc = tgt
            return None
        if klass == "jcc":  # always direct
            cond = self._cond(st, fx.cc)
            if isinstance(cond, int):
                st.pc = tgt if cond else ins.end
                return None
            neg = T.negate_cond(cond)
            taken = st.clone()
            taken.constraints.append(cond)
            taken.pc = tgt
            work.append(taken)
            st.constraints.append(neg)
            st.pc = ins.end
            return None
        if klass == "call":
            self._call(st, ins)
            st.pc = ins.end
            return None
        if klass == "ret":
            return self._ret(st)
        try:
            self._exec_plain(st, ins)
        except (TypeError, AttributeError, IndexError, KeyError) as exc:
            # Corrupted bytes can decode to a syntactically valid
            # instruction whose operand shapes no handler models (memory
            # where a register is assumed, wrong register class, a bad
            # operand count).  That is an unprovable stream, not a
            # verifier crash.
            raise Inconclusive(
                f"malformed operands for {ins.mnemonic} at "
                f"{ins.addr:#x}: {exc}")
        # a flag the instruction defines or leaves ISA-undefined is unmodeled
        # afterwards, unless _exec_plain just modeled the compare itself
        if (fx.flags_def or fx.flags_undef) and mn not in ("cmp", "ucomisd"):
            st.flags = ("arith",)
        st.pc = ins.end
        return None

    def _call(self, st: MachState, ins: Instruction) -> None:
        tgt = effects_of(ins).target
        if tgt is None:
            raise Inconclusive("indirect call")
        names = self.v.addr_names.get(tgt)
        if names is None:
            self.v.error("machine.call.target",
                         f"call to unknown address {tgt:#x}")
        rsp_off = T.stack_offset(st.regs[R.RSP])
        if rsp_off is None:
            raise Inconclusive("call with non-affine rsp")
        if rsp_off % 16 != 8:
            self.v.error("machine.call.alignment",
                         f"stack misaligned at call: rsp = rsp0{rsp_off:+d}")
        if any(n in self.v._bad_arity for n in names):
            raise Inconclusive(f"callee {names!r} used with varying arity")
        arities = {self.v.arities[n] for n in names if n in self.v.arities}
        if len(arities) > 1:
            raise Inconclusive(f"ambiguous call-target arity for {names!r}")
        ni, _nf = arities.pop() if arities else (6, 8)
        isnap = tuple(st.regs[r] for r in R.SYSV_INT_ARGS)
        fsnap = tuple(st.xmm[j][0] for j in range(8))
        escapes = any(T.references_stack(st.regs[r])
                      for r in R.SYSV_INT_ARGS[:ni])
        n = st.mem.call(("mcall", names, isnap, fsnap), escapes)
        for i in range(16):
            if i in (R.RSP,) or i in _CALLEE_SAVED:
                continue
            st.regs[i] = ("ret", n) if i == R.RAX else ("clobber", n, i)
        st.xmm[0] = (("fret", n), ("fclobber", n, 0, 1))
        for j in range(1, 16):
            st.xmm[j] = (("fclobber", n, j, 0), ("fclobber", n, j, 1))
        st.flags = ("arith",)

    def _ret(self, st: MachState) -> MachExit:
        rsp_off = T.stack_offset(st.regs[R.RSP])
        if rsp_off is None:
            raise Inconclusive("ret with non-affine rsp")
        retaddr = st.mem.stack_read(rsp_off, 8)
        st.regs[R.RSP] = T.op_add(st.regs[R.RSP], 8)
        return MachExit("ret", frozenset(st.constraints), st, retaddr=retaddr)

    def _exec_plain(self, st: MachState, ins: Instruction) -> None:
        mn = ins.mnemonic
        ops = ins.operands
        if mn == "nop":
            return
        if mn == "push":
            (src,) = ops
            st.regs[R.RSP] = T.op_add(st.regs[R.RSP], T.const(-8))
            off = T.stack_offset(st.regs[R.RSP])
            if off is None:
                raise Inconclusive("push with non-affine rsp")
            self._check_stack(st, off, 8, write=True)
            st.mem.stack_write(off, 8, self._value(st, src))
            return
        if mn == "pop":
            (dst,) = ops
            off = T.stack_offset(st.regs[R.RSP])
            if off is None:
                raise Inconclusive("pop with non-affine rsp")
            val = st.mem.stack_read(off, 8)
            st.regs[R.RSP] = T.op_add(st.regs[R.RSP], 8)
            self._wr_gp(st, dst, val)
            return
        if mn == "mov":
            dst, src = ops
            if isinstance(dst, Reg) and dst.kind == "gp":
                self._wr_gp(st, dst, self._value(st, src, dst.size))
                return
            if isinstance(dst, Mem):
                self._write_at(st, self._addr(st, dst), dst.size,
                               self._value(st, src, dst.size))
                return
            raise Inconclusive("mov form not modeled")
        if mn == "movzx":
            dst, src = ops
            self._wr_gp(st, dst, self._value(st, src))
            return
        if mn in ("movsx", "movsxd"):
            dst, src = ops
            bits = 32 if mn == "movsxd" else 8 * src.size
            self._wr_gp(st, dst, T.sext(bits, self._value(st, src)))
            return
        if mn == "lea":
            dst, src = ops
            self._wr_gp(st, dst, self._addr(st, src))
            return
        if mn in ("add", "sub", "and", "or", "xor"):
            dst, src = ops
            w = dst.size if isinstance(dst, Reg) else dst.size
            a = self._value(st, dst, w)
            b = self._value(st, src, w)
            fn = {"add": T.op_add, "sub": T.op_sub, "and": T.op_and,
                  "or": T.op_or, "xor": T.op_xor}[mn]
            res = fn(a, b)
            if isinstance(dst, Reg):
                self._wr_gp(st, dst, res)
            else:
                self._write_at(st, self._addr(st, dst), w, res)
            return
        if mn in ("shl", "shr", "sar"):
            dst, cnt = ops
            w = dst.size
            a = self._rd_gp(st, dst)
            if isinstance(cnt, Imm):
                b = cnt.value
            else:  # the cl form
                b = T.mask(8, st.regs[R.RCX])
            fn = {"shl": T.op_shl, "shr": T.op_shr, "sar": T.op_sar}[mn]
            self._wr_gp(st, dst, fn(4 if w == 4 else 8, a, b))
            return
        if mn == "imul":
            if len(ops) == 2:
                dst, src = ops
                res = T.op_mul(self._rd_gp(st, dst),
                               self._value(st, src, dst.size))
            elif len(ops) == 3:
                dst, src, imm = ops
                res = T.op_mul(self._value(st, src, dst.size),
                               T.const(imm.value))
            else:
                raise Inconclusive("one-operand imul")
            self._wr_gp(st, dst, res)
            return
        if mn == "neg":
            (dst,) = ops
            self._wr_gp(st, dst, T.op_neg(self._rd_gp(st, dst)))
            return
        if mn == "not":
            (dst,) = ops
            self._wr_gp(st, dst, T.op_xor(self._rd_gp(st, dst), T.MASK64))
            return
        if mn == "cqo":
            st.regs[R.RDX] = ("signhi", 8, st.regs[R.RAX])
            return
        if mn == "cdq":
            st.regs[R.RDX] = T.mask(
                32, ("signhi", 4, T.mask(32, st.regs[R.RAX])))
            return
        if mn == "idiv":
            (src,) = ops
            w = 4 if src.size == 4 else 8
            rax = st.regs[R.RAX] if w == 8 else T.mask(32, st.regs[R.RAX])
            expect = ("signhi", 8, st.regs[R.RAX]) if w == 8 \
                else T.mask(32, ("signhi", 4, T.mask(32, st.regs[R.RAX])))
            if st.regs[R.RDX] != expect:
                raise Inconclusive("idiv without matching sign extension")
            b = self._value(st, src, w)
            if w == 4:
                b = T.mask(32, b)
            q = T.op_idiv(w, rax, b)
            r = T.op_irem(w, rax, b)
            if w == 4:
                q, r = T.mask(32, q), T.mask(32, r)
            st.regs[R.RAX] = q
            st.regs[R.RDX] = r
            return
        if mn == "cmp":
            a, b = ops
            w = a.size if isinstance(a, (Reg, Mem)) else b.size
            st.flags = ("icmp", 4 if w == 4 else 8,
                        self._value(st, a, w), self._value(st, b, w))
            return
        if mn == "ucomisd":
            a, b = ops
            st.flags = ("fcmp", self._xmm_lane(st, a, 0),
                        self._xmm_lane(st, b, 0))
            return
        if mn.startswith("set") and cc_of(mn) is not None:
            (dst,) = ops
            cond = self._cond(st, cc_of(mn))
            if not isinstance(dst, Reg):
                raise Inconclusive("setcc to memory")
            self._wr_gp(st, dst, cond)
            return
        if mn.startswith("cmov") and cc_of(mn) is not None:
            dst, src = ops
            cond = self._cond(st, cc_of(mn))
            cur = self._rd_gp(st, dst)
            new = self._value(st, src, dst.size)
            self._wr_gp(st, dst, T.ite(cond, new, cur))
            return
        # -- SSE ------------------------------------------------------------
        if mn == "movq":
            dst, src = ops
            if isinstance(dst, Reg) and dst.kind == "xmm":
                st.xmm[dst.index] = (self._value(st, src, 8), 0)
            else:
                self._wr_gp(st, dst, st.xmm[src.index][0])
            return
        if mn == "movsd":
            dst, src = ops
            if isinstance(dst, Reg) and isinstance(src, Reg):
                st.xmm[dst.index] = (st.xmm[src.index][0],
                                     st.xmm[dst.index][1])
            elif isinstance(dst, Reg):
                st.xmm[dst.index] = (self._xmm_lane(st, src, 0), 0)
            else:
                self._write_at(st, self._addr(st, dst), 8,
                               st.xmm[src.index][0])
            return
        if mn in ("movupd", "movapd"):
            dst, src = ops
            if isinstance(dst, Reg) and isinstance(src, Reg):
                st.xmm[dst.index] = st.xmm[src.index]
            elif isinstance(dst, Reg):
                st.xmm[dst.index] = (self._xmm_lane(st, src, 0),
                                     self._xmm_lane(st, src, 1))
            else:
                addr = self._addr(st, dst)
                lanes = st.xmm[src.index]
                self._write_at(st, addr, 8, lanes[0])
                self._write_at(st, T.op_add(addr, 8), 8, lanes[1])
            return
        if mn == "movhpd":
            dst, src = ops
            if isinstance(dst, Reg):
                st.xmm[dst.index] = (st.xmm[dst.index][0],
                                     self._read_at(st, self._addr(st, src), 8))
            else:
                self._write_at(st, self._addr(st, dst), 8,
                               st.xmm[src.index][1])
            return
        if mn == "movlpd":
            dst, src = ops
            if isinstance(dst, Reg):
                st.xmm[dst.index] = (self._read_at(st, self._addr(st, src), 8),
                                     st.xmm[dst.index][1])
            else:
                self._write_at(st, self._addr(st, dst), 8,
                               st.xmm[src.index][0])
            return
        if mn == "unpcklpd":
            dst, src = ops
            st.xmm[dst.index] = (st.xmm[dst.index][0],
                                 self._xmm_lane(st, src, 0))
            return
        if mn == "unpckhpd":
            dst, src = ops
            st.xmm[dst.index] = (st.xmm[dst.index][1],
                                 self._xmm_lane(st, src, 1))
            return
        if mn == "haddpd":
            dst, src = ops
            d = st.xmm[dst.index]
            st.xmm[dst.index] = (
                T.fp_term("fadd", d[0], d[1]),
                T.fp_term("fadd", self._xmm_lane(st, src, 0),
                          self._xmm_lane(st, src, 1)))
            return
        if mn == "shufpd":
            dst, src, imm = ops
            sel = imm.value
            st.xmm[dst.index] = (st.xmm[dst.index][sel & 1],
                                 self._xmm_lane(st, src, (sel >> 1) & 1))
            return
        if mn in ("pxor", "xorpd"):
            dst, src = ops
            if isinstance(src, Reg) and src.index == dst.index:
                st.xmm[dst.index] = (0, 0)
            else:
                d = st.xmm[dst.index]
                st.xmm[dst.index] = (
                    T.op_xor(d[0], self._xmm_lane(st, src, 0)),
                    T.op_xor(d[1], self._xmm_lane(st, src, 1)))
            return
        if mn in ("pand", "andpd", "por", "orpd"):
            dst, src = ops
            fn = T.op_and if mn in ("pand", "andpd") else T.op_or
            d = st.xmm[dst.index]
            st.xmm[dst.index] = (fn(d[0], self._xmm_lane(st, src, 0)),
                                 fn(d[1], self._xmm_lane(st, src, 1)))
            return
        if mn in ("addsd", "subsd", "mulsd", "divsd"):
            dst, src = ops
            op = {"addsd": "fadd", "subsd": "fsub",
                  "mulsd": "fmul", "divsd": "fdiv"}[mn]
            d = st.xmm[dst.index]
            st.xmm[dst.index] = (
                T.fp_term(op, d[0], self._xmm_lane(st, src, 0)), d[1])
            return
        if mn in ("addpd", "subpd", "mulpd"):
            dst, src = ops
            op = {"addpd": "fadd", "subpd": "fsub", "mulpd": "fmul"}[mn]
            d = st.xmm[dst.index]
            st.xmm[dst.index] = (
                T.fp_term(op, d[0], self._xmm_lane(st, src, 0)),
                T.fp_term(op, d[1], self._xmm_lane(st, src, 1)))
            return
        if mn == "cvtsi2sd":
            dst, src = ops
            st.xmm[dst.index] = (("cvt_i2f", self._value(st, src, 8)),
                                 st.xmm[dst.index][1])
            return
        if mn == "cvttsd2si":
            dst, src = ops
            self._wr_gp(st, dst, ("cvt_f2i", self._xmm_lane(st, src, 0)))
            return
        raise Inconclusive(f"unmodeled instruction {mn}")


class MachineVerifier:
    """Proves one :class:`CodeWitness` correct, block by block."""

    def __init__(self, witness: CodeWitness) -> None:
        self.wit = witness
        self.cfg = build_mcfg(witness)
        self.findings: list[Finding] = list(self.cfg.findings)
        self.reasons: list[str] = []
        self.blocks_checked = 0
        self.paths_checked = 0
        self.stops = frozenset(witness.block_addrs.values())
        #: blocks that emitted no bytes (their moves all coalesced, their
        #: jump a fall-through): each shares its address with the block
        #: laid out after it, so its one machine path is that fall, taken
        #: before any instruction — not a run through the next block
        laid = [(witness.block_addrs[b.name], b.name)
                for b in witness.func.blocks if b.name in witness.block_addrs]
        self.empty = frozenset(name for (addr, name), (nxt, _n)
                               in zip(laid, laid[1:]) if addr == nxt)
        #: absolute address -> candidate callee names
        self.addr_names: dict[int, tuple[str, ...]] = {}
        for nm, addr in sorted(witness.call_targets.items()):
            self.addr_names[addr] = self.addr_names.get(addr, ()) + (nm,)
        #: callee name -> (int-arity, float-arity), from IR call sites
        self.arities: dict[str, tuple[int, int]] = {}
        self._bad_arity: set[str] = set()
        for ins in witness.func.instructions():
            if isinstance(ins, I.Call) and not ins.intrinsic:
                ni = sum(1 for a in ins.operands if _cls_of(a.type) == "i")
                nf = sum(1 for a in ins.operands if _cls_of(a.type) == "f")
                prev = self.arities.setdefault(ins.callee_name, (ni, nf))
                if prev != (ni, nf):
                    self._bad_arity.add(ins.callee_name)
        self.alloca_ranges = self._alloca_ranges()
        self.x86 = X86Executor(self)
        self.irx = IRExecutor(witness, self.arities)
        self.liveness = Liveness(witness.func, witness.value_locs)

    def _alloca_ranges(self) -> tuple[tuple[int, int], ...]:
        sizes = dict(self.wit.frame_slots)
        out = []
        for off in set(self.wit.alloca_offsets.values()):
            size = sizes.get(off, 8)
            out.append((off - 8, off - 8 + size))
        return tuple(sorted(out))

    # -- findings -------------------------------------------------------------

    def error(self, checker: str, message: str, block: str = "") -> None:
        self.findings.append(Finding(checker=checker, function=self.wit.name,
                                     message=message, severity=ERROR,
                                     block=block))
        raise _Refuted()

    def soft_error(self, checker: str, message: str, block: str = "") -> None:
        self.findings.append(Finding(checker=checker, function=self.wit.name,
                                     message=message, severity=ERROR,
                                     block=block))

    def warn(self, checker: str, message: str) -> None:
        self.findings.append(Finding(checker=checker, function=self.wit.name,
                                     message=message, severity=WARNING))

    # -- driver ---------------------------------------------------------------

    def verify(self) -> VerifyResult:
        t0 = time.perf_counter()
        self._static_checks()
        self._run_guarded("<entry>", self._verify_entry)
        for blk in self.wit.func.blocks[:]:
            if blk.name not in self.wit.block_addrs:
                continue  # transparent at the TAC level; covered via edges
            if isinstance(blk.terminator, I.Unreachable):
                continue  # trap body; edges into it are still checked
            self._run_guarded(blk.name, lambda b=blk: self._verify_block(b))
        errors = [f for f in self.findings if f.is_error]
        if errors:
            verdict = REFUTED
        elif self.reasons:
            verdict = INCONCLUSIVE
        else:
            verdict = PROVED
        return VerifyResult(verdict=verdict, findings=self.findings,
                            reasons=self.reasons,
                            blocks_checked=self.blocks_checked,
                            paths_checked=self.paths_checked,
                            seconds=time.perf_counter() - t0)

    def _run_guarded(self, label: str, fn) -> None:
        try:
            fn()
            self.blocks_checked += 1
        except _Refuted:
            pass
        except Inconclusive as exc:
            self.reasons.append(f"{label}: {exc.reason}")

    def _static_checks(self) -> None:
        slots = self.wit.frame_slots
        for i in range(len(slots)):
            o1, s1 = slots[i]
            for j in range(i + 1, len(slots)):
                o2, s2 = slots[j]
                if o1 < o2 + s2 and o2 < o1 + s1:
                    self.soft_error(
                        "machine.stack.frame-overlap",
                        f"frame slots [{o1},{o1 + s1}) and [{o2},{o2 + s2}) "
                        f"overlap")
        for ins in self.wit.func.instructions():
            if isinstance(ins, I.BinOp) and ins.opcode in ("udiv", "urem"):
                self.warn(
                    "machine.lowering.udiv-as-idiv",
                    f"{ins.opcode} lowered through signed idiv; correct only "
                    f"when both operands fit in 63 bits")

    # -- per-block verification ----------------------------------------------

    def _verify_entry(self) -> None:
        func = self.wit.func
        entry = func.blocks[0]
        st = self.x86.seed_entry()
        env: dict[int, object] = {}
        iarg = farg = 0
        for arg in func.args:
            cls = _cls_of(arg.type)
            if cls == "i":
                env[id(arg)] = ("sym", ("iarg", iarg))
                iarg += 1
            elif cls == "f":
                env[id(arg)] = ("sym", ("farg", farg))
                farg += 1
        mem = MemState(self.alloca_ranges)
        ir_exits: list[IRExit] = []
        p = IRPath(entry, 0, env, mem)
        # the prologue run ends at the entry block's label; model it as the
        # virtual edge <entry-of-function> -> first block
        self.irx._edge(p, None, entry, ir_exits)
        mach_exits = self.x86.run(st)
        self._check_exits("<entry>", mach_exits, ir_exits)

    def _verify_block(self, blk) -> None:
        wit = self.wit
        st = self.x86.seed_block(wit.block_addrs[blk.name])
        env: dict[int, object] = {}
        for v in self.liveness.check_set(blk):
            loc = wit.value_locs.get(id(v))
            if loc is None:
                raise Inconclusive(f"live-in {v.short()} has no location")
            env[id(v)] = self.x86.seed_value(loc, wit.value_cls[id(v)])
        ir_exits = self.irx.run_block(blk, env, MemState(self.alloca_ranges))
        mach_exits = [MachExit("edge", frozenset(), st, pc=st.pc)] \
            if blk.name in self.empty else self.x86.run(st)
        self._check_exits(blk.name, mach_exits, ir_exits)

    # -- edge and return checks ----------------------------------------------

    @staticmethod
    def _exit_key(constraints: frozenset) -> frozenset | None:
        """Pairing key; None when the path is statically infeasible."""
        live = set()
        for c in constraints:
            if isinstance(c, int):
                if c == 0:
                    return None
                continue
            live.add(c)
        return frozenset(live)

    def _check_exits(self, block: str, mach_exits: list[MachExit],
                     ir_exits: list[IRExit]) -> None:
        mkeys: dict[frozenset, MachExit] = {}
        for me in mach_exits:
            key = self._exit_key(me.constraints)
            if key is None:
                continue
            if key in mkeys:
                raise Inconclusive("duplicate machine path constraints")
            mkeys[key] = me
        ikeys: dict[frozenset, IRExit] = {}
        for ie in ir_exits:
            key = self._exit_key(ie.constraints)
            if key is None:
                continue
            if key in ikeys:
                raise Inconclusive("duplicate IR path constraints")
            ikeys[key] = ie
        if set(mkeys) != set(ikeys):
            raise Inconclusive(
                f"path constraints do not pair: machine has "
                f"{len(mkeys)} feasible paths, IR has {len(ikeys)}")
        for key, me in mkeys.items():
            ie = ikeys[key]
            self.paths_checked += 1
            if me.kind != ie.kind:
                self.error("machine.block.exit",
                           f"machine path exits via {me.kind}, "
                           f"IR via {ie.kind}", block=block)
            if me.kind == "edge":
                self._check_edge(block, me, ie)
            elif me.kind == "ret":
                self._check_ret(block, me, ie)
            # 'trap' pairs need no state check: the IR declared the path
            # unreachable and the machine provably self-loops

    def _check_edge(self, block: str, me: MachExit, ie: IRExit) -> None:
        wit = self.wit
        landing = ie.landing
        want = wit.block_addrs.get(landing.name)
        if want is None:
            raise Inconclusive(f"landing block {landing.name} has no address")
        if me.pc != want:
            self.error("machine.block.target",
                       f"edge to {landing.name} lands at {me.pc:#x}, "
                       f"expected {want:#x}", block=block)
        st = me.state
        for v in self.liveness.check_set(landing):
            loc = wit.value_locs.get(id(v))
            if loc is None:
                raise Inconclusive(
                    f"live-in {v.short()} of {landing.name} has no location")
            cls = wit.value_cls[id(v)]
            if id(v) in ie.phi_terms:
                ir_term = ie.phi_terms[id(v)]
            elif id(v) in ie.env:
                ir_term = ie.env[id(v)]
            else:
                raise Inconclusive(
                    f"no IR term for live value {v.short()} at the edge "
                    f"to {landing.name}")
            got = self.x86.read_loc(st, loc, cls)
            if got != ir_term:
                self.error(
                    "machine.block.value",
                    f"{v.short()} at {loc!r} entering {landing.name}: "
                    f"machine holds {got!r}, IR computes {ir_term!r}",
                    block=block)
        self._check_common(block, st, ie)
        rsp_off = T.stack_offset(st.regs[R.RSP])
        if rsp_off != -self.x86.frame_total:
            self.error("machine.stack.unbalanced",
                       f"rsp offset {rsp_off!r} at a block edge, expected "
                       f"-{self.x86.frame_total}", block=block)
        if st.regs[R.RBP] != T.stack_addr(-8):
            self.error("machine.stack.unbalanced",
                       "rbp does not hold the frame base at a block edge",
                       block=block)

    def _check_ret(self, block: str, me: MachExit, ie: IRExit) -> None:
        st = me.state
        rsp_off = T.stack_offset(st.regs[R.RSP])
        if rsp_off != 8:
            self.error("machine.stack.unbalanced",
                       f"rsp offset {rsp_off!r} after ret, expected +8",
                       block=block)
        if me.retaddr not in (("sym", "retaddr"), ("sload", 0, 0, 8)):
            self.error("machine.ret.address",
                       f"returns to {me.retaddr!r}, not the caller's "
                       f"return address", block=block)
        saves = self.wit.used_callee_saved
        expected: list[tuple[int, int]] = [(R.RBP, -8)]
        expected += [(reg, -16 - 8 * i) for i, reg in enumerate(saves)]
        for reg, off in expected:
            got = st.regs[reg]
            ok = got == ("sym", f"reg:{R.gp_name(reg, 8)}") \
                or got == ("sload", 0, off, 8)
            if not ok:
                self.error(
                    "machine.ret.callee-saved",
                    f"callee-saved {R.gp_name(reg, 8)} not restored: "
                    f"holds {got!r}", block=block)
        for reg in _CALLEE_SAVED:
            if reg in (R.RBP,) or reg in saves or reg == R.RSP:
                continue
            got = st.regs[reg]
            untouched = got == ("sym", f"reg:{R.gp_name(reg, 8)}") \
                or got == ("sym", ("loc", reg))
            if not untouched:
                self.error(
                    "machine.ret.callee-saved",
                    f"callee-saved {R.gp_name(reg, 8)} clobbered without "
                    f"being saved: holds {got!r}", block=block)
        if ie.ret_term is not None:
            got = st.xmm[0][0] if ie.ret_cls == "f" else st.regs[R.RAX]
            if got != ie.ret_term:
                self.error(
                    "machine.ret.value",
                    f"return value mismatch: machine returns {got!r}, "
                    f"IR computes {ie.ret_term!r}", block=block)
        self._check_common(block, st, ie)

    def _check_common(self, block: str, st: MachState, ie: IRExit) -> None:
        msg = match_effects(st.mem.effects, ie.mem.effects)
        if msg is not None:
            self.error("machine.mem.effects", msg, block=block)
        if st.mem.alloca_entries() != ie.mem.alloca_entries():
            self.error(
                "machine.mem.stack",
                f"stack objects diverge: machine {st.mem.alloca_entries()!r} "
                f"vs IR {ie.mem.alloca_entries()!r}", block=block)


def verify_witness(witness: CodeWitness) -> VerifyResult:
    """Verify one compiled function against its IR; never raises."""
    from repro.obs.trace import TRACER as _TR
    if not _TR.enabled:
        return _verify(witness)
    with _TR.span("machine.verify", {"func": witness.name}):
        return _verify(witness)


def _verify(witness: CodeWitness) -> VerifyResult:
    t0 = time.perf_counter()
    try:
        return MachineVerifier(witness).verify()
    except Inconclusive as exc:
        return VerifyResult(verdict=INCONCLUSIVE, reasons=[exc.reason],
                            seconds=time.perf_counter() - t0)
    except RecursionError:
        return VerifyResult(verdict=INCONCLUSIVE,
                            reasons=["recursion limit during verification"],
                            seconds=time.perf_counter() - t0)
