"""Function-level x86-64 -> IR lifting driver (Sec. III).

Processing model: every guest basic block gets an IR block.  On entry each
of its 54 register slots — 16 GPR i64 canonicals, 16 SSE i128 canonicals
plus their cached f64 facets, and the six status flags — is a placeholder
value, and after every block has been lifted a placeholder becomes a phi
only where something reads it, directly or by being handed on to a
successor whose slot is read (the *demand closure*).  The paper builds all
54 phis per block and bets that "these unused nodes will be removed by the
optimizer" (Sec. III-C); here they, the flags nobody reads (``lift.flags``)
and the exit facets nobody reads are never built, and one closing
mark-and-sweep removes what lazy emission still leaves.  The post-condition
of :func:`lift_function` is *no dead IR*: its output is the live closure of
the paper's, instruction for instruction, so ``dce.run`` on it returns
False and the optimizer walks the trajectory it walked from its first
``dce`` on.

Loops need no fixpoint: a block is lifted once, from placeholders, and the
closure runs over finished blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LiftError
from repro.ir import instructions as IRI
from repro.ir.builder import IRBuilder
from repro.ir.irtypes import (
    DOUBLE, FunctionType, I1, I8, I16, I32, I64, I128, PointerType, Type,
    V2F64, VOID, ptr,
)
from repro.ir.module import BasicBlock, Function, Module
# bound here, not called through the module: the closing sweep is not an -O3
# pass application, and ``testing.faults`` patches ``repro.ir.passes.dce.run``
from repro.ir.passes.dce import run as _sweep
from repro.ir.values import Constant, ConstantFP, ConstantVector, Undef, Value
from repro.lift.blocks import GuestBlock, GuestCFG, discover
from repro.lift.flags import FlagModel
from repro.lift.regfile import (
    F_F64, F_PTR, F_V2F64, I8P, RegFile, RegState, scratch_builder, splice,
)
from repro.mem.memory import Memory
from repro.x86 import isa
from repro.x86.effects import effects_of
from repro.x86.instr import Imm, Instruction, Mem, Operand, Reg
from repro.x86.registers import RAX, RBP, RDX, RSP, SYSV_INT_ARGS

_INT_TYPE = {1: I8, 2: I16, 4: I32, 8: I64, 16: I128}


@dataclass(frozen=True)
class FunctionSignature:
    """SysV-level signature: parameter classes and return class.

    Classes: ``'i'`` integer/pointer (64-bit slot), ``'f'`` double.
    This is the Sec. III-A requirement — the lifter cannot recover
    signatures from bytes, the user supplies them (DBrew has the same
    contract via its C-ABI configuration API).
    """

    params: tuple[str, ...]
    ret: str | None  # 'i', 'f', or None

    def __post_init__(self) -> None:
        # anything but 'i' would otherwise be lifted as a double
        for c in self.params:
            if c not in ("i", "f"):
                raise LiftError(f"unknown parameter class {c!r} "
                                f"(expected 'i' or 'f')", stage="lift")
        if self.ret not in ("i", "f", None):
            raise LiftError(f"unknown return class {self.ret!r} "
                            f"(expected 'i', 'f' or None)", stage="lift")


@dataclass
class LiftOptions:
    """Lifter configuration (the paper's ablation knobs)."""

    flag_cache: bool = True
    facet_cache: bool = True
    stack_size: int = 4096
    name: str = ""
    #: guest address -> (name, signature) for direct call targets
    known_functions: dict[int, tuple[str, FunctionSignature]] = field(
        default_factory=dict
    )
    #: resource budget charged during discovery/lifting (None = unlimited);
    #: excluded from cache keys — a budget changes *whether* a lift
    #: finishes, never what it produces
    budget: "object | None" = None


class _EntrySlot(Value):
    """The value of one register, facet or flag slot on entry to a guest
    block: a placeholder until the demand closure has decided whether the
    slot becomes a phi."""

    __slots__ = ("addr", "kind", "key")

    def __init__(self, kind: str, key: "int | str", type_: Type,
                 addr: int) -> None:
        super().__init__(type_)
        self.addr = addr  # the guest block
        self.kind = kind  # "r", "x", "xf" or "fl": with key, the phi's name
        self.key = key  # register index or flag letter


#: the entry slots of a block, in phi order
_SLOTS = (*(("r", i, I64) for i in range(16)),
          *(("x", i, I128) for i in range(16)),
          *(("xf", i, DOUBLE) for i in range(16)),
          *(("fl", f, I1) for f in "oszapc"))


#: a predecessor of a guest block: its IR block, its exit state and its own
#: entry slots (None for the prologue, which has none)
_Pred = tuple[BasicBlock, RegState, "list[_EntrySlot] | None"]


class Lifter:
    def __init__(self, memory: Memory, entry: int, signature: FunctionSignature,
                 options: LiftOptions | None = None,
                 module: Module | None = None) -> None:
        self.memory = memory
        self.entry = entry
        self.signature = signature
        self.options = options or LiftOptions()
        self.module = module or Module("lifted")
        self.func: Function | None = None
        self.b = IRBuilder()
        self.regs: RegFile | None = None
        self.flags: FlagModel | None = None
        self._callee_decls: dict[int, Function] = {}

    # -- driver ------------------------------------------------------------------

    def lift(self) -> Function:
        cfg = discover(self.memory, self.entry, budget=self.options.budget)  # type: ignore[arg-type]
        sig = self.signature
        param_types = tuple(I64 if c == "i" else DOUBLE for c in sig.params)
        ret_type: Type = VOID if sig.ret is None else (I64 if sig.ret == "i" else DOUBLE)
        name = self.options.name or f"lifted_{self.entry:x}"
        existing = self.module.functions.get(name)
        if existing is not None:
            # fill in a declaration created earlier (e.g. as a call target):
            # existing call sites keep referring to the same Function object
            if not existing.is_declaration:
                raise LiftError(f"function @{name} already lifted")
            if existing.ftype.params != param_types or existing.ftype.ret is not ret_type:
                raise LiftError(f"signature mismatch for declared @{name}")
            existing.is_declaration = False
            func = existing
        else:
            func = Function(name, FunctionType(ret_type, param_types))
            self.module.add_function(func)
        self.func = func

        self._declare_callees()

        ir_blocks: dict[int, BasicBlock] = {}
        for gb in cfg.ordered():
            ir_blocks[gb.start] = func.add_block(f"g{gb.start:x}")
        entry_ir = BasicBlock("entry")
        entry_ir.function = func
        func.blocks.insert(0, entry_ir)

        # prologue: virtual stack + argument registers
        self.b.position_at_end(entry_ir)
        init = RegState.fresh()
        self.regs = RegFile(init, self.b, self.options.facet_cache)
        self.flags = FlagModel(self.regs, self.b, self.options.flag_cache)
        stack = self.b.alloca(I8, self.options.stack_size, align=16, name="vstack")
        sp0 = self.b.gep_i(stack, self.options.stack_size - 128, "sp0")
        sp_int = self.b.ptrtoint(sp0, I64, "sp0i")
        self.regs.write_gpr_both(RSP, sp_int, sp0)
        int_idx = 0
        f_idx = 0
        for i, cls in enumerate(sig.params):
            arg = func.args[i]
            arg.name = f"a{i}"
            if cls == "i":
                self.regs.write_gpr(SYSV_INT_ARGS[int_idx], arg, 8)
                int_idx += 1
            else:
                self.regs.write_xmm_f64_zero_rest(f_idx, arg)
                f_idx += 1
        entry_state = init
        self.b.br(ir_blocks[cfg.entry])

        # lift each block from placeholders for its entry state
        slots: dict[int, list[_EntrySlot]] = {}
        #: per guest block: (IR block, exit state, own entry slots) of each
        #: predecessor in phi-incoming order; the prologue comes first
        preds: dict[int, list[_Pred]] = {gb.start: [] for gb in cfg.ordered()}
        preds[cfg.entry].append((entry_ir, entry_state, None))
        for gb in cfg.ordered():
            irb = ir_blocks[gb.start]
            slots[gb.start] = own = [_EntrySlot(*slot, gb.start)
                                     for slot in _SLOTS]
            self.b.position_at_end(irb)
            state = self._entry_state(own)
            self.regs = RegFile(state, self.b, self.options.facet_cache)
            self.flags = FlagModel(self.regs, self.b, self.options.flag_cache)
            for succ in self._lift_block(gb, ir_blocks):
                preds[succ].append((irb, state, own))

        self._connect(ir_blocks, slots, preds)
        # what lazy emission still leaves: facet merges nobody reads,
        # cmp's sub, dead loads.  The optimizer is path-dependent on
        # dead code, so the lifter hands it none
        _sweep(func)
        return func

    def _declare_callees(self) -> None:
        for addr, (name, csig) in self.options.known_functions.items():
            existing = self.module.functions.get(name)
            if existing is not None:
                self._callee_decls[addr] = existing
                continue
            params = tuple(I64 if c == "i" else DOUBLE for c in csig.params)
            ret: Type = VOID if csig.ret is None else (I64 if csig.ret == "i" else DOUBLE)
            decl = Function(name, FunctionType(ret, params))
            decl.is_declaration = True
            self.module.add_function(decl)
            self._callee_decls[addr] = decl

    def _entry_state(self, slots: list[_EntrySlot]) -> RegState:
        cached = self.options.facet_cache
        return RegState(
            gpr=slots[0:16],
            xmm=slots[16:32],
            flags=dict(zip("oszapc", slots[48:])),
            gpr_facets=[{} for _ in range(16)],
            xmm_facets=[{F_F64: s} if cached else {} for s in slots[32:48]],
        )

    # -- demand closure ---------------------------------------------------------------

    def _connect(self, ir_blocks: dict[int, BasicBlock],
                 slots: dict[int, list[_EntrySlot]],
                 preds: dict[int, list[_Pred]]) -> None:
        """Turn the entry slots something reads into phis.

        A slot is *demanded* if an instruction uses its placeholder, or if
        it is what a predecessor hands on into a demanded slot of a
        successor.  Asking a predecessor for a value may emit there (a flag
        forced at its writer, an f64 facet materialised before the
        terminator), which can read more of that block's entry slots.
        """
        func = self.func
        assert func is not None
        phis: dict[_EntrySlot, IRI.Phi] = {}
        work: list[_EntrySlot] = []

        def demand(slot: _EntrySlot) -> None:
            if slot not in phis:
                phi = phis[slot] = IRI.Phi(
                    slot.type, func.next_name(f"{slot.kind}{slot.key}"))
                phi.block = ir_blocks[slot.addr]
                work.append(slot)

        for own in slots.values():
            for slot in own:
                if slot.uses:
                    demand(slot)
        tails: dict[BasicBlock, dict[int, int]] = {}
        while work:
            slot = work.pop()
            phi = phis[slot]
            for block, state, own in preds[slot.addr]:
                n = len(block.instructions)
                v = self._exit_value(slot, block, state,
                                     tails.setdefault(block, {}))
                phi.operands.append(v)
                phi.incoming_blocks.append(block)
                through = self._passed_through(v)
                if through is not None:
                    demand(through)
                if own is not None and len(block.instructions) != n:
                    for read in own:
                        if read.uses:
                            demand(read)

        # phis in slot order, ahead of anything forced at the block's start
        for addr, own in slots.items():
            ir_blocks[addr].instructions[0:0] = [
                phis[slot] for slot in own if slot in phis]
        for slot, phi in phis.items():
            func.replace_all_uses(slot, phi)
        # the splices and the phis went in past BasicBlock's mutators
        func.bump_version()

    @staticmethod
    def _passed_through(value: Value) -> _EntrySlot | None:
        """The predecessor's own entry slot, when that is what it hands on
        (whatever slot it was read from: a 64-bit ``mov`` makes one
        register's exit value another register's entry placeholder)."""
        return value if isinstance(value, _EntrySlot) else None

    def _exit_value(self, slot: _EntrySlot, block: BasicBlock,
                    state: RegState, tail: dict[int, int]) -> Value:
        """What ``slot`` receives from the predecessor ``block``, whose
        exit state is ``state``.  ``tail`` counts the instructions already
        materialised before the block's terminator, per xmm register."""
        kind, key = slot.kind, slot.key
        if kind == "r":
            return state.gpr[key]  # type: ignore[index]
        if kind == "x":
            return state.xmm[key]  # type: ignore[index]
        b = scratch_builder(block)
        regs = RegFile(state, b, self.options.facet_cache)
        if kind == "fl":
            return regs.read_flag(key)  # type: ignore[arg-type]
        # the f64 facet: cached, or built before the terminator behind the
        # facets of lower registers (Fig. 4b), as one eager sweep over
        # xmm0..15 would have ordered them
        assert isinstance(key, int)
        v = regs.read_xmm_f64(key)
        at = len(block.instructions) - 1 \
            - sum(n for reg, n in tail.items() if reg > key)
        new = splice(block, at, b)
        if new:
            tail[key] = len(new)
        return v

    # -- block lifting ------------------------------------------------------------

    def _lift_block(self, gb: GuestBlock,
                    ir_blocks: dict[int, BasicBlock]) -> tuple[int, ...]:
        """Lift one guest block; returns its successors' guest addresses,
        one per CFG edge."""
        assert self.func is not None
        term = gb.terminator
        for ins in gb.instructions[:-1]:
            self._lift_instruction(ins)

        fx = effects_of(term)
        cls, target = fx.control, fx.target  # discovery rejected indirect ones
        if cls == "ret":
            self._lift_ret()
            return ()
        if cls == "jmp":
            self.b.br(ir_blocks[target])
            return (target,)
        if cls == "jcc":
            assert fx.cc is not None and self.flags is not None
            cond = self.flags.condition(fx.cc)
            taken = ir_blocks[target]
            fallthrough = ir_blocks[gb.end]
            if taken is fallthrough:
                # degenerate Jcc whose target is its own fall-through: one
                # CFG edge, or the successor's phis would list this block
                # twice (phi incoming lists mirror edges, not branches)
                self.b.br(taken)
                return (gb.end,)
            self.b.cond_br(cond, taken, fallthrough)
            return (target, gb.end)
        # fall-through (block was split) or trailing call
        self._lift_instruction(term)
        self.b.br(ir_blocks[gb.end])
        return (gb.end,)

    def _lift_ret(self) -> None:
        assert self.regs is not None
        sig = self.signature
        if sig.ret is None:
            self.b.ret()
        elif sig.ret == "i":
            self.b.ret(self.regs.read_gpr(RAX, 8))
        else:
            self.b.ret(self.regs.read_xmm_f64(0))

    # -- memory operands ----------------------------------------------------------

    def mem_pointer(self, mem: Mem, elem: Type) -> Value:
        """Lower an x86 memory operand to a typed pointer (Sec. III-E)."""
        assert self.regs is not None
        addrspace = {"": 0, "gs": 256, "fs": 257}[mem.seg]
        if mem.riprel or mem.is_absolute:
            p = self.b.inttoptr(Constant(I64, mem.disp), ptr(I8, addrspace))
            return self._typed(p, elem, addrspace)
        offset: Value | None = None
        if mem.index is not None:
            idx = self.regs.read_gpr(mem.index.index, 8)
            if mem.scale != 1:
                idx = self.b.mul(idx, Constant(I64, mem.scale))
            offset = idx
        if mem.disp:
            d = Constant(I64, mem.disp)
            offset = d if offset is None else self.b.add(offset, d)
        if mem.base is not None:
            base = self.regs.read_gpr_ptr(mem.base.index)
            if addrspace:
                base = self.b.cast("bitcast", base, ptr(I8, addrspace))
            if offset is not None:
                base = self.b.gep(base, offset)
            return self._typed(base, elem, addrspace)
        # no base register: pure integer address
        assert offset is not None
        p = self.b.inttoptr(offset, ptr(I8, addrspace))
        return self._typed(p, elem, addrspace)

    def _typed(self, p: Value, elem: Type, addrspace: int = 0) -> Value:
        want = ptr(elem, addrspace)
        if p.type is want:
            return p
        return self.b.bitcast(p, want)

    # -- operand access -------------------------------------------------------------

    def read_int(self, op: Operand, size: int) -> Value:
        assert self.regs is not None
        if isinstance(op, Reg):
            if op.kind == "xmm":
                raise LiftError("integer read of xmm operand")
            return self.regs.read_gpr(op.index, size, op.high8)
        if isinstance(op, Imm):
            return Constant(_INT_TYPE[size], op.value)
        assert isinstance(op, Mem)
        p = self.mem_pointer(op, _INT_TYPE[size])
        return self.b.load(p)

    def write_int(self, op: Operand, value: Value, size: int) -> None:
        assert self.regs is not None
        if isinstance(op, Reg):
            self.regs.write_gpr(op.index, value, size, op.high8)
            return
        assert isinstance(op, Mem)
        p = self.mem_pointer(op, _INT_TYPE[size])
        self.b.store(value, p)

    def read_f64(self, op: Operand) -> Value:
        assert self.regs is not None
        if isinstance(op, Reg):
            assert op.kind == "xmm"
            return self.regs.read_xmm_f64(op.index)
        assert isinstance(op, Mem)
        return self.b.load(self.mem_pointer(op, DOUBLE))

    def read_v2f64(self, op: Operand, *, aligned: bool) -> Value:
        assert self.regs is not None
        if isinstance(op, Reg):
            assert op.kind == "xmm"
            return self.regs.read_xmm_vector(op.index, F_V2F64)
        assert isinstance(op, Mem)
        # movapd is a 16-byte alignment *guarantee*; movupd on f64 data is
        # at least element-aligned in compiler output (align 8)
        return self.b.load(self.mem_pointer(op, V2F64), align=16 if aligned else 8)

    def read_i128(self, op: Operand) -> Value:
        assert self.regs is not None
        if isinstance(op, Reg):
            assert op.kind == "xmm"
            return self.regs.read_xmm_i128(op.index)
        assert isinstance(op, Mem)
        return self.b.load(self.mem_pointer(op, I128))

    # -- instruction dispatch ----------------------------------------------------------

    #: (class, mnemonic) -> (kind, payload) handler-resolution memo.  The
    #: getattr probe plus the cmov/setcc/SSE-table fallback chain runs per
    #: *lifted instruction*; a process sees a few dozen distinct mnemonics,
    #: so resolution is memoized once per mnemonic and dispatch becomes one
    #: dict hit (keyed by class so a subclass overriding a handler never
    #: shares the base class's resolution).
    _DISPATCH_MEMO: dict[tuple[type, str], tuple[str, object]] = {}

    def _resolve_dispatch(self, mnemonic: str) -> tuple[str, object]:
        handler = getattr(type(self), f"_i_{mnemonic}", None)
        if handler is not None:
            return "handler", handler
        cc = isa.cc_of(mnemonic)
        if cc is not None:
            if mnemonic.startswith("cmov"):
                return "cmov", cc
            if mnemonic.startswith("set"):
                return "setcc", cc
        if mnemonic in _SSE_SCALAR_BIN:
            return "sse_scalar", _SSE_SCALAR_BIN[mnemonic]
        if mnemonic in _SSE_PACKED_BIN:
            return "sse_packed", _SSE_PACKED_BIN[mnemonic]
        if mnemonic in _SSE_BITWISE:
            return "sse_bitwise", _SSE_BITWISE[mnemonic]
        return "unsupported", None

    def _lift_instruction(self, ins: Instruction) -> None:
        memo_key = (type(self), ins.mnemonic)
        entry = Lifter._DISPATCH_MEMO.get(memo_key)
        if entry is None:
            entry = self._resolve_dispatch(ins.mnemonic)
            Lifter._DISPATCH_MEMO[memo_key] = entry
        kind, payload = entry
        if kind == "handler":
            payload(self, ins)  # type: ignore[operator]
            return
        if kind == "cmov":
            self._cmov(ins, payload)
            return
        if kind == "setcc":
            self._setcc(ins, payload)
            return
        if kind == "sse_scalar":
            self._sse_scalar_bin(ins, payload)
            return
        if kind == "sse_packed":
            self._sse_packed_bin(ins, payload)
            return
        if kind == "sse_bitwise":
            self._sse_bitwise(ins, payload)
            return
        raise LiftError(f"no lifting rule for {ins!r} at {ins.addr:#x}",
                        stage="lift", addr=ins.addr, instruction=ins.mnemonic,
                        data=ins.raw)

    @staticmethod
    def _opsize(ins: Instruction) -> int:
        for op in ins.operands:
            if isinstance(op, Reg) and op.kind == "gp":
                return op.size
        for op in ins.operands:
            if isinstance(op, Mem):
                return op.size
        return 8

    # --- data movement ---

    def _i_nop(self, ins: Instruction) -> None:
        pass

    def _i_mov(self, ins: Instruction) -> None:
        dst, src = ins.operands
        size = self._opsize(ins)
        assert self.regs is not None
        if isinstance(dst, Reg) and isinstance(src, Reg) and size == 8:
            # full-width reg copy: propagate the pointer facet too
            val = self.regs.read_gpr(src.index, 8)
            pfacet = self.regs.state.gpr_facets[src.index].get(F_PTR) \
                if self.options.facet_cache else None
            self.regs.write_gpr(dst.index, val, 8, ptr_facet=pfacet)
            return
        val = self.read_int(src, size)
        self.write_int(dst, val, size)

    def _i_movzx(self, ins: Instruction) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg)
        ssize = src.size if isinstance(src, (Reg, Mem)) else 1
        val = self.read_int(src, ssize)
        self.write_int(dst, self.b.zext(val, _INT_TYPE[dst.size]), dst.size)

    def _i_movsx(self, ins: Instruction) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg)
        ssize = src.size if isinstance(src, (Reg, Mem)) else 1
        val = self.read_int(src, ssize)
        self.write_int(dst, self.b.sext(val, _INT_TYPE[dst.size]), dst.size)

    def _i_movsxd(self, ins: Instruction) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg)
        val = self.read_int(src, 4)
        self.write_int(dst, self.b.sext(val, I64), 8)

    def _i_lea(self, ins: Instruction) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg) and isinstance(src, Mem)
        assert self.regs is not None
        # integer facet: plain arithmetic; pointer facet: GEP form (both set,
        # per Sec. III-C "allowing for more optimizations")
        if src.base is not None and dst.size == 8:
            p = self.mem_pointer(src, I8)
            int_val = self.b.ptrtoint(p, I64)
            self.regs.write_gpr_both(dst.index, int_val, p)
            return
        # no base: integer-only address
        val: Value = Constant(I64, src.disp)
        if src.index is not None:
            idx = self.regs.read_gpr(src.index.index, 8)
            if src.scale != 1:
                idx = self.b.mul(idx, Constant(I64, src.scale))
            val = self.b.add(idx, Constant(I64, src.disp)) if src.disp else idx
        if dst.size == 8:
            self.regs.write_gpr(dst.index, val, 8)
        else:
            self.regs.write_gpr(dst.index, self.b.trunc(val, _INT_TYPE[dst.size]), dst.size)

    def _i_push(self, ins: Instruction) -> None:
        (src,) = ins.operands
        assert self.regs is not None
        val = self.read_int(src, 8)
        sp = self._adjust_rsp(-8)
        self.b.store(val, self._typed(sp, I64))

    def _i_pop(self, ins: Instruction) -> None:
        (dst,) = ins.operands
        assert self.regs is not None
        sp = self.regs.read_gpr_ptr(RSP)
        val = self.b.load(self._typed(sp, I64))
        self._adjust_rsp(8)
        self.write_int(dst, val, 8)

    def _adjust_rsp(self, delta: int) -> Value:
        """Move rsp by delta via GEP (Sec. III-F); returns the new pointer."""
        assert self.regs is not None
        sp = self.regs.read_gpr_ptr(RSP)
        new_sp = self.b.gep_i(sp, delta)
        new_int = self.b.ptrtoint(new_sp, I64)
        self.regs.write_gpr_both(RSP, new_int, new_sp)
        return new_sp

    def _i_leave(self, ins: Instruction) -> None:
        assert self.regs is not None
        # rsp = rbp; pop rbp
        rbp_int = self.regs.read_gpr(RBP, 8)
        rbp_ptr = self.regs.read_gpr_ptr(RBP)
        self.regs.write_gpr_both(RSP, rbp_int, rbp_ptr)
        val = self.b.load(self._typed(rbp_ptr, I64))
        self._adjust_rsp(8)
        self.regs.write_gpr(RBP, val, 8)

    # --- integer ALU ---

    def _i_add(self, ins: Instruction) -> None:
        dst, src = ins.operands
        size = self._opsize(ins)
        a = self.read_int(dst, size)
        bv = self.read_int(src, size)
        r = self.b.add(a, bv)
        assert self.flags is not None
        self.flags.set_after_add(a, bv, r)
        # add on 64-bit registers may be pointer arithmetic: set both facets
        if isinstance(dst, Reg) and size == 8 and isinstance(src, Imm) \
                and self._has_ptr_facet(dst):
            assert self.regs is not None
            base = self.regs.read_gpr_ptr(dst.index)
            p = self.b.gep_i(base, src.value)
            self.regs.write_gpr_both(dst.index, r, p)
            return
        self.write_int(dst, r, size)

    def _has_ptr_facet(self, reg: Reg) -> bool:
        assert self.regs is not None
        return self.options.facet_cache and \
            F_PTR in self.regs.state.gpr_facets[reg.index]

    def _i_sub(self, ins: Instruction) -> None:
        dst, src = ins.operands
        size = self._opsize(ins)
        a = self.read_int(dst, size)
        bv = self.read_int(src, size)
        r = self.b.sub(a, bv)
        assert self.flags is not None
        self.flags.set_after_sub(a, bv, r)
        if isinstance(dst, Reg) and size == 8 and isinstance(src, Imm) \
                and self._has_ptr_facet(dst):
            assert self.regs is not None
            base = self.regs.read_gpr_ptr(dst.index)
            p = self.b.gep_i(base, -src.value)
            self.regs.write_gpr_both(dst.index, r, p)
            return
        self.write_int(dst, r, size)

    def _i_cmp(self, ins: Instruction) -> None:
        a_op, b_op = ins.operands
        size = self._opsize(ins)
        a = self.read_int(a_op, size)
        bv = self.read_int(b_op, size)
        r = self.b.sub(a, bv)
        assert self.flags is not None
        self.flags.set_after_sub(a, bv, r, is_cmp=True)

    def _i_test(self, ins: Instruction) -> None:
        a_op, b_op = ins.operands
        size = self._opsize(ins)
        a = self.read_int(a_op, size)
        bv = self.read_int(b_op, size)
        r = self.b.and_(a, bv)
        assert self.flags is not None
        self.flags.set_after_logic(r, cache_test=(a, bv) if a is bv or a_op == b_op else None)

    def _logic(self, ins: Instruction, op: str) -> None:
        dst, src = ins.operands
        size = self._opsize(ins)
        a = self.read_int(dst, size)
        bv = self.read_int(src, size)
        r = self.b.binop(op, a, bv)
        assert self.flags is not None
        self.flags.set_after_logic(r)
        self.write_int(dst, r, size)

    def _i_and(self, ins: Instruction) -> None:
        self._logic(ins, "and")

    def _i_or(self, ins: Instruction) -> None:
        self._logic(ins, "or")

    def _i_xor(self, ins: Instruction) -> None:
        dst, src = ins.operands
        if isinstance(dst, Reg) and isinstance(src, Reg) \
                and dst.index == src.index and dst.high8 == src.high8:
            # xor r, r: canonical zero idiom
            size = self._opsize(ins)
            zero = Constant(_INT_TYPE[size], 0)
            assert self.flags is not None
            self.flags.set_after_logic(zero)
            self.write_int(dst, zero, size)
            return
        self._logic(ins, "xor")

    def _i_neg(self, ins: Instruction) -> None:
        (dst,) = ins.operands
        size = self._opsize(ins)
        a = self.read_int(dst, size)
        zero = Constant(_INT_TYPE[size], 0)
        r = self.b.sub(zero, a)
        assert self.flags is not None
        self.flags.set_after_sub(zero, a, r)
        self.write_int(dst, r, size)

    def _i_not(self, ins: Instruction) -> None:
        (dst,) = ins.operands
        size = self._opsize(ins)
        a = self.read_int(dst, size)
        r = self.b.xor(a, Constant(_INT_TYPE[size], -1))
        self.write_int(dst, r, size)

    def _i_inc(self, ins: Instruction) -> None:
        (dst,) = ins.operands
        size = self._opsize(ins)
        a = self.read_int(dst, size)
        r = self.b.add(a, Constant(_INT_TYPE[size], 1))
        assert self.flags is not None
        self.flags.set_after_incdec(a, r, inc=True)
        self.write_int(dst, r, size)

    def _i_dec(self, ins: Instruction) -> None:
        (dst,) = ins.operands
        size = self._opsize(ins)
        a = self.read_int(dst, size)
        r = self.b.sub(a, Constant(_INT_TYPE[size], 1))
        assert self.flags is not None
        self.flags.set_after_incdec(a, r, inc=False)
        self.write_int(dst, r, size)

    def _i_imul(self, ins: Instruction) -> None:
        ops = ins.operands
        assert self.flags is not None
        if len(ops) == 1:
            raise LiftError("one-operand imul is not supported")
        size = self._opsize(ins)
        if len(ops) == 2:
            dst, src = ops
            a = self.read_int(dst, size)
            bv = self.read_int(src, size)
        else:
            dst, src, imm = ops
            a = self.read_int(src, size)
            assert isinstance(imm, Imm)
            bv = Constant(_INT_TYPE[size], imm.value)
        r = self.b.mul(a, bv)
        self.flags.set_after_imul()
        self.write_int(dst, r, size)

    def _shift(self, ins: Instruction, op: str) -> None:
        dst, src = ins.operands
        size = self._opsize(ins)
        a = self.read_int(dst, size)
        if isinstance(src, Imm):
            count: Value = Constant(_INT_TYPE[size], src.value & (63 if size == 8 else 31))
        else:
            cl = self.read_int(src, 1)
            count = self.b.zext(cl, _INT_TYPE[size]) if size > 1 else cl
            count = self.b.and_(count, Constant(_INT_TYPE[size], 63 if size == 8 else 31))
        r = self.b.binop(op, a, count)
        assert self.flags is not None
        self.flags.set_after_shift(r, count)
        self.write_int(dst, r, size)

    def _i_shl(self, ins: Instruction) -> None:
        self._shift(ins, "shl")

    def _i_shr(self, ins: Instruction) -> None:
        self._shift(ins, "lshr")

    def _i_sar(self, ins: Instruction) -> None:
        self._shift(ins, "ashr")

    def _i_cqo(self, ins: Instruction) -> None:
        assert self.regs is not None
        rax = self.regs.read_gpr(RAX, 8)
        self.regs.write_gpr(RDX, self.b.ashr(rax, Constant(I64, 63)), 8)

    def _i_cdq(self, ins: Instruction) -> None:
        assert self.regs is not None
        eax = self.regs.read_gpr(RAX, 4)
        self.regs.write_gpr(RDX, self.b.ashr(eax, Constant(I32, 31)), 4)

    def _i_idiv(self, ins: Instruction) -> None:
        # assumes the canonical cqo/cdq; rdx:rax is rax sign-extended
        (src,) = ins.operands
        size = self._opsize(ins)
        assert self.regs is not None and self.flags is not None
        a = self.regs.read_gpr(RAX, size)
        bv = self.read_int(src, size)
        quot = self.b.binop("sdiv", a, bv)
        rem = self.b.binop("srem", a, bv)
        self.regs.write_gpr(RAX, quot, size)
        self.regs.write_gpr(RDX, rem, size)
        self.flags.set_all_undef()

    def _cmov(self, ins: Instruction, cc: str) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg) and self.flags is not None
        size = self._opsize(ins)
        cond = self.flags.condition(cc)
        old = self.read_int(dst, size)
        new = self.read_int(src, size)
        r = self.b.select(cond, new, old)
        self.write_int(dst, r, size)

    def _setcc(self, ins: Instruction, cc: str) -> None:
        (dst,) = ins.operands
        assert self.flags is not None
        cond = self.flags.condition(cc)
        self.write_int(dst, self.b.zext(cond, I8), 1)

    # --- SSE moves ---

    def _i_movsd(self, ins: Instruction) -> None:
        dst, src = ins.operands
        assert self.regs is not None
        if isinstance(dst, Reg):
            if isinstance(src, Reg):
                # reg-reg merge: upper lane preserved
                v = self.regs.read_xmm_f64(src.index)
                self.regs.write_xmm_f64_low_preserve(dst.index, v)
            else:
                v = self.read_f64(src)
                self.regs.write_xmm_f64_zero_rest(dst.index, v)
            return
        assert isinstance(dst, Mem) and isinstance(src, Reg)
        v = self.regs.read_xmm_f64(src.index)
        self.b.store(v, self.mem_pointer(dst, DOUBLE))

    def _i_movq(self, ins: Instruction) -> None:
        dst, src = ins.operands
        assert self.regs is not None
        if isinstance(dst, Reg) and dst.kind == "xmm":
            if isinstance(src, Reg) and src.kind == "xmm":
                v = self.regs.read_xmm_i64(src.index)
            else:
                v = self.read_int(src, 8)
            self.regs.write_xmm_i64_zero_rest(dst.index, v)
            return
        assert isinstance(src, Reg) and src.kind == "xmm"
        v = self.regs.read_xmm_i64(src.index)
        self.write_int(dst, v, 8)

    def _i_movapd(self, ins: Instruction) -> None:
        self._mov_vector(ins, aligned=True)

    def _i_movaps(self, ins: Instruction) -> None:
        self._mov_vector(ins, aligned=True)

    def _i_movupd(self, ins: Instruction) -> None:
        self._mov_vector(ins, aligned=False)

    def _i_movups(self, ins: Instruction) -> None:
        self._mov_vector(ins, aligned=False)

    def _mov_vector(self, ins: Instruction, *, aligned: bool) -> None:
        dst, src = ins.operands
        assert self.regs is not None
        if isinstance(dst, Reg):
            v = self.read_v2f64(src, aligned=aligned)
            self.regs.write_xmm_vector(dst.index, F_V2F64, v)
            return
        assert isinstance(dst, Mem) and isinstance(src, Reg)
        v = self.regs.read_xmm_vector(src.index, F_V2F64)
        self.b.store(v, self.mem_pointer(dst, V2F64), align=16 if aligned else 8)

    def _i_movlpd(self, ins: Instruction) -> None:
        self._mov_lane(ins, lane=0)

    def _i_movhpd(self, ins: Instruction) -> None:
        self._mov_lane(ins, lane=1)

    def _mov_lane(self, ins: Instruction, *, lane: int) -> None:
        dst, src = ins.operands
        assert self.regs is not None
        if isinstance(dst, Reg):
            assert isinstance(src, Mem)
            v = self.b.load(self.mem_pointer(src, DOUBLE))
            vec = self.regs.read_xmm_vector(dst.index, F_V2F64)
            merged = self.b.insertelement(vec, v, lane)
            self.regs.write_xmm_vector(dst.index, F_V2F64, merged)
            return
        assert isinstance(dst, Mem) and isinstance(src, Reg)
        v = self.regs.read_xmm_f64_lane(src.index, lane)
        self.b.store(v, self.mem_pointer(dst, DOUBLE))

    def _i_unpcklpd(self, ins: Instruction) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg) and self.regs is not None
        a = self.regs.read_xmm_vector(dst.index, F_V2F64)
        bv = self.read_v2f64(src, aligned=True)
        r = self.b.shufflevector(a, bv, (0, 2))
        self.regs.write_xmm_vector(dst.index, F_V2F64, r)

    def _i_unpckhpd(self, ins: Instruction) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg) and self.regs is not None
        a = self.regs.read_xmm_vector(dst.index, F_V2F64)
        bv = self.read_v2f64(src, aligned=True)
        r = self.b.shufflevector(a, bv, (1, 3))
        self.regs.write_xmm_vector(dst.index, F_V2F64, r)

    def _i_shufpd(self, ins: Instruction) -> None:
        dst, src, sel = ins.operands
        assert isinstance(dst, Reg) and isinstance(sel, Imm)
        assert self.regs is not None
        a = self.regs.read_xmm_vector(dst.index, F_V2F64)
        bv = self.read_v2f64(src, aligned=True)
        mask = (sel.value & 1, 2 + ((sel.value >> 1) & 1))
        r = self.b.shufflevector(a, bv, mask)
        self.regs.write_xmm_vector(dst.index, F_V2F64, r)

    def _i_haddpd(self, ins: Instruction) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg) and self.regs is not None
        a = self.regs.read_xmm_vector(dst.index, F_V2F64)
        bv = self.read_v2f64(src, aligned=True)
        a0 = self.b.extractelement(a, 0)
        a1 = self.b.extractelement(a, 1)
        b0 = self.b.extractelement(bv, 0)
        b1 = self.b.extractelement(bv, 1)
        lo = self.b.fadd(a0, a1)
        hi = self.b.fadd(b0, b1)
        r = self.b.insertelement(
            self.b.insertelement(_undef_v2f64(), lo, 0), hi, 1
        )
        self.regs.write_xmm_vector(dst.index, F_V2F64, r)

    # --- SSE arithmetic & compare ---

    def _sse_scalar_bin(self, ins: Instruction, op: str) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg) and self.regs is not None
        a = self.regs.read_xmm_f64(dst.index)
        bv = self.read_f64(src)
        r = self.b.binop(op, a, bv)
        self.regs.write_xmm_f64_low_preserve(dst.index, r)

    def _sse_packed_bin(self, ins: Instruction, op: str) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg) and self.regs is not None
        a = self.regs.read_xmm_vector(dst.index, F_V2F64)
        bv = self.read_v2f64(src, aligned=True)
        r = self.b.binop(op, a, bv)
        self.regs.write_xmm_vector(dst.index, F_V2F64, r)

    def _sse_bitwise(self, ins: Instruction, op: str) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg) and self.regs is not None
        if op == "xor" and isinstance(src, Reg) and src.kind == "xmm" \
                and src.index == dst.index:
            # pxor x, x / xorpd x, x: zero idiom
            self.regs.write_xmm_i128(dst.index, Constant(I128, 0))
            return
        a = self.regs.read_xmm_i128(dst.index)
        bv = self.read_i128(src)
        r = self.b.binop(op, a, bv)
        self.regs.write_xmm_i128(dst.index, r)

    def _i_ucomisd(self, ins: Instruction) -> None:
        a_op, b_op = ins.operands
        assert isinstance(a_op, Reg) and self.regs is not None
        assert self.flags is not None
        a = self.regs.read_xmm_f64(a_op.index)
        bv = self.read_f64(b_op)
        self.flags.set_after_ucomisd(a, bv)

    _i_comisd = _i_ucomisd

    def _i_cvtsi2sd(self, ins: Instruction) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg) and self.regs is not None
        ssize = src.size if isinstance(src, (Reg, Mem)) else 8
        v = self.read_int(src, ssize)
        r = self.b.sitofp(v, DOUBLE)
        self.regs.write_xmm_f64_low_preserve(dst.index, r)

    def _i_cvttsd2si(self, ins: Instruction) -> None:
        dst, src = ins.operands
        assert isinstance(dst, Reg) and dst.kind == "gp"
        v = self.read_f64(src)
        r = self.b.fptosi(v, _INT_TYPE[dst.size])
        self.write_int(dst, r, dst.size)

    # --- calls ---

    def _i_call(self, ins: Instruction) -> None:
        target = effects_of(ins).target  # discovery rejected indirect calls
        assert target is not None and self.regs is not None
        assert self.flags is not None
        decl = self._callee_decls.get(target)
        if decl is None:
            raise LiftError(
                f"call to unknown function {target:#x}; declare it via "
                "LiftOptions.known_functions (Sec. III-B)",
                stage="lift", addr=ins.addr, instruction=ins.mnemonic,
            )
        args: list[Value] = []
        int_idx = 0
        f_idx = 0
        for pt in decl.ftype.params:
            if pt is DOUBLE:
                args.append(self.regs.read_xmm_f64(f_idx))
                f_idx += 1
            else:
                args.append(self.regs.read_gpr(SYSV_INT_ARGS[int_idx], 8))
                int_idx += 1
        result = self.b.call(decl, args, decl.ftype.ret)
        # clobber caller-saved state per the SysV ABI
        from repro.x86.registers import SYSV_CALLER_SAVED
        for reg in SYSV_CALLER_SAVED:
            self.regs.write_gpr(reg, Undef(I64), 8)
        for i in range(16):
            self.regs.write_xmm_i128(i, Undef(I128))
        self.flags.set_all_undef()
        if decl.ftype.ret is DOUBLE:
            self.regs.write_xmm_f64_zero_rest(0, result)
        elif not decl.ftype.ret.is_void:
            self.regs.write_gpr(RAX, result, 8)


_SSE_SCALAR_BIN = {
    "addsd": "fadd", "subsd": "fsub", "mulsd": "fmul", "divsd": "fdiv",
}
_SSE_PACKED_BIN = {
    "addpd": "fadd", "subpd": "fsub", "mulpd": "fmul", "divpd": "fdiv",
}
_SSE_BITWISE = {
    "pxor": "xor", "xorpd": "xor", "xorps": "xor",
    "pand": "and", "andpd": "and", "andps": "and",
    "por": "or", "orpd": "or", "orps": "or",
}


def _undef_v2f64() -> Value:
    return Undef(V2F64)


def lift_function(memory: Memory, entry: int, signature: FunctionSignature,
                  options: LiftOptions | None = None,
                  module: Module | None = None) -> Function:
    """Lift the guest function at ``entry`` into (a new or given) module."""
    return Lifter(memory, entry, signature, options, module).lift()
