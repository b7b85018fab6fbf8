"""The DBrew rewriter: decode -> partially evaluate -> encode (Sec. II).

The rewrite driver walks *trace points* — (guest address, inline return
stack, meta-state) triples.  Known control flow is followed inline (this is
what unrolls loops over fixed descriptors); unknown conditional branches
fork the state and targets are deduplicated by state digest, so loops whose
condition is unknown close after at most one peeled copy.  A widening
fallback bounds unrolling of known-trip loops (``unroll_limit``).

Emitted code runs under a small fixed frame (``sub rsp, 136``) so that
stack slots of *emulated* pushes can be addressed rsp-relative without
clashing with calls; all guest rbp/rsp addressing is rewritten to
rsp-relative absolute slots, which is why DBrew output looks "flat"
(Fig. 8 top).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from repro.arith import f64_to_bits, to_signed
from repro.cpu.image import Image
from repro.cpu.semantics import CONDITIONS, execute
from repro.cpu.state import CPUState
from repro.dbrew.metastate import (
    VSP_BASE, MetaState, MetaValue, StackSlot, is_stack_address, stack_offset,
)
from repro.errors import RewriteError
from repro.mem.memory import Memory
from repro.x86.asm import Item, Label, LabelRef, assemble_full
from repro.x86.decoder import decode_one
from repro.x86.effects import Effects, effects_of
from repro.x86.instr import Imm, Instruction, Mem, Reg, gp, make, xmm
from repro.x86.registers import RCX, RSP, SYSV_INT_ARGS

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.guard.budget import Budget

_FRAME = 136  # keeps rsp 16-aligned at emitted call sites
_MASK64 = (1 << 64) - 1
#: ``op reg, reg`` forms whose known source is emitted as an immediate
_IMM_SOURCE = frozenset({"add", "sub", "and", "or", "xor", "cmp", "adc", "sbb"})

#: ``handler(rewriter, exc) -> entry address`` invoked when a rewrite hits
#: an internal :class:`RewriteError` (the paper's Sec. II error contract)
ErrorHandler = Callable[["Rewriter", RewriteError], int]


def default_error_handler(rewriter: "Rewriter", exc: RewriteError) -> int:
    """Sec. II's default policy: fall back to the original function."""
    return rewriter.entry


def raising_error_handler(rewriter: "Rewriter", exc: RewriteError) -> int:
    """Propagate instead of falling back (what the guard ladder installs:
    it owns the fallback decision and needs the error to record the rung)."""
    raise exc


@dataclass
class RewriteStats:
    """Counters for one rewrite."""

    decoded: int = 0
    emulated: int = 0
    emitted: int = 0
    materializations: int = 0
    points: int = 0
    widenings: int = 0


@dataclass
class _Point:
    label: str
    addr: int
    rstack: tuple[int, ...]
    state: MetaState


class Rewriter:
    """Mirror of the Fig. 2/3 configuration API."""

    def __init__(self, image: Image, func: str | int, *,
                 budget: "Budget | None" = None) -> None:
        self.image = image
        self.entry = image.symbol(func) if isinstance(func, str) else func
        self.func_name = func if isinstance(func, str) else f"f{func:x}"
        self.signature: tuple[str, ...] = ()
        self.ret_class: str | None = "i"
        self._fixed: dict[int, int] = {}  # param index -> raw 64-bit value
        self._mem_regions: list[tuple[int, int]] = []
        self.unroll_limit = 512
        self.inline_depth = 8
        self.code_size_limit = 1 << 16
        self.error_handler: ErrorHandler = default_error_handler
        #: the RewriteError the last rewrite() recovered from (None = clean)
        self.last_error: RewriteError | None = None
        self.stats = RewriteStats()
        self.budget = budget
        self._decode_cache: dict[int, Instruction] = {}

    # -- configuration (dbrew_setpar / dbrew_setmem) ---------------------------

    def set_signature(self, params: tuple[str, ...], ret: str | None = "i") -> "Rewriter":
        """Parameter classes ('i'/'f') and return class, required before
        set_par (DBrew's C-ABI contract, Sec. II)."""
        self.signature = params
        self.ret_class = ret
        return self

    def set_par(self, index: int, value: int) -> "Rewriter":
        """Fix an integer/pointer parameter to a constant (dbrew_setpar)."""
        self._fixed[index] = value & _MASK64
        return self

    def set_par_f64(self, index: int, value: float) -> "Rewriter":
        """Fix a double parameter to a constant."""
        self._fixed[index] = f64_to_bits(value)
        return self

    def set_mem(self, start: int, end: int) -> "Rewriter":
        """Declare [start, end) as fixed memory (dbrew_setmem)."""
        self._mem_regions.append((start, end))
        return self

    def set_unroll_limit(self, n: int) -> "Rewriter":
        self.unroll_limit = n
        return self

    def set_inline_depth(self, n: int) -> "Rewriter":
        self.inline_depth = n
        return self

    # -- rewriting -----------------------------------------------------------------

    def config(self) -> tuple:
        """Everything the rewrite reads but the entry's code, as a hashable
        value; ``set_mem`` regions with their bytes, read now (what
        :func:`repro.cache.keys.rewrite_key` digests)."""
        memory = self.image.memory
        return (tuple(self.signature), self.ret_class,
                tuple(sorted(self._fixed.items())),
                (self.unroll_limit, self.inline_depth, self.code_size_limit),
                tuple((start, end, memory.read(start, end - start))
                      for start, end in sorted(self._mem_regions)))

    def rewrite(self, *, name: str | None = None) -> int:
        """Rewrite; returns the new entry address.

        On internal failure the default error handler returns the original
        function (Sec. II); a custom ``error_handler(rewriter, exc)`` may
        return an address instead.  Every call rewrites: memoizing an
        identical request is the pipeline's rewrite stage
        (:meth:`repro.jit.plan.Pipeline.rewrite`).
        """
        self.last_error = None
        try:
            return self._rewrite(name)
        except RewriteError as exc:
            exc.with_context(stage="rewrite", func=self.func_name,
                             addr=self.entry)
            self.last_error = exc
            return self.error_handler(self, exc)

    def _initial_state(self) -> MetaState:
        for idx in self._fixed:
            if not 0 <= idx < len(self.signature):
                raise RewriteError(
                    f"set_par index {idx} outside the declared signature "
                    f"(set_signature must describe all parameters, Sec. II)"
                )
        st = MetaState()
        st.gpr[RSP] = MetaValue.of(VSP_BASE)
        st.runtime_sp_off = -_FRAME
        self._pinned_params: list[tuple[int, int]] = []
        int_idx = 0
        f_idx = 0
        for i, cls in enumerate(self.signature):
            if cls == "i":
                if i in self._fixed:
                    value = self._fixed[i] & _MASK64
                    if is_stack_address(value):
                        # the fixed value collides with the virtual-stack
                        # sentinel window: tracked as known, every address
                        # fold and materialization would misclassify it as
                        # a rewrite-time stack pointer and emit rsp-relative
                        # garbage.  Pin the true value into the register at
                        # entry and track it as unknown — sound, just not
                        # specialized on.
                        self._pinned_params.append(
                            (SYSV_INT_ARGS[int_idx], value))
                    else:
                        st.gpr[SYSV_INT_ARGS[int_idx]] = MetaValue.of(value)
                int_idx += 1
            else:
                if i in self._fixed:
                    st.xmm[f_idx] = MetaValue.of(self._fixed[i], 128)
                f_idx += 1
        return st

    def _rewrite(self, name: str | None) -> int:
        self.stats = RewriteStats()
        out: list[Item] = []
        new_name = name or f"{self.func_name}.rewritten"
        out.append(Label(new_name))
        out.append(make("sub", gp(RSP), Imm(_FRAME)))

        self._labels: dict[tuple, str] = {}
        self._label_counter = 0
        self._back_visits: Counter = Counter()
        #: every fork so far, as (pc, inline return stack), in order
        self._forks: list[tuple[int, tuple[int, ...]]] = []
        #: loop head -> len(self._forks) at its last back-edge
        self._forks_at_visit: dict[int, int] = {}
        self._last_state_at: dict[int, MetaState] = {}
        #: (bits, size) -> rodata address of a pooled constant
        self._pool: dict[tuple[int, int], int] = {}
        worklist: list[_Point] = []

        state0 = self._initial_state()
        for reg_idx, value in self._pinned_params:
            out.append(make("mov", gp(reg_idx), Imm(to_signed(value, 64), 8)))
            self.stats.emitted += 1
        entry_label = self._point_label(self.entry, (), state0, worklist)
        out.append(make("jmp", LabelRef(entry_label)))

        while worklist:
            point = worklist.pop(0)
            self.stats.points += 1
            if self.stats.points > 4096:
                raise RewriteError("too many trace points (state explosion)",
                                   stage="rewrite", addr=point.addr)
            if self.budget is not None:
                self.budget.charge("trace_points", stage="rewrite",
                                   addr=point.addr)
                self.budget.check_deadline("rewrite", addr=point.addr)
            out.append(Label(point.label))
            self._process_point(point, out, worklist)
            if len(out) * 4 > self.code_size_limit:
                raise RewriteError("generated code exceeds the buffer limit",
                                   stage="rewrite", addr=point.addr)

        from repro.backend.emit import peephole
        out = peephole(out)
        base = self.image.next_code_addr(jit=True)
        code, _placed, _labels = assemble_full(out, base)
        if len(code) > self.code_size_limit:
            raise RewriteError("generated code exceeds the buffer limit")
        return self.image.add_function(new_name, code, jit=True)

    # -- trace points --------------------------------------------------------------

    def _point_label(self, addr: int, rstack: tuple[int, ...], state: MetaState,
                     worklist: list[_Point]) -> str:
        key = (addr, rstack, state.digest())
        label = self._labels.get(key)
        if label is None:
            self._label_counter += 1
            label = f"P{self._label_counter}"
            self._labels[key] = label
            worklist.append(_Point(label, addr, rstack, state.copy()))
        return label

    def _decode(self, pc: int) -> Instruction:
        ins = self._decode_cache.get(pc)
        if ins is None:
            window = self.image.memory.window(pc, 16)
            if not window:
                raise RewriteError(f"code address {pc:#x} unmapped")
            try:
                ins = decode_one(window, 0, pc)
            except Exception as exc:  # decoding gap -> internal error (Sec. II)
                raise RewriteError(f"cannot decode at {pc:#x}: {exc}",
                                   stage="rewrite", addr=pc,
                                   data=window) from exc
            self._decode_cache[pc] = ins
            self.stats.decoded += 1
        return ins

    def _process_point(self, point: _Point, out: list[Item],
                       worklist: list[_Point]) -> None:
        pc = point.addr
        rstack = list(point.rstack)
        state = point.state
        budget = self.budget
        for _ in range(200_000):
            if budget is not None:
                budget.charge("emulated", stage="rewrite", addr=pc)
            ins = self._decode(pc)
            fx = effects_of(ins)
            cls = fx.control
            if cls in ("jmp", "call") and fx.target is None:
                raise RewriteError(f"indirect {ins.mnemonic} at {pc:#x}",
                                   stage="rewrite", addr=pc,
                                   instruction=ins.mnemonic)
            if cls == "jmp":
                pc = self._follow(fx.target, pc, rstack, state, out, worklist)
                if pc is None:
                    return
                continue
            if cls == "jcc":
                nxt = self._jcc(ins, fx, pc, rstack, state, out, worklist)
                if nxt is None:
                    return
                pc = nxt
                continue
            if cls == "call":
                if len(rstack) < self.inline_depth:
                    # inline: push a sentinel return address, descend
                    sp = state.gpr[RSP]
                    if not sp.known:
                        raise RewriteError("unknown rsp at call")
                    new_sp = (sp.value - 8) & _MASK64
                    state.gpr[RSP] = MetaValue.of(new_sp)
                    state.stack_write(stack_offset(new_sp), 8, MetaValue.of(0))
                    rstack.append(ins.end)
                    pc = fx.target
                    continue
                self._emit_call(ins, state, out)
                pc = ins.end
                continue
            if cls == "ret":
                if rstack:
                    ret_to = rstack.pop()
                    sp = state.gpr[RSP]
                    if not sp.known:
                        raise RewriteError("unknown rsp at inlined ret")
                    state.gpr[RSP] = MetaValue.of((sp.value + 8) & _MASK64)
                    pc = ret_to
                    continue
                # the return-value register must hold its value at runtime
                if self.ret_class == "i":
                    self._materialize(("gp", 0), state, out)
                elif self.ret_class == "f":
                    self._materialize(("xmm", 0), state, out)
                out.append(make("add", gp(RSP), Imm(_FRAME)))
                out.append(make("ret"))
                return
            # ordinary instruction
            self._step(ins, fx, state, out)
            pc = ins.end
        raise RewriteError("rewrite trace did not terminate",
                           stage="rewrite", addr=pc)

    def _follow(self, target: int, pc: int, rstack: list[int], state: MetaState,
                out: list[Item], worklist: list[_Point]) -> int | None:
        """Follow a known branch; widen when unrolling stops paying off.

        A loop whose exit condition is *known* unrolls fully (DBrew's core
        specialization).  A loop with a runtime conditional inside it
        (``_loop_forked``) cannot be skipped at rewrite time, so per-iteration
        specialization only bloats code: the values that changed since the
        last visit are selectively materialized and forgotten, after which
        the state digests converge and the fork dedup closes the loop.  A
        hard per-address budget (``unroll_limit``) backstops everything.
        """
        if target <= pc:
            self._back_visits[target] += 1
            runtime_loop = self._loop_forked(target, pc, tuple(rstack))
            prev_state = self._last_state_at.get(target)
            if runtime_loop and prev_state is not None:
                if self._widen_diff(prev_state, state, out):
                    self.stats.widenings += 1
            self._last_state_at[target] = state.copy()
            if self._back_visits[target] > self.unroll_limit:
                self.stats.widenings += 1
                self._widen(state, out)
                label = self._point_label(target, tuple(rstack), state, worklist)
                out.append(make("jmp", LabelRef(label)))
                return None
        return target

    def _loop_forked(self, head: int, pc: int, rstack: tuple[int, ...]) -> bool:
        """Whether a fork since the last back-edge to ``head`` sits in the
        loop ``[head, pc]``: in this inline frame at an address in the span,
        or in a callee inlined from a call site in the span.  A fork of an
        enclosing loop or of sibling code says nothing about this loop's
        trip count."""
        since = self._forks_at_visit.get(head)
        self._forks_at_visit[head] = len(self._forks)
        if since is None:
            return False
        depth = len(rstack)
        for fork_pc, fork_rstack in self._forks[since:]:
            if fork_rstack[:depth] != rstack:
                continue
            # a callee's fork is placed at its call site in this frame: the
            # last byte of the call, just below the return address
            site = fork_pc if len(fork_rstack) == depth \
                else fork_rstack[depth] - 1
            if head <= site <= pc:
                return True
        return False

    def _widen_diff(self, prev: MetaState, state: MetaState,
                    out: list[Item]) -> bool:
        """Forget values that are *evolving* across loop iterations.

        Only a location that was known with a different value at the last
        visit counts as evolving (e.g. a known induction variable); a
        location that merely became known converges by itself at the next
        fork's digest dedup, and forgetting it would de-specialize values
        like the fixed stencil descriptor pointer.
        """
        changed = False
        for idx in range(16):
            if idx != RSP:
                p, c = prev.gpr[idx], state.gpr[idx]
                if p.known and c.known and p.value != c.value \
                        and not is_stack_address(c.value):
                    self._materialize(("gp", idx), state, out)
                    state.gpr[idx] = MetaValue.unknown()
                    changed = True
            p, c = prev.xmm[idx], state.xmm[idx]
            if p.known and c.known and p.value != c.value:
                self._materialize(("xmm", idx), state, out)
                state.xmm[idx] = MetaValue.unknown()
                changed = True
        for off in sorted(set(prev.stack) & set(state.stack)):
            pv = prev.stack[off].value
            cv = state.stack[off].value
            if pv.known and cv.known and pv.value != cv.value \
                    and not is_stack_address(cv.value):
                self._flush_slot(off, state, out)
                state.stack[off] = StackSlot(MetaValue.unknown(), flushed=True)
                changed = True
        for f in "oszapc":
            p, c = prev.flags[f], state.flags[f]
            if p.known and c.known and p.value != c.value:
                state.flags[f] = MetaValue.unknown()
                changed = True
        return changed

    def _jcc(self, ins: Instruction, fx: Effects, pc: int, rstack: list[int],
             state: MetaState, out: list[Item],
             worklist: list[_Point]) -> int | None:
        target = fx.target
        assert fx.cc is not None and target is not None
        if all(state.flags[f].known for f in fx.flags_read):
            taken = self._eval_cc(fx.cc, state)
            self.stats.emulated += 1
            return self._follow(target if taken else ins.end, pc, rstack,
                                state, out, worklist)
        self._require_runtime_flags(ins, fx, state)
        # unknown condition: fork.  A backward fork target is a do-while
        # style loop re-entry; apply the same runtime-loop widening rule as
        # _follow so evolving known values cannot explode the point count
        # (this fork is in its own span, so a revisit always widens)
        frame = tuple(rstack)
        self._forks.append((pc, frame))
        if target <= pc and self._loop_forked(target, pc, frame):
            self.stats.widenings += 1
            self._widen(state, out)
        ltrue = self._point_label(target, frame, state, worklist)
        lfalse = self._point_label(ins.end, frame, state, worklist)
        out.append(Instruction(ins.mnemonic, (LabelRef(ltrue),)))  # type: ignore[arg-type]
        out.append(make("jmp", LabelRef(lfalse)))
        self.stats.emitted += 2
        return None

    def _eval_cc(self, cc: str, state: MetaState) -> bool:
        """The simulator's predicate over the known flags (reading an
        unknown one is an ``AttributeError``, not a guess)."""
        known = SimpleNamespace(**{name + "f": bool(mv.value)
                                   for name, mv in state.flags.items()
                                   if mv.known})
        return CONDITIONS[cc](known)  # type: ignore[arg-type]

    # -- single instruction: emulate or emit --------------------------------------

    def _step(self, ins: Instruction, fx: Effects, state: MetaState,
              out: list[Item]) -> None:
        m = ins.mnemonic
        if m == "nop":
            return
        if m == "push":
            self._push(ins, state, out)
            return
        if m == "pop":
            self._pop(ins, state, out)
            return
        if m == "leave":
            self._leave(state, out)
            return
        # zero idioms make the destination known regardless of its old value
        if m in ("xor", "sub", "pxor", "xorpd", "xorps") and len(ins.operands) == 2:
            a, b = ins.operands
            if isinstance(a, Reg) and isinstance(b, Reg) and a.kind == b.kind \
                    and a.index == b.index and a.high8 == b.high8:
                if a.kind == "gp" and not state.gpr[a.index].known:
                    state.gpr[a.index] = MetaValue.of(0)
                elif a.kind == "xmm" and not state.xmm[a.index].known:
                    state.xmm[a.index] = MetaValue.of(0, 128)
        # scalar reg-reg moves: treat the (never-read) upper lane as zeroed,
        # which keeps compiler-generated scalar chains fully known.  The
        # record says this form merges (it reads dst); this arm overrides it
        # on purpose — following the record here moves emitted bytes
        # (DESIGN, "What an x86 instruction touches, once")
        if m == "movsd" and all(isinstance(o, Reg) and o.kind == "xmm"
                                for o in ins.operands):
            dst, srcr = ins.operands
            assert isinstance(dst, Reg) and isinstance(srcr, Reg)
            srcv = state.xmm[srcr.index]
            if srcv.known:
                state.xmm[dst.index] = MetaValue.of(srcv.value & _MASK64, 128)
                self.stats.emulated += 1
                return
            # unknown source: emit the move; the stale upper lane of dst is
            # never read by compiler-generated scalar code, so the known dst
            # value needs no materialization
            out.append(Instruction(m, ins.operands))
            self.stats.emitted += 1
            state.xmm[dst.index] = MetaValue.unknown()
            return
        if fx.cc is not None and all(state.flags[f].known
                                     for f in fx.flags_read):
            # known condition: a cmovcc is a mov or nothing, a setcc a
            # constant — whatever of the destination stays unknown, the
            # emitted form must not read the (folded-away) flags
            taken = self._eval_cc(fx.cc, state)
            if m.startswith("cmov"):
                dst, src = ins.operands
                if not taken:
                    if dst.size != 4:  # type: ignore[union-attr]
                        self.stats.emulated += 1
                        return
                    src = dst  # a 32-bit cmov zero-extends even then
                ops = (dst, src)
            else:
                ops = (ins.operands[0], Imm(int(taken), 1))
            folded = Instruction("mov", ops, addr=ins.addr)
            self._step(folded, effects_of(folded), state, out)
            return
        if self._try_emulate(ins, fx, state):
            return
        self._emit(ins, fx, state, out)

    # -- emulation -------------------------------------------------------------------

    def _mem_effective(self, mem: Mem, state: MetaState) -> int | None:
        """Known effective address, or None."""
        if mem.riprel or mem.is_absolute:
            return mem.disp & _MASK64
        addr = mem.disp
        if mem.base is not None:
            mv = state.gpr[mem.base.index]
            if not mv.known:
                return None
            addr += mv.value
        if mem.index is not None:
            mv = state.gpr[mem.index.index]
            if not mv.known:
                return None
            addr += mv.value * mem.scale
        return addr & _MASK64

    def _read_fixed_memory(self, addr: int, size: int, state: MetaState) -> bytes | None:
        """Bytes at a known address if they are rewrite-time constant."""
        if is_stack_address(addr):
            off = stack_offset(addr)
            mv = state.stack_read(off, size)
            if not mv.known:
                return None
            return mv.value.to_bytes(size, "little")
        for start, end in self._mem_regions:
            if start <= addr and addr + size <= end:
                return self.image.memory.read(addr, size)
        return None

    @staticmethod
    def _flags_touched(fx: Effects, state: MetaState) -> bool:
        """False when a known count of zero leaves every flag alone."""
        rcx = state.gpr[RCX]
        return not (fx.count_mask and rcx.known
                    and not rcx.value & fx.count_mask)

    def _try_emulate(self, ins: Instruction, fx: Effects,
                     state: MetaState) -> bool:
        # a merged (8/16-bit) destination is among the reads: not emulated
        # unless the register it merges into is known
        for kind, idx in fx.reads:
            if not _bank(state, kind)[idx].known:
                return False
        for f in fx.flags_read:
            if not state.flags[f].known:
                return False
        memop = next((o for o in ins.operands if isinstance(o, Mem)), None)
        ea: int | None = None
        mem_bytes: bytes | None = None
        if memop is not None:
            ea = self._mem_effective(memop, state)
            assert ea is not None  # the address registers are among the reads
            if fx.mem_read:
                mem_bytes = self._read_fixed_memory(ea, memop.size, state)
                if mem_bytes is None:
                    return False
            if fx.mem_write and not is_stack_address(ea):
                return False  # runtime-visible store must be emitted

        flags_touched = self._flags_touched(fx, state)  # before rcx moves

        # set up a scratch CPU and run the real semantics
        cpu = CPUState()
        for kind, idx in fx.reads:
            _bank(cpu, kind)[idx] = _bank(state, kind)[idx].value
        for f, mv in state.flags.items():
            if mv.known:
                cpu.set_flag(f, bool(mv.value))

        tmp_mem = Memory()
        if ea is not None:
            page = ea & ~0xFFF
            tmp_mem.map(page, 0x2000)
            if mem_bytes is not None:
                tmp_mem.write(ea, mem_bytes)
        try:
            execute(ins, cpu, tmp_mem)
        except Exception as exc:
            raise RewriteError(f"emulation failed at {ins.addr:#x}: {exc}",
                               stage="rewrite", addr=ins.addr,
                               instruction=ins.mnemonic) from exc

        for kind, idx in fx.writes:
            _bank(state, kind)[idx] = MetaValue.of(
                _bank(cpu, kind)[idx], 64 if kind == "gp" else 128)
        if flags_touched:
            for f in fx.flags_def:
                state.flags[f] = MetaValue.of(int(cpu.flag(f)), 1)
            for f in fx.flags_undef:
                state.flags[f] = MetaValue.unknown()
        if ea is not None and fx.mem_write:
            data = tmp_mem.read(ea, memop.size)
            state.stack_write(stack_offset(ea), memop.size,
                             MetaValue.of(int.from_bytes(data, "little")))
        self.stats.emulated += 1
        return True

    # -- stack ops ----------------------------------------------------------------

    def _sp_known(self, state: MetaState) -> int:
        sp = state.gpr[RSP]
        if not sp.known or not is_stack_address(sp.value):
            raise RewriteError("rsp escaped tracking")
        return sp.value

    def _push(self, ins: Instruction, state: MetaState, out: list[Item]) -> None:
        (src,) = ins.operands
        sp = self._sp_known(state)
        new_sp = (sp - 8) & _MASK64
        state.gpr[RSP] = MetaValue.of(new_sp)
        off = stack_offset(new_sp)
        if isinstance(src, Imm):
            state.stack_write(off, 8, MetaValue.of(src.value))
            self.stats.emulated += 1
            return
        if isinstance(src, Reg) and src.kind == "gp":
            mv = state.gpr[src.index]
            if mv.known:
                state.stack_write(off, 8, MetaValue.of(mv.value))
                self.stats.emulated += 1
                return
            # unknown value: store it at the slot's home, rsp-relative
            out.append(make("mov", self._slot_mem(off, 8, state), gp(src.index)))
            self.stats.emitted += 1
            state.stack[off & ~7] = StackSlot(MetaValue.unknown(), flushed=True)
            return
        raise RewriteError(f"unsupported push operand at {ins.addr:#x}")

    def _pop(self, ins: Instruction, state: MetaState, out: list[Item]) -> None:
        (dst,) = ins.operands
        sp = self._sp_known(state)
        off = stack_offset(sp)
        mv = state.stack_read(off, 8)
        state.gpr[RSP] = MetaValue.of((sp + 8) & _MASK64)
        if mv.known:
            if isinstance(dst, Reg) and dst.kind == "gp":
                state.gpr[dst.index] = mv
                self.stats.emulated += 1
                return
            raise RewriteError("unsupported pop destination")
        if isinstance(dst, Reg) and dst.kind == "gp":
            out.append(make("mov", gp(dst.index), self._slot_mem(off, 8, state)))
            self.stats.emitted += 1
            state.gpr[dst.index] = MetaValue.unknown()
            return
        raise RewriteError("unsupported pop destination")

    def _leave(self, state: MetaState, out: list[Item]) -> None:
        # rsp = rbp; pop rbp
        rbp = state.gpr[5]
        if not rbp.known:
            raise RewriteError("leave with unknown rbp")
        state.gpr[RSP] = rbp
        self._pop(make("pop", gp(5)), state, out)

    def _slot_mem(self, off: int, size: int, state: MetaState) -> Mem:
        """rsp-relative operand for an absolute stack slot offset."""
        return Mem(size, base=gp(RSP), disp=off - state.runtime_sp_off)

    # -- emission -------------------------------------------------------------------

    def _pool_constant(self, bits: int, size: int) -> int:
        """Rodata address of a constant, allocated once per rewrite (each
        peeled copy of a loop reuses its coefficients' slots)."""
        addr = self._pool.get((bits, size))
        if addr is None:
            addr = self.image.alloc_rodata(bits.to_bytes(size, "little"),
                                           align=size)
            self._pool[(bits, size)] = addr
        return addr

    def _materialize(self, key: tuple[str, int], state: MetaState,
                     out: list[Item]) -> None:
        kind, idx = key
        if kind == "gp" and idx == RSP:
            return  # rsp is tracked symbolically; the runtime value is live
        mv = _bank(state, kind)[idx]
        if not mv.known or mv.materialized:
            return
        self.stats.materializations += 1
        if kind == "gp":
            if is_stack_address(mv.value):
                off = stack_offset(mv.value)
                out.append(make("lea", gp(idx),
                                Mem(8, base=gp(RSP), disp=off - state.runtime_sp_off)))
            else:
                out.append(make("mov", gp(idx), Imm(to_signed(mv.value, 64), 8)))
            state.gpr[idx] = mv.mat()
        else:
            if mv.value >> 64 == 0:
                addr = self._pool_constant(mv.value, 8)
                out.append(make("movsd", xmm(idx), Mem(8, disp=addr)))
            else:
                addr = self._pool_constant(mv.value, 16)
                out.append(make("movupd", xmm(idx), Mem(16, disp=addr)))
            state.xmm[idx] = mv.mat()
        self.stats.emitted += 1

    def _flush_slot(self, off: int, state: MetaState, out: list[Item]) -> None:
        base = off & ~7
        slot = state.stack.get(base)
        if slot is None or not slot.value.known or slot.flushed:
            return
        value = slot.value.value
        if is_stack_address(value):
            # a saved stack pointer (e.g. a spilled rbp): the runtime value
            # must be rsp-relative, not the rewrite-time sentinel.  Borrow
            # rax around the lea; the push shifts rsp-relative offsets by 8.
            out.append(make("push", gp(0)))
            out.append(make("lea", gp(0), Mem(
                8, base=gp(RSP),
                disp=stack_offset(value) - state.runtime_sp_off + 8,
            )))
            out.append(make("mov", Mem(
                8, base=gp(RSP), disp=base - state.runtime_sp_off + 8,
            ), gp(0)))
            out.append(make("pop", gp(0)))
            self.stats.emitted += 4
        elif -(2**31) <= to_signed(value, 64) < 2**31:
            # single qword store keeps the slot 8-byte uniform (matters for
            # the IR lifter's stack promotion of our own output)
            out.append(make("mov", self._slot_mem(base, 8, state),
                            Imm(to_signed(value, 64), 4)))
            self.stats.emitted += 1
        else:
            out.append(make("push", gp(0)))
            out.append(make("mov", gp(0), Imm(to_signed(value, 64), 8)))
            out.append(make("mov", Mem(
                8, base=gp(RSP), disp=base - state.runtime_sp_off + 8,
            ), gp(0)))
            out.append(make("pop", gp(0)))
            self.stats.emitted += 4
        state.stack[base] = StackSlot(slot.value, flushed=True)

    def _rewrite_mem(self, mem: Mem, state: MetaState, out: list[Item],
                     *, for_read: bool) -> Mem:
        """Fold known address components into the emitted operand."""
        ea = self._mem_effective(mem, state)
        if ea is not None:
            if is_stack_address(ea):
                off = stack_offset(ea)
                if for_read or off % 8 or mem.size % 8:
                    # flush every 8-byte slot the access overlaps (a write
                    # that covers part of a slot keeps the rest of it)
                    slot = off & ~7
                    while slot < off + mem.size:
                        self._flush_slot(slot, state, out)
                        slot += 8
                return self._slot_mem(off, mem.size, state)
            if -(2**31) <= to_signed(ea, 64) < 2**31:
                return Mem(mem.size, disp=ea & 0xFFFFFFFF)
            raise RewriteError(f"absolute address {ea:#x} out of range")
        # partially known: fold what we can
        base, index, scale, disp = mem.base, mem.index, mem.scale, mem.disp
        if index is not None:
            mv = state.gpr[index.index]
            if mv.known and not is_stack_address(mv.value):
                disp += to_signed(mv.value, 64) * scale
                index, scale = None, 1
        if base is not None:
            mv = state.gpr[base.index]
            if mv.known:
                if is_stack_address(mv.value):
                    # stack base + unknown index: keep rsp as base
                    off = stack_offset(mv.value)
                    return Mem(mem.size, base=gp(RSP), index=index, scale=scale,
                               disp=disp + off - state.runtime_sp_off)
                disp += to_signed(mv.value, 64)
                base = None
        if base is None and index is None:
            raise RewriteError("address folding lost all registers")
        if not -(2**31) <= disp < 2**31:
            raise RewriteError("folded displacement out of range")
        return Mem(mem.size, base=base, index=index, scale=scale, disp=disp)

    def _require_runtime_flags(self, ins: Instruction, fx: Effects,
                               state: MetaState) -> None:
        """An emitted instruction reads the flags as they are at run time.
        A flag known here was set by something emulated, so the run-time
        one is stale, and there is no emitted form that materializes it."""
        if any(state.flags[f].known for f in fx.flags_read):
            raise RewriteError(
                f"{ins.mnemonic} at {ins.addr:#x} must be emitted but reads "
                "flags folded at rewrite time", stage="rewrite",
                addr=ins.addr, instruction=ins.mnemonic)

    def _emit(self, ins: Instruction, fx: Effects, state: MetaState,
              out: list[Item]) -> None:
        self._require_runtime_flags(ins, fx, state)
        new_ops = []
        forget = False
        for i, op in enumerate(ins.operands):
            if isinstance(op, Mem):
                if (fx.mem_read or fx.mem_write) \
                        and self._may_hit_stack(op, state):
                    # any slot may be read or written: every known one
                    # goes to memory first
                    for off in sorted(state.stack):
                        self._flush_slot(off, state, out)
                    forget = fx.mem_write
                is_read = fx.mem_read or i != 0
                new_ops.append(self._rewrite_mem(op, state, out, for_read=is_read))
            else:
                new_ops.append(op)
        if ins.mnemonic in _IMM_SOURCE:
            imm = _known_source(ins, state)
            if imm is not None:
                new_ops[1] = imm
        # materialize the registers the emitted form still reads: register
        # operands the record says are read (a merged 8/16-bit destination
        # is one) and the address registers that folding left in place
        needed: set[tuple[str, int]] = set()
        explicit: set[tuple[str, int]] = set()
        for op, new_op in zip(ins.operands, new_ops):
            if isinstance(op, Reg):
                explicit.add((op.kind, op.index))
                if isinstance(new_op, Reg) and (op.kind, op.index) in fx.reads:
                    needed.add((op.kind, op.index))
            elif isinstance(op, Mem):
                explicit |= _address_regs(op)
                needed |= _address_regs(new_op)
        for key in sorted(needed):
            self._materialize(key, state, out)
        # implicit reads (idiv in rax/rdx) — registers read by the
        # instruction without appearing in any operand
        for key in sorted(fx.reads - explicit):
            self._materialize(key, state, out)
        flags_touched = self._flags_touched(fx, state)  # before rcx moves
        if not state.escaped and _reads_stack_value(ins, fx, state):
            # it reaches a register or memory DBrew tracks as unknown
            state.escaped = True

        shift = self._guest_sp_shift(ins, fx, state)
        if shift:
            # the run-time rsp sits below DBrew's frame: move it onto the
            # guest's rsp for this one instruction (``lea`` leaves the
            # flags alone) and keep its rsp-relative operands in place
            new_ops = [replace(op, disp=op.disp - shift)
                       if isinstance(op, Mem) and op.base == gp(RSP) else op
                       for op in new_ops]
            out.append(make("lea", gp(RSP), Mem(8, base=gp(RSP), disp=shift)))
        out.append(Instruction(ins.mnemonic, tuple(new_ops)))
        self.stats.emitted += 1
        if shift:
            out.append(make("lea", gp(RSP), Mem(8, base=gp(RSP), disp=-shift)))
            self.stats.emitted += 2

        # effects: everything written becomes runtime-only (rsp is tracked
        # symbolically)
        for kind, idx in fx.writes - {("gp", RSP)}:
            _bank(state, kind)[idx] = MetaValue.unknown()
        if flags_touched:
            for f in fx.flags_def + fx.flags_undef:
                state.flags[f] = MetaValue.unknown()
        if fx.mem_write:
            memop = next((o for o in ins.operands if isinstance(o, Mem)), None)
            if memop is not None:
                ea = self._mem_effective(memop, state)
                if ea is not None and is_stack_address(ea):
                    state.stack_write(stack_offset(ea), memop.size, MetaValue.unknown())
                    base = stack_offset(ea) & ~7
                    if base in state.stack:
                        state.stack[base] = StackSlot(MetaValue.unknown(), flushed=True)
        if forget:
            for off, slot in state.stack.items():
                if not _stack_valued(slot.value):
                    # frame links stay known, as in ``_widen``
                    state.stack[off] = StackSlot(MetaValue.unknown(), flushed=True)

    def _guest_sp_shift(self, ins: Instruction, fx: Effects,
                        state: MetaState) -> int:
        """How far the run-time rsp must move for an emitted ``ins`` that
        reads rsp as a value to read the guest's stack address (0 when it
        reads none).  An emitted write of rsp leaves DBrew no stack pointer
        to track: a :class:`RewriteError`."""
        if not any(isinstance(op, Reg) and op.kind == "gp" and op.index == RSP
                   for op in ins.operands):
            return 0
        if ("gp", RSP) in fx.writes:
            raise RewriteError(
                f"{ins.mnemonic} at {ins.addr:#x} must be emitted but writes "
                "rsp", stage="rewrite", addr=ins.addr,
                instruction=ins.mnemonic)
        return stack_offset(self._sp_known(state)) - state.runtime_sp_off

    def _may_hit_stack(self, mem: Mem, state: MetaState) -> bool:
        """Whether an access at an address DBrew does not know may land on
        the virtual stack: a stack address plus a run-time register, or
        any address once a stack address has escaped."""
        if self._mem_effective(mem, state) is not None:
            return False
        return state.escaped or any(_stack_valued(state.gpr[idx])
                                    for _, idx in _address_regs(mem))

    def _emit_call(self, ins: Instruction, state: MetaState, out: list[Item]) -> None:
        """Emit a call beyond the inline depth; ABI registers must be live."""
        for idx in SYSV_INT_ARGS:
            if _stack_valued(state.gpr[idx]):
                state.escaped = True  # the callee may keep the pointer
            self._materialize(("gp", idx), state, out)
        for idx in range(8):
            self._materialize(("xmm", idx), state, out)
        # flush the whole known stack: the callee may observe it via pointers
        for off in sorted(state.stack):
            self._flush_slot(off, state, out)
        out.append(Instruction("call", ins.operands))
        self.stats.emitted += 1
        from repro.x86.registers import SYSV_CALLER_SAVED
        for idx in SYSV_CALLER_SAVED:
            state.gpr[idx] = MetaValue.unknown()
        for i in range(16):
            state.xmm[i] = MetaValue.unknown()
        for f in "oszapc":
            state.flags[f] = MetaValue.unknown()

    def _widen(self, state: MetaState, out: list[Item]) -> None:
        """Materialize and forget known values (bounds loop unrolling).

        Stack-pointer-valued registers and slots (rbp, saved frame links)
        are rewrite-time constants — they cannot vary across iterations, so
        they stay known; forgetting them would force every stack access in
        the remaining code through runtime pointers.
        """
        for idx in range(16):
            if idx != RSP:
                mv = state.gpr[idx]
                if mv.known and is_stack_address(mv.value):
                    continue
                self._materialize(("gp", idx), state, out)
                state.gpr[idx] = MetaValue.unknown()
            mvx = state.xmm[idx]
            self._materialize(("xmm", idx), state, out)
            state.xmm[idx] = MetaValue.unknown()
        for off in sorted(state.stack):
            slot = state.stack[off]
            if slot.value.known and is_stack_address(slot.value.value):
                continue  # frame link: loop-invariant, keep known
            self._flush_slot(off, state, out)
            state.stack[off] = StackSlot(MetaValue.unknown(), flushed=True)
        for f in "oszapc":
            state.flags[f] = MetaValue.unknown()


def _bank(holder: "MetaState | CPUState", kind: str) -> list:
    """The GPR or the SSE register list of a meta-state or a scratch CPU."""
    return holder.gpr if kind == "gp" else holder.xmm


def _known_source(ins: Instruction, state: MetaState) -> Imm | None:
    """The known source of ``op reg, reg`` as the immediate it equals, or
    None: an address on the virtual stack has no rewrite-time value, and
    a 64-bit value must survive the imm32's sign extension."""
    dst, src = ins.operands
    if not (isinstance(dst, Reg) and isinstance(src, Reg) and src.kind == "gp"):
        return None
    mv = state.gpr[src.index]
    if not mv.known or is_stack_address(mv.value):
        return None
    bits = 8 * src.size
    value = to_signed((mv.value >> 8 if src.high8 else mv.value)
                      & ((1 << bits) - 1), bits)
    return Imm(value) if -(2**31) <= value < 2**31 else None


def _stack_valued(mv: MetaValue) -> bool:
    """Whether a value is a known address on the virtual stack."""
    return mv.known and is_stack_address(mv.value)


def _reads_stack_value(ins: Instruction, fx: Effects,
                       state: MetaState) -> bool:
    """Whether ``ins`` reads a stack address as a value: anywhere but as
    the address of the memory it accesses (a ``lea`` accesses none)."""
    for kind, idx in fx.reads:
        if kind != "gp" or not _stack_valued(state.gpr[idx]):
            continue
        as_value = as_address = False
        for op in ins.operands:
            if isinstance(op, Reg):
                as_value |= op.kind == "gp" and op.index == idx
            elif isinstance(op, Mem) and ins.mnemonic != "lea":
                as_address |= ("gp", idx) in _address_regs(op)
        if as_value or not as_address:
            return True
    return False


def _address_regs(mem: Mem) -> set[tuple[str, int]]:
    return {("gp", r.index) for r in (mem.base, mem.index) if r is not None}
