"""MiniLLVM IR interpreter.

Executes IR functions against the same simulated :class:`~repro.mem.memory.
Memory` the x86 simulator uses, which enables the project's strongest
correctness check: *lifted IR interpreted over the image must compute the
same result as the original machine code simulated over the image*.

What an opcode computes is not defined here: :mod:`repro.ir.semantics`
holds one expression per (opcode, type), which this module pastes into the
code it compiles and the constant folder calls as a function.  Value
representation: iN -> unsigned-masked int, double/float -> Python float,
pointer -> int address, vector -> tuple of elements, undef -> zeros.

Each function is compiled into a *decoded trace*, a block at a time and
only the blocks execution enters (a probe that faults in the entry block
compiles the entry block): per block, straight-line instruction runs
become a handful of exec-specialized closures over a flat slot-indexed
environment, with operand slots, constants, masks and helpers resolved at
compile time.  Adjacent
instructions fuse into one closure body (superinstructions: the whole run
is a single bytecode object, and ``cmp+br`` fuses into the block
terminator), phi webs become precompiled parallel-move closures per CFG
edge, and the trace is cached per ``(function, Function.version)`` in a
process-global weak map so every interpreter — validator probes, the
differential corpus, the guard gate — shares one compilation.  A mutated
function (pass rewrite, validator rollback) bumps its version and the
stale trace is recompiled, never executed (see DESIGN §14).  Only vector
arithmetic, vector loads and stores, and calls run as standalone closures;
they call the functions :mod:`repro.ir.semantics` compiles from the same
expressions.  The instruction semantics are pinned value for value by
``tests/ir/test_interp_semantics.py``.
"""

from __future__ import annotations

import threading
import weakref

from repro.arith import to_signed
from repro.errors import IRInterpError
from repro.ir import instructions as I
from repro.ir import semantics as S
from repro.ir.irtypes import (
    DoubleType, FloatType, IntType, PointerType, Type, VectorType,
)
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module
from repro.ir.values import Constant, ConstantFP, ConstantVector, Undef, Value
from repro.mem.memory import Memory
from repro.obs import metrics as _metrics


def _zero_of(t: Type) -> object:
    if isinstance(t, IntType):
        return 0
    if isinstance(t, (DoubleType, FloatType)):
        return 0.0
    if isinstance(t, PointerType):
        return 0
    if isinstance(t, VectorType):
        return tuple(_zero_of(t.elem) for _ in range(t.count))
    raise IRInterpError(f"no zero for {t}")


def _global_addr(g: GlobalVariable) -> int:
    a = g.addr
    if a is None:
        raise IRInterpError(f"global @{g.name} not placed")
    return a


def _use_err(msg: str) -> object:
    raise IRInterpError(msg)


class Interpreter:
    """Interprets functions of one module over a Memory."""

    def __init__(self, module: Module, memory: Memory | None = None,
                 stack_base: int = 0x7000_0000, stack_size: int = 1 << 20,
                 extern_functions: dict[str, object] | None = None) -> None:
        self.module = module
        self.memory = memory if memory is not None else Memory()
        if not self.memory.is_mapped(stack_base - stack_size, 1):
            self.memory.map(stack_base - stack_size, stack_size)
        self._stack_top = stack_base
        self._globals_placed = False
        self._global_cursor = 0x6800_0000
        self.extern_functions = extern_functions or {}
        self.steps = 0
        self.max_steps = 10_000_000

    # -- globals ---------------------------------------------------------------

    def _place_globals(self) -> None:
        if self._globals_placed:
            return
        self._globals_placed = True
        total = sum(len(g.initializer) + 32 for g in self.module.globals.values())
        if total:
            self.memory.map(self._global_cursor, total + 4096)
        for g in self.module.globals.values():
            if g.addr is not None:
                continue  # already placed (e.g. by the JIT in an image)
            addr = (self._global_cursor + 15) & ~15
            self.memory.write(addr, g.initializer)
            g.addr = addr
            self._global_cursor = addr + len(g.initializer)

    # -- entry ---------------------------------------------------------------

    def run(self, func: Function | str, args: list[object]) -> object:
        """Interpret ``func`` with Python-level argument values."""
        if isinstance(func, str):
            func = self.module.function(func)
        self._place_globals()
        return self._run_function(func, args, self._stack_top)

    def _run_function(self, func: Function, args: list[object], sp: int) -> object:
        ft = trace_for(func)
        if len(args) != ft.nargs:
            raise IRInterpError(
                f"@{ft.name} expects {ft.nargs} args, got {len(args)}"
            )
        env: list[object] = [None] * ft.nslots
        coerce = self._coerce
        for i, t in enumerate(ft.arg_types):
            env[i] = coerce(args[i], t)

        rt = _Frame(self, self.memory, sp)
        bt = ft.entry
        prev = -1
        while True:
            if bt.pending:  # first entry: phi moves and n_steps come from it
                ft.compiler.compile_block(bt)
            pm = bt.phi_moves
            if pm is not None:
                mv = pm.get(prev)
                if mv is None:
                    raise IRInterpError(
                        f"@{ft.name}: phi in block {bt.bname} has no incoming "
                        f"edge for the path taken")
                mv(rt, env)
            self.steps += bt.n_steps
            if self.steps > self.max_steps:
                raise IRInterpError("interpreter step limit exceeded")
            for op in bt.ops:
                op(rt, env)
            k = bt.tkind
            if k == 1:  # unconditional branch
                prev = bt.bid
                bt = bt.tp
                continue
            if k == 2:  # conditional branch (possibly fused cmp+br)
                cond, tb, fb = bt.tp
                prev = bt.bid
                bt = tb if cond(rt, env) else fb
                continue
            if k == 0:  # ret
                g = bt.tp
                return g(rt, env) if g is not None else None
            raise IRInterpError(bt.terr)  # unreachable / fell through

    def _coerce(self, value: object, t: Type) -> object:
        if isinstance(t, IntType):
            assert isinstance(value, int)
            return value & t.mask
        if isinstance(t, PointerType):
            assert isinstance(value, int)
            return value & (2**64 - 1)
        if isinstance(t, (DoubleType, FloatType)):
            assert isinstance(value, (int, float))
            return float(value)
        if isinstance(t, VectorType):
            assert isinstance(value, (tuple, list)) and len(value) == t.count
            return tuple(self._coerce(x, t.elem) for x in value)
        raise IRInterpError(f"cannot coerce to {t}")


# ===========================================================================
# Threaded-dispatch trace compiler
# ===========================================================================

_M64 = (1 << 64) - 1

_TRACE_HITS = _metrics.counter("interp.trace.hits")
_TRACE_COMPILES = _metrics.counter("interp.trace.compiles")
_TRACE_INVALIDATIONS = _metrics.counter("interp.trace.invalidations")
#: blocks of every trace built / blocks some run entered and so compiled
_TRACE_BLOCKS_TOTAL = _metrics.counter("interp.trace.blocks_total")
_TRACE_BLOCKS_COMPILED = _metrics.counter("interp.trace.blocks_compiled")
#: fused pairs of *compiled* blocks: a pair in a block no run enters is
#: never fused and not counted
_FUSE_CMP_BR = _metrics.counter("interp.fuse.cmp_br")
_FUSE_GEP_LOAD = _metrics.counter("interp.fuse.gep_load")
_FUSE_BINOP_STORE = _metrics.counter("interp.fuse.binop_store")

#: function -> compiled trace; weak keys so traces die with their function.
#: Guarded by a lock: WeakKeyDictionary mutation is not thread-safe and the
#: cache-hammer tests hit this from many threads.
_TRACES: "weakref.WeakKeyDictionary[Function, _FuncTrace]" = \
    weakref.WeakKeyDictionary()
_TRACES_LOCK = threading.Lock()

#: cap on instructions merged into one exec-compiled superinstruction body
#: (bounds compile() time on the lifter's huge flag-web blocks)
_MAX_RUN = 200


class _Frame:
    """Per-invocation runtime state threaded through op closures."""

    __slots__ = ("interp", "mem", "sp")

    def __init__(self, interp: Interpreter, mem: Memory, sp: int) -> None:
        self.interp = interp
        self.mem = mem
        self.sp = sp


class _BlockTrace:
    __slots__ = ("bid", "bname", "pending", "n_steps", "ops", "phi_moves",
                 "tkind", "tp", "terr")

    def __init__(self, bid: int, bname: str) -> None:
        self.bid = bid
        self.bname = bname
        #: nothing below is filled in yet (``_Compiler.compile_block``)
        self.pending = True
        self.n_steps = 0
        self.ops: tuple = ()
        self.phi_moves: dict | None = None
        self.tkind = 4
        self.tp: object = None
        self.terr: str | None = None


class _FuncTrace:
    __slots__ = ("name", "entry", "nslots", "nargs", "arg_types",
                 "version", "nblocks", "ninstrs", "compiler")

    def is_current(self, func: Function) -> bool:
        return (self.version == func.version
                and self.nblocks == len(func.blocks)
                and self.ninstrs == _instr_count(func))


def trace_for(func: Function) -> _FuncTrace:
    """The cached trace for ``func``, recompiling if the version moved.

    Validity = version match **plus** a cheap structural guard (block and
    instruction counts): the version covers every sanctioned mutation path
    (block/instruction insertion, RAUW, pass runs, validator rollbacks),
    the structural guard catches direct surgery on ``block.instructions``
    lists that bypassed them.
    """
    ver = func.version
    with _TRACES_LOCK:
        ft = _TRACES.get(func)
    if ft is not None:
        if ft.is_current(func):
            _TRACE_HITS.value += 1
            return ft
        _TRACE_INVALIDATIONS.value += 1
    ft = _compile_trace(func, ver)
    _TRACE_COMPILES.value += 1
    with _TRACES_LOCK:
        _TRACES[func] = ft
    return ft


def clear_traces() -> None:
    """Drop every cached trace (tests / benchmarks)."""
    with _TRACES_LOCK:
        _TRACES.clear()


def trace_is_current(func: Function) -> bool:
    """True when ``func`` has no cached trace or the cached one is valid.

    The differential corpus audits this after every interpreter run: a
    ``False`` here would mean a stale trace was (or could have been)
    executed — the invariant the corpus gate requires to hold at 10k+
    seeds is that this never happens.
    """
    with _TRACES_LOCK:
        ft = _TRACES.get(func)
    return ft is None or ft.is_current(func)


def trace_cache_stats() -> dict[str, int]:
    with _TRACES_LOCK:
        size = len(_TRACES)
    return {
        "size": size,
        "hits": _TRACE_HITS.value,
        "compiles": _TRACE_COMPILES.value,
        "invalidations": _TRACE_INVALIDATIONS.value,
        "blocks_total": _TRACE_BLOCKS_TOTAL.value,
        "blocks_compiled": _TRACE_BLOCKS_COMPILED.value,
        "fused_cmp_br": _FUSE_CMP_BR.value,
        "fused_gep_load": _FUSE_GEP_LOAD.value,
        "fused_binop_store": _FUSE_BINOP_STORE.value,
    }


def _instr_count(func: Function) -> int:
    n = 0
    for b in func.blocks:
        n += len(b.instructions)
    return n


#: globals of every exec-compiled closure: what the opcode expressions
#: use, plus this module's operand resolution
_EXEC_NS = {**S.NAMESPACE, "_gaddr": _global_addr, "_use_err": _use_err}


class _Emit:
    """Accumulates statement lines + name bindings for one exec closure."""

    __slots__ = ("lines", "binds", "needs_mem", "count", "_t")

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.binds: dict[str, object] = {}
        self.needs_mem = False
        self.count = 0  # instructions covered
        self._t = 0

    def bind(self, val: object) -> str:
        name = f"_k{len(self.binds)}"
        self.binds[name] = val
        return name

    def temp(self) -> str:
        self._t += 1
        return f"_t{self._t}"


def _exec_fn(name: str, body_lines: list[str], binds: dict[str, object],
             needs_mem: bool, params: str = "rt, env"):
    src = [f"def {name}({params}):"]
    if needs_mem:
        src.append("    _mem = rt.mem")
    src.extend("    " + ln for ln in body_lines)
    ns = dict(_EXEC_NS)
    ns.update(binds)
    exec(compile("\n".join(src), "<ir-trace>", "exec"), ns)
    return ns[name]


def _expr(res: tuple, em: _Emit) -> str:
    """Resolved operand -> expression string usable inside a closure body."""
    kind, payload = res
    if kind == "s":
        return f"env[{payload}]"
    if kind == "c":
        if isinstance(payload, bool):
            return repr(int(payload))
        if isinstance(payload, int):
            return repr(payload)
        if isinstance(payload, float) and payload == payload \
                and payload not in (float("inf"), float("-inf")):
            return repr(payload)
        return em.bind(payload)
    if kind == "g":
        return f"_gaddr({em.bind(payload)})"
    return f"_use_err({em.bind(payload)})"


def _getter(res: tuple):
    """Resolved operand -> standalone closure (for non-exec op paths)."""
    kind, payload = res
    if kind == "s":
        def get(rt, env, _s=payload):
            return env[_s]
    elif kind == "c":
        def get(rt, env, _c=payload):
            return _c
    elif kind == "g":
        def get(rt, env, _g=payload):
            return _global_addr(_g)
    else:
        def get(rt, env, _m=payload):
            raise IRInterpError(_m)
    return get


class _Compiler:
    """Trace compiler for one function version: the slot map and the block
    skeleton up front, a block's code the first time a run enters it.

    It lives as long as its trace, which ``_TRACES`` holds *by* the
    function: it may keep ids, indices and names, never the function, a
    block or an instruction (a cache value that reaches its weak key is
    immortal), so the function is a ``weakref`` and a block is its index.
    """

    def __init__(self, func: Function, version: int) -> None:
        self.fref = weakref.ref(func)
        self.fname = func.name
        self.version = version
        self.slots: dict[int, int] = {}
        # slots are id()-keyed, and ids are only unique among live objects:
        # the function holds its instructions alive while the version
        # stands, and compile_block refuses to run once it has moved
        for i, arg in enumerate(func.args):
            self.slots[id(arg)] = i
        for blk in func.blocks:
            for ins in blk.instructions:
                if id(ins) not in self.slots:
                    self.slots[id(ins)] = len(self.slots)
        self.bts = [_BlockTrace(i, b.name) for i, b in enumerate(func.blocks)]
        self.bindex = {id(b): i for i, b in enumerate(func.blocks)}

    def slot(self, v: Value) -> int:
        return self.slots[id(v)]

    def resolve(self, v: Value) -> tuple:
        if isinstance(v, Constant):
            return ("c", v.value)
        if isinstance(v, ConstantFP):
            return ("c", v.value)
        if isinstance(v, ConstantVector):
            elems = [self.resolve(e) for e in v.elements]
            if all(k == "c" for k, _ in elems):
                return ("c", tuple(p for _, p in elems))
            return ("x", "constant vector with a non-constant element")
        if isinstance(v, Undef):
            return ("c", _zero_of(v.type))
        if isinstance(v, GlobalVariable):
            return ("g", v)
        if isinstance(v, Function):
            return ("x", "function pointers are not interpretable")
        s = self.slots.get(id(v))
        if s is None:
            return ("x", f"use of unevaluated value %{v.name}")
        return ("s", s)

    # -- per-instruction statement emission ---------------------------------

    def stmt_lines(self, ins: I.Instruction, em: _Emit) -> list[str] | None:
        """Statement form of ``ins`` (None -> needs a standalone closure)."""
        d = self.slot(ins)
        ops = ins.operands
        xs = [_expr(self.resolve(o), em) for o in ops]
        value: str | None = None
        if isinstance(ins, I.BinOp):
            value = S.binop_expr(ins.opcode, ins.type, *xs)
        elif isinstance(ins, I.ICmp):
            value = f"1 if {S.icmp_expr(ins.pred, ops[0].type, *xs)} else 0"
        elif isinstance(ins, I.FCmp):
            value = f"1 if {S.fcmp_expr(ins.pred, *xs)} else 0"
        elif isinstance(ins, I.Select):
            value = f"{xs[1]} if {xs[0]} else {xs[2]}"
        elif isinstance(ins, I.Cast):
            value = S.cast_expr(ins.opcode, ops[0].type, ins.type, xs[0],
                                em.bind)
        elif isinstance(ins, I.Load):
            value = S.read_expr(ins.type, xs[0])
            em.needs_mem |= value is not None
        elif isinstance(ins, I.Store):
            wr = S.write_stmt(ops[0].type, xs[1], xs[0])
            if wr is None:
                return None  # vector
            em.needs_mem = True
            return [wr, f"env[{d}] = None"]
        elif isinstance(ins, I.GEP):
            it = ops[1].type
            bits = it.bits if isinstance(it, IntType) else 64
            es = ins.elem.size_bytes()
            if isinstance(ops[1], Constant):
                off = to_signed(ops[1].value, bits) * es
                value = f"({xs[0]} + {off}) & {_M64}"
            else:
                value = f"({xs[0]} + _sgn({xs[1]}, {bits}) * {es}) & {_M64}"
        elif isinstance(ins, I.Alloca):
            am = ~(ins.align - 1)
            return [f"_sp = (rt.sp - {ins.size}) & {am}",
                    "rt.sp = _sp",
                    f"env[{d}] = _sp"]
        elif isinstance(ins, I.ExtractElement):
            value = f"{xs[0]}[int({xs[1]})]"
        elif isinstance(ins, I.InsertElement):
            t = em.temp()
            return [f"{t} = list({xs[0]})",
                    f"{t}[int({xs[2]})] = {xs[1]}",
                    f"env[{d}] = tuple({t})"]
        elif isinstance(ins, I.ShuffleVector):
            t = em.temp()
            return [f"{t} = tuple({xs[0]}) + tuple({xs[1]})",
                    f"env[{d}] = tuple({t}[_m] for _m in {tuple(ins.mask)!r})"]
        elif isinstance(ins, I.Call) and ins.intrinsic and xs:
            value = S.intrinsic_expr(ins.callee_name, xs[0])
        return None if value is None else [f"env[{d}] = {value}"]

    # -- closure fallbacks ---------------------------------------------------

    def closure_for(self, ins: I.Instruction):
        """Standalone op closure for instructions with no statement form:
        vector arithmetic and memory ops, and calls."""
        d = self.slot(ins)
        gs = tuple(_getter(self.resolve(o)) for o in ins.operands)
        if isinstance(ins, I.BinOp) and isinstance(ins.type, VectorType):
            lane = S.binop_fn(ins.opcode, ins.type.elem)
            ga, gb = gs

            def op(rt, env):
                env[d] = tuple(map(lane, ga(rt, env), gb(rt, env)))
            return op
        if isinstance(ins, I.Load):
            load, (gp,) = S.load_fn(ins.type), gs

            def op(rt, env):
                env[d] = load(rt.mem, int(gp(rt, env)))
            return op
        if isinstance(ins, I.Store):
            store, (gv, gp) = S.store_fn(ins.operands[0].type), gs

            def op(rt, env):
                env[d] = None
                store(rt.mem, int(gp(rt, env)), gv(rt, env))
            return op
        if isinstance(ins, I.Call):
            return self._call_closure(ins, d, gs)
        # a phi below the leading run, or an opcode nobody defined
        opcode = ins.opcode

        def op(rt, env):
            raise IRInterpError(f"cannot interpret {opcode}")
        return op

    def _call_closure(self, ins: I.Call, d: int, gs: tuple):
        if ins.intrinsic:
            name = ins.callee_name

            def op(rt, env):
                env[d] = S.intrinsic_fn(name)(*[g(rt, env) for g in gs])
            return op
        callee = ins.callee
        if isinstance(callee, str):  # defensive; Call marks str as intrinsic
            cname = callee

            def op(rt, env):
                target = rt.interp.module.function(cname)
                env[d] = _dispatch_call(rt, target,
                                        [g(rt, env) for g in gs])
            return op
        cref = weakref.ref(callee)

        def op(rt, env):
            target = cref()
            if target is None:
                raise IRInterpError("callee function was collected")
            env[d] = _dispatch_call(rt, target, [g(rt, env) for g in gs])
        return op

    # -- block / function assembly ------------------------------------------

    def compile_block(self, bt: _BlockTrace) -> None:
        """Fill in ``bt`` from its block.  Two threads entering one cold
        block both compile it (same result); every field is assigned
        before ``pending`` clears, so a third sees the block whole."""
        func = self.fref()
        if func is None or func.version != self.version:
            raise IRInterpError(
                f"@{self.fname}: function changed under its running trace")
        blk = func.blocks[bt.bid]
        phis = blk.phis()
        body = blk.instructions[len(phis):]
        phi_moves = self._compile_phi_moves(func, blk, phis) if phis else None

        # find the terminator: execution stops at the first one (trailing
        # instructions after it are unreachable)
        term = None
        term_at = len(body)
        for j, ins in enumerate(body):
            if ins.opcode in ("ret", "br", "unreachable"):
                term = ins
                term_at = j
                break
        run = body[:term_at]

        # cmp+br superinstruction: the compare feeding a conditional branch
        # computes inside the terminator closure (its slot is still written
        # for any other use)
        fused_cmp: I.Instruction | None = None
        if isinstance(term, I.Br) and term.is_conditional and run:
            last = run[-1]
            if isinstance(last, (I.ICmp, I.FCmp)) \
                    and term.operands[0] is last:
                fused_cmp = last
                run = run[:-1]
                _FUSE_CMP_BR.value += 1

        ops = tuple(self._pack_ops(run))
        tkind, tp, terr = self._compile_terminator(term, fused_cmp, bt.bname)
        bt.phi_moves = phi_moves
        bt.n_steps = term_at + (1 if term is not None else 0)
        bt.ops = ops
        bt.tkind, bt.tp, bt.terr = tkind, tp, terr
        bt.pending = False
        _TRACE_BLOCKS_COMPILED.value += 1

    def _pack_ops(self, run: list[I.Instruction]) -> list:
        """Merge consecutive statement-form instructions into single
        exec-compiled closures (the superinstruction fast path)."""
        ops: list = []
        em = _Emit()

        def flush() -> None:
            nonlocal em
            if em.lines:
                ops.append(_exec_fn("_op", em.lines, em.binds, em.needs_mem))
            em = _Emit()

        prev_ins: I.Instruction | None = None
        prev_stmt = False
        for ins in run:
            lines = self.stmt_lines(ins, em)
            if lines is None:
                flush()
                ops.append(self.closure_for(ins))
                prev_ins, prev_stmt = ins, False
                continue
            em.lines.extend(lines)
            em.count += 1
            if prev_stmt and prev_ins is not None:
                if isinstance(prev_ins, I.GEP) and isinstance(ins, I.Load) \
                        and ins.operands[0] is prev_ins:
                    _FUSE_GEP_LOAD.value += 1
                elif isinstance(prev_ins, I.BinOp) and isinstance(ins, I.Store) \
                        and ins.operands[0] is prev_ins:
                    _FUSE_BINOP_STORE.value += 1
            prev_ins, prev_stmt = ins, True
            if em.count >= _MAX_RUN:
                flush()
        flush()
        return ops

    def _compile_terminator(self, term, fused_cmp, bname: str) -> tuple:
        """``(tkind, tp, terr)`` of a block ending in ``term``."""
        fname, bts, bindex = self.fname, self.bts, self.bindex
        if term is None:
            return 4, None, f"@{fname}: block {bname} fell through"
        if term.opcode == "unreachable":
            return 4, None, f"@{fname}: reached unreachable"
        if term.opcode == "ret":
            rv = term.value
            return 0, None if rv is None else _getter(self.resolve(rv)), None
        # branch
        assert isinstance(term, I.Br)
        if not term.is_conditional:
            return 1, bts[bindex[id(term.targets[0])]], None
        tb = bts[bindex[id(term.targets[0])]]
        fb = bts[bindex[id(term.targets[1])]]
        if fused_cmp is not None:
            em = _Emit()
            lines = self.stmt_lines(fused_cmp, em)
            assert lines is not None
            lines = list(lines)
            lines.append(f"return env[{self.slot(fused_cmp)}]")
            cond = _exec_fn("_cond", lines, em.binds, em.needs_mem)
        else:
            cond = _getter(self.resolve(term.operands[0]))
        return 2, (cond, tb, fb), None

    def _compile_phi_moves(self, func: Function, blk: BasicBlock,
                           phis: list[I.Phi]) -> dict:
        fname, bindex = self.fname, self.bindex
        moves: dict[int, object] = {}
        preds = [b for b in func.blocks if blk in b.successors()]
        for pred in preds:
            pairs: list[tuple[int, tuple]] = []
            raise_msg: str | None = None
            for phi in phis:
                v = phi.incoming_for(pred)
                if v is None:
                    raise_msg = (f"@{fname}: phi %{phi.name} missing incoming "
                                 f"for {pred.name}")
                    break
                pairs.append((self.slot(phi), self.resolve(v)))
            pid = bindex[id(pred)]
            if raise_msg is not None:
                def mv(rt, env, _m=raise_msg):
                    raise IRInterpError(_m)
                moves[pid] = mv
                continue
            moves[pid] = self._phi_move_closure(pairs)
        return moves

    def _phi_move_closure(self, pairs: list[tuple[int, tuple]]):
        if all(res[0] in ("s", "c") for _, res in pairs):
            em = _Emit()
            reads: list[tuple[int, str]] = []
            for dst, res in pairs:
                if res[0] == "s":
                    t = em.temp()
                    em.lines.append(f"{t} = env[{res[1]}]")
                    reads.append((dst, t))
                else:
                    reads.append((dst, _expr(res, em)))
            # all reads above happen before any write below: phis evaluate
            # atomically against the taken edge
            for dst, src in reads:
                em.lines.append(f"env[{dst}] = {src}")
            return _exec_fn("_mv", em.lines, em.binds, False)
        gps = tuple((dst, _getter(res)) for dst, res in pairs)

        def mv(rt, env):
            vals = [g(rt, env) for _, g in gps]
            for (dst, _), v in zip(gps, vals):
                env[dst] = v
        return mv


def _dispatch_call(rt: _Frame, target: Function, args: list) -> object:
    interp = rt.interp
    if target.is_declaration:
        ext = interp.extern_functions.get(target.name)
        if ext is None:
            raise IRInterpError(f"call to undefined @{target.name}")
        return ext(*args)
    return interp._run_function(target, args, rt.sp - 64)


def _compile_trace(func: Function, version: int) -> _FuncTrace:
    """What a trace holds before its first run: ids and counts, and no
    compiled block."""
    if not func.blocks:
        from repro.errors import IRError
        raise IRError(f"function {func.name} has no blocks")
    comp = _Compiler(func, version)
    ft = _FuncTrace()
    ft.name = func.name
    ft.compiler = comp
    ft.entry = comp.bts[0]
    ft.nslots = len(comp.slots)
    ft.nargs = len(func.args)
    ft.arg_types = tuple(a.type for a in func.args)
    ft.version = version
    ft.nblocks = len(func.blocks)
    ft.ninstrs = _instr_count(func)
    _TRACE_BLOCKS_TOTAL.value += ft.nblocks
    return ft
