"""MiniLLVM IR interpreter.

Executes IR functions against the same simulated :class:`~repro.mem.memory.
Memory` the x86 simulator uses, which enables the project's strongest
correctness check: *lifted IR interpreted over the image must compute the
same result as the original machine code simulated over the image*.

Value representation: iN -> unsigned-masked int, double/float -> Python
float, pointer -> int address, vector -> tuple of elements, undef -> zeros.

Each function is compiled once into a *decoded trace*: per block,
straight-line instruction runs become a handful of exec-specialized
closures over a flat slot-indexed environment, with operand slots,
constants, masks and helpers resolved at compile time.  Adjacent
instructions fuse into one closure body (superinstructions: the whole run
is a single bytecode object, and ``cmp+br`` fuses into the block
terminator), phi webs become precompiled parallel-move closures per CFG
edge, and the trace is cached per ``(function, Function.version)`` in a
process-global weak map so every interpreter — validator probes, the
differential corpus, the guard gate — shares one compilation.  A mutated
function (pass rewrite, validator rollback) bumps its version and the
stale trace is recompiled, never executed (see DESIGN §14).  The
instruction semantics are pinned value for value by
``tests/ir/test_interp_semantics.py``.
"""

from __future__ import annotations

import struct
import threading
import weakref

from repro.errors import IRInterpError
from repro.ir import instructions as I
from repro.ir.irtypes import (
    DoubleType, FloatType, IntType, PointerType, Type, VectorType,
)
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module
from repro.ir.values import Argument, Constant, ConstantFP, ConstantVector, Undef, Value
from repro.mem.memory import Memory
from repro.obs import metrics as _metrics
from repro.x86.isa import float_to_sint


def _to_signed(v: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (v & (sign - 1)) - (v & sign)


def _trunc_div(n: int, d: int) -> int:
    """Exact C-style truncating division (``int(n / d)`` rounds through a
    float and is wrong for 64-bit magnitudes)."""
    q = abs(n) // abs(d)
    return -q if (n < 0) != (d < 0) else q


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


def _f32(v: float) -> float:
    return struct.unpack("<f", struct.pack("<f", v))[0]


# -- scalar semantics ---------------------------------------------------------


def _fdiv_val(x: float, y: float) -> float:
    """IEEE division with x86-matching zero/NaN handling."""
    if y == 0.0:
        if x == 0.0 or x != x:
            return float("nan")
        return float("inf") if (x > 0) == (not _signbit(y)) else float("-inf")
    return x / y


def _sdiv_val(a: int, b: int, bits: int, mask: int) -> int:
    d = _to_signed(b, bits)
    if d == 0:
        raise IRInterpError("sdiv by zero")
    return _trunc_div(_to_signed(a, bits), d) & mask


def _srem_val(a: int, b: int, bits: int, mask: int) -> int:
    d = _to_signed(b, bits)
    if d == 0:
        raise IRInterpError("srem by zero")
    n = _to_signed(a, bits)
    return (n - _trunc_div(n, d) * d) & mask


def _udiv_val(a: int, b: int) -> int:
    if b == 0:
        raise IRInterpError("udiv by zero")
    return a // b


def _urem_val(a: int, b: int) -> int:
    if b == 0:
        raise IRInterpError("urem by zero")
    return a % b


def _sqrt_val(x: float) -> float:
    x = float(x)
    return x ** 0.5 if x >= 0 else float("nan")


def _scalar_binop(opcode: str, a: object, b: object, t: Type) -> object:
    if opcode in I.FP_BINOPS:
        x, y = float(a), float(b)  # type: ignore[arg-type]
        if opcode == "fadd":
            r = x + y
        elif opcode == "fsub":
            r = x - y
        elif opcode == "fmul":
            r = x * y
        else:
            r = _fdiv_val(x, y)
        return _f32(r) if isinstance(t, FloatType) else r
    assert isinstance(t, IntType)
    ai, bi = int(a) & t.mask, int(b) & t.mask  # type: ignore[arg-type]
    bits = t.bits
    if opcode == "add":
        return (ai + bi) & t.mask
    if opcode == "sub":
        return (ai - bi) & t.mask
    if opcode == "mul":
        return (ai * bi) & t.mask
    if opcode == "and":
        return ai & bi
    if opcode == "or":
        return ai | bi
    if opcode == "xor":
        return ai ^ bi
    if opcode == "shl":
        return (ai << (bi % bits)) & t.mask
    if opcode == "lshr":
        return ai >> (bi % bits)
    if opcode == "ashr":
        return (_to_signed(ai, bits) >> (bi % bits)) & t.mask
    if opcode == "sdiv":
        return _sdiv_val(ai, bi, bits, t.mask)
    if opcode == "srem":
        return _srem_val(ai, bi, bits, t.mask)
    if opcode == "udiv":
        return _udiv_val(ai, bi)
    if opcode == "urem":
        return _urem_val(ai, bi)
    raise IRInterpError(f"binop {opcode}")


def _load_value(mem: Memory, t: Type, addr: int) -> object:
    if isinstance(t, IntType):
        if t.bits == 1:
            return mem.read_u8(addr) & 1
        return mem.read_uint(addr, t.size_bytes())
    if isinstance(t, DoubleType):
        return mem.read_f64(addr)
    if isinstance(t, FloatType):
        return mem.read_f32(addr)
    if isinstance(t, PointerType):
        return mem.read_u64(addr)
    if isinstance(t, VectorType):
        es = t.elem.size_bytes()
        return tuple(_load_value(mem, t.elem, addr + i * es) for i in range(t.count))
    raise IRInterpError(f"cannot load {t}")


def _store_value(mem: Memory, t: Type, addr: int, value: object) -> None:
    if isinstance(t, IntType):
        mem.write_uint(addr, int(value), t.size_bytes())  # type: ignore[arg-type]
    elif isinstance(t, DoubleType):
        mem.write_f64(addr, float(value))  # type: ignore[arg-type]
    elif isinstance(t, FloatType):
        mem.write_f32(addr, float(value))  # type: ignore[arg-type]
    elif isinstance(t, PointerType):
        mem.write_u64(addr, int(value))  # type: ignore[arg-type]
    elif isinstance(t, VectorType):
        es = t.elem.size_bytes()
        for i, x in enumerate(value):  # type: ignore[arg-type]
            _store_value(mem, t.elem, addr + i * es, x)
    else:
        raise IRInterpError(f"cannot store {t}")


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

    def _intrinsic(self, name: str, args: list[object], ins: I.Call) -> object:
        if name.startswith("llvm.ctpop"):
            return bin(int(args[0])).count("1")  # type: ignore[arg-type]
        if name.startswith("llvm.sqrt"):
            return _sqrt_val(args[0])  # type: ignore[arg-type]
        if name.startswith("llvm.fabs"):
            return abs(float(args[0]))  # type: ignore[arg-type]
        raise IRInterpError(f"unknown intrinsic {name}")


def _signbit(v: float) -> bool:
    return struct.pack("<d", v)[7] & 0x80 != 0


def _icmp(pred: str, a: int, b: int, bits: int) -> bool:
    if pred == "eq":
        return a == b
    if pred == "ne":
        return a != b
    if pred in ("ult", "ule", "ugt", "uge"):
        return {"ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b}[pred]
    sa, sb = _to_signed(a, bits), _to_signed(b, bits)
    return {"slt": sa < sb, "sle": sa <= sb, "sgt": sa > sb, "sge": sa >= sb}[pred]


def _fcmp(pred: str, a: float, b: float) -> bool:
    unordered = (a != a) or (b != b)
    if pred == "ord":
        return not unordered
    if pred == "uno":
        return unordered
    if pred.startswith("o"):
        if unordered:
            return False
        core = pred[1:]
    else:
        if unordered:
            return True
        core = pred[1:]
    return {"eq": a == b, "ne": a != b, "lt": a < b,
            "le": a <= b, "gt": a > b, "ge": a >= b}[core]


def _bitcast(v: object, src: Type, dst: Type) -> object:
    raw = _to_bytes(v, src)
    return _from_bytes(raw, dst)


def _to_bytes(v: object, t: Type) -> bytes:
    if isinstance(t, IntType):
        return int(v).to_bytes(t.size_bytes(), "little")  # type: ignore[arg-type]
    if isinstance(t, DoubleType):
        return struct.pack("<d", float(v))  # type: ignore[arg-type]
    if isinstance(t, FloatType):
        return struct.pack("<f", float(v))  # type: ignore[arg-type]
    if isinstance(t, PointerType):
        return int(v).to_bytes(8, "little")  # type: ignore[arg-type]
    if isinstance(t, VectorType):
        return b"".join(_to_bytes(x, t.elem) for x in v)  # type: ignore[union-attr]
    raise IRInterpError(f"bitcast from {t}")


def _from_bytes(raw: bytes, t: Type) -> object:
    if isinstance(t, IntType):
        return int.from_bytes(raw[: t.size_bytes()], "little")
    if isinstance(t, DoubleType):
        return struct.unpack("<d", raw[:8])[0]
    if isinstance(t, FloatType):
        return struct.unpack("<f", raw[:4])[0]
    if isinstance(t, PointerType):
        return int.from_bytes(raw[:8], "little")
    if isinstance(t, VectorType):
        es = t.elem.size_bytes()
        return tuple(
            _from_bytes(raw[i * es: (i + 1) * es], t.elem) for i in range(t.count)
        )
    raise IRInterpError(f"bitcast to {t}")


# ===========================================================================
# Threaded-dispatch trace compiler
# ===========================================================================

_M64 = (1 << 64) - 1

_TRACE_HITS = _metrics.counter("interp.trace.hits")
_TRACE_COMPILES = _metrics.counter("interp.trace.compiles")
_TRACE_INVALIDATIONS = _metrics.counter("interp.trace.invalidations")
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
    __slots__ = ("bid", "bname", "n_steps", "ops", "phi_moves",
                 "tkind", "tp", "terr")

    def __init__(self) -> None:
        self.bid = -1
        self.bname = ""
        self.n_steps = 0
        self.ops: tuple = ()
        self.phi_moves: dict | None = None
        self.tkind = 4
        self.tp: object = None
        self.terr: str | None = None


class _FuncTrace:
    __slots__ = ("name", "entry", "nslots", "nargs", "arg_types",
                 "version", "nblocks", "ninstrs")


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
        if ft.version == ver and ft.nblocks == len(func.blocks) \
                and ft.ninstrs == _instr_count(func):
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
    if ft is None:
        return True
    return (ft.version == func.version and ft.nblocks == len(func.blocks)
            and ft.ninstrs == _instr_count(func))


def trace_cache_stats() -> dict[str, int]:
    with _TRACES_LOCK:
        size = len(_TRACES)
    return {
        "size": size,
        "hits": _TRACE_HITS.value,
        "compiles": _TRACE_COMPILES.value,
        "invalidations": _TRACE_INVALIDATIONS.value,
        "fused_cmp_br": _FUSE_CMP_BR.value,
        "fused_gep_load": _FUSE_GEP_LOAD.value,
        "fused_binop_store": _FUSE_BINOP_STORE.value,
    }


def _instr_count(func: Function) -> int:
    n = 0
    for b in func.blocks:
        n += len(b.instructions)
    return n


#: helpers visible as globals inside every exec-compiled closure
_EXEC_NS = {
    "IRInterpError": IRInterpError,
    "_sgn": _to_signed,
    "_f32": _f32,
    "_fdiv": _fdiv_val,
    "_sdiv": _sdiv_val,
    "_srem": _srem_val,
    "_udiv": _udiv_val,
    "_urem": _urem_val,
    "_sqrt": _sqrt_val,
    "_f2si": float_to_sint,
    "_fcmp": _fcmp,
    "_icmp": _icmp,
    "_bitcast": _bitcast,
    "_gaddr": _global_addr,
    "_use_err": _use_err,
}


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


_INT_EXPR = {
    "add": "({a} + {b}) & {m}",
    "sub": "({a} - {b}) & {m}",
    "mul": "({a} * {b}) & {m}",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "({a} << ({b} % {bits})) & {m}",
    "lshr": "{a} >> ({b} % {bits})",
    "ashr": "(_sgn({a}, {bits}) >> ({b} % {bits})) & {m}",
    "sdiv": "_sdiv({a}, {b}, {bits}, {m})",
    "srem": "_srem({a}, {b}, {bits}, {m})",
    "udiv": "_udiv({a}, {b})",
    "urem": "_urem({a}, {b})",
}

_FP_EXPR = {
    "fadd": "{a} + {b}",
    "fsub": "{a} - {b}",
    "fmul": "{a} * {b}",
    "fdiv": "_fdiv({a}, {b})",
}

_SIGNED_ICMP = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_UNSIGNED_ICMP = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
                  "ugt": ">", "uge": ">="}


class _Compiler:
    """One-shot trace compiler for a single function version."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.fname = func.name
        self.slots: dict[int, int] = {}
        # pin operand identity: slots are id()-keyed, and the trace must
        # not outlive id reuse — the function holds its instructions alive,
        # and the trace is dropped whenever the version moves
        for i, arg in enumerate(func.args):
            self.slots[id(arg)] = i
        for blk in func.blocks:
            for ins in blk.instructions:
                if id(ins) not in self.slots:
                    self.slots[id(ins)] = len(self.slots)

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
            gs = tuple(_getter(e) for e in elems)

            def composite(rt, env, _gs=gs):
                return tuple(g(rt, env) for g in _gs)
            # represent as an exotic operand: closure-only
            return ("fn", composite)
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
        R = self.resolve
        if isinstance(ins, I.BinOp):
            t = ins.type
            ra, rb = R(ins.operands[0]), R(ins.operands[1])
            if ra[0] == "fn" or rb[0] == "fn":
                return None
            d = self.slot(ins)
            if isinstance(t, IntType):
                ex = _INT_EXPR[ins.opcode].format(
                    a=_expr(ra, em), b=_expr(rb, em), m=t.mask, bits=t.bits)
                return [f"env[{d}] = {ex}"]
            if isinstance(t, (DoubleType, FloatType)):
                ex = _FP_EXPR[ins.opcode].format(a=_expr(ra, em), b=_expr(rb, em))
                if isinstance(t, FloatType):
                    ex = f"_f32({ex})"
                return [f"env[{d}] = {ex}"]
            return None  # vector
        if isinstance(ins, I.ICmp):
            t = ins.operands[0].type
            ra, rb = R(ins.operands[0]), R(ins.operands[1])
            if ra[0] == "fn" or rb[0] == "fn":
                return None
            d = self.slot(ins)
            a, b = _expr(ra, em), _expr(rb, em)
            if isinstance(t, IntType) or isinstance(t, PointerType):
                bits = t.bits if isinstance(t, IntType) else 64
                if ins.pred in _SIGNED_ICMP:
                    op = _SIGNED_ICMP[ins.pred]
                    return [f"env[{d}] = 1 if _sgn({a}, {bits}) {op} "
                            f"_sgn({b}, {bits}) else 0"]
                op = _UNSIGNED_ICMP[ins.pred]
                return [f"env[{d}] = 1 if {a} {op} {b} else 0"]
            bits = 64
            return [f"env[{d}] = 1 if _icmp({ins.pred!r}, {a}, {b}, {bits}) "
                    f"else 0"]
        if isinstance(ins, I.FCmp):
            ra, rb = R(ins.operands[0]), R(ins.operands[1])
            if ra[0] == "fn" or rb[0] == "fn":
                return None
            d = self.slot(ins)
            return [f"env[{d}] = 1 if _fcmp({ins.pred!r}, {_expr(ra, em)}, "
                    f"{_expr(rb, em)}) else 0"]
        if isinstance(ins, I.Select):
            rc, ra, rb = (R(o) for o in ins.operands)
            if "fn" in (rc[0], ra[0], rb[0]):
                return None
            d = self.slot(ins)
            return [f"env[{d}] = {_expr(ra, em)} if {_expr(rc, em)} "
                    f"else {_expr(rb, em)}"]
        if isinstance(ins, I.Cast):
            return self._cast_lines(ins, em)
        if isinstance(ins, I.Load):
            rp = R(ins.operands[0])
            if rp[0] == "fn":
                return None
            d = self.slot(ins)
            a = _expr(rp, em)
            rd = self._read_expr(ins.type, a, em)
            if rd is None:
                return None
            em.needs_mem = True
            return [f"env[{d}] = {rd}"]
        if isinstance(ins, I.Store):
            rv, rp = R(ins.operands[0]), R(ins.operands[1])
            if rv[0] == "fn" or rp[0] == "fn":
                return None
            t = ins.operands[0].type
            a, v = _expr(rp, em), _expr(rv, em)
            wr = self._write_stmt(t, a, v)
            if wr is None:
                return None
            em.needs_mem = True
            d = self.slot(ins)
            return [wr, f"env[{d}] = None"]
        if isinstance(ins, I.GEP):
            rb, ri = R(ins.operands[0]), R(ins.operands[1])
            if rb[0] == "fn" or ri[0] == "fn":
                return None
            d = self.slot(ins)
            it = ins.operands[1].type
            bits = it.bits if isinstance(it, IntType) else 64
            es = ins.elem.size_bytes()
            base = _expr(rb, em)
            if ri[0] == "c":
                off = _to_signed(int(ri[1]), bits) * es
                return [f"env[{d}] = ({base} + {off}) & {_M64}"]
            idx = _expr(ri, em)
            return [f"env[{d}] = ({base} + _sgn({idx}, {bits}) * {es}) "
                    f"& {_M64}"]
        if isinstance(ins, I.Alloca):
            d = self.slot(ins)
            am = ~(ins.align - 1)
            return [f"_sp = (rt.sp - {ins.size}) & {am}",
                    "rt.sp = _sp",
                    f"env[{d}] = _sp"]
        if isinstance(ins, I.ExtractElement):
            rv, ri = R(ins.operands[0]), R(ins.operands[1])
            if rv[0] == "fn" or ri[0] == "fn":
                return None
            d = self.slot(ins)
            return [f"env[{d}] = {_expr(rv, em)}[int({_expr(ri, em)})]"]
        if isinstance(ins, I.InsertElement):
            rv, rx, ri = (R(o) for o in ins.operands)
            if "fn" in (rv[0], rx[0], ri[0]):
                return None
            d = self.slot(ins)
            t = em.temp()
            return [f"{t} = list({_expr(rv, em)})",
                    f"{t}[int({_expr(ri, em)})] = {_expr(rx, em)}",
                    f"env[{d}] = tuple({t})"]
        if isinstance(ins, I.ShuffleVector):
            ra, rb = R(ins.operands[0]), R(ins.operands[1])
            if ra[0] == "fn" or rb[0] == "fn":
                return None
            d = self.slot(ins)
            t = em.temp()
            return [f"{t} = tuple({_expr(ra, em)}) + tuple({_expr(rb, em)})",
                    f"env[{d}] = tuple({t}[_m] for _m in {tuple(ins.mask)!r})"]
        if isinstance(ins, I.Call) and ins.intrinsic:
            name = ins.callee_name
            if ins.operands and name.startswith(
                    ("llvm.ctpop", "llvm.sqrt", "llvm.fabs")):
                r0 = R(ins.operands[0])
                if r0[0] != "fn":
                    d = self.slot(ins)
                    a = _expr(r0, em)
                    if name.startswith("llvm.ctpop"):
                        return [f"env[{d}] = bin(int({a})).count(\"1\")"]
                    if name.startswith("llvm.sqrt"):
                        return [f"env[{d}] = _sqrt({a})"]
                    return [f"env[{d}] = abs(float({a}))"]
            return None
        return None

    def _read_expr(self, t: Type, addr: str, em: _Emit) -> str | None:
        if isinstance(t, IntType):
            if t.bits == 1:
                return f"_mem.read_u8({addr}) & 1"
            return f"_mem.read_uint({addr}, {t.size_bytes()})"
        if isinstance(t, DoubleType):
            return f"_mem.read_f64({addr})"
        if isinstance(t, FloatType):
            return f"_mem.read_f32({addr})"
        if isinstance(t, PointerType):
            return f"_mem.read_u64({addr})"
        return None  # vector loads go through the closure path

    def _write_stmt(self, t: Type, addr: str, val: str) -> str | None:
        if isinstance(t, IntType):
            return f"_mem.write_uint({addr}, int({val}), {t.size_bytes()})"
        if isinstance(t, DoubleType):
            return f"_mem.write_f64({addr}, {val})"
        if isinstance(t, FloatType):
            return f"_mem.write_f32({addr}, {val})"
        if isinstance(t, PointerType):
            return f"_mem.write_u64({addr}, int({val}))"
        return None

    def _cast_lines(self, ins: I.Cast, em: _Emit) -> list[str] | None:
        r = self.resolve(ins.operands[0])
        if r[0] == "fn":
            return None
        d = self.slot(ins)
        src, dst = ins.operands[0].type, ins.type
        v = _expr(r, em)
        op = ins.opcode
        if op == "trunc":
            return [f"env[{d}] = {v} & {dst.mask}"]
        if op == "zext":
            return [f"env[{d}] = {v}"]
        if op == "sext":
            return [f"env[{d}] = _sgn({v}, {src.bits}) & {dst.mask}"]
        if op in ("inttoptr", "ptrtoint"):
            return [f"env[{d}] = {v} & {_M64}"]
        if op == "bitcast":
            ts, td = em.bind(src), em.bind(dst)
            return [f"env[{d}] = _bitcast({v}, {ts}, {td})"]
        if op == "sitofp":
            return [f"env[{d}] = float(_sgn({v}, {src.bits}))"]
        if op == "uitofp":
            return [f"env[{d}] = float({v})"]
        if op == "fptosi":
            return [f"env[{d}] = _f2si({v}, {dst.bits})"]
        if op == "fpext":
            return [f"env[{d}] = float({v})"]
        if op == "fptrunc":
            return [f"env[{d}] = _f32({v})"]
        return None

    # -- closure fallbacks ---------------------------------------------------

    def closure_for(self, ins: I.Instruction):
        """Standalone op closure for instructions with no statement form."""
        R = self.resolve
        if isinstance(ins, I.BinOp) and isinstance(ins.type, VectorType):
            d = self.slot(ins)
            ga, gb = _getter(R(ins.operands[0])), _getter(R(ins.operands[1]))
            opcode, elem = ins.opcode, ins.type.elem

            def op(rt, env):
                env[d] = tuple(
                    _scalar_binop(opcode, x, y, elem)
                    for x, y in zip(ga(rt, env), gb(rt, env)))
            return op
        if isinstance(ins, I.Load):
            d = self.slot(ins)
            gp = _getter(R(ins.operands[0]))
            t = ins.type

            def op(rt, env):
                env[d] = _load_value(rt.mem, t, int(gp(rt, env)))
            return op
        if isinstance(ins, I.Store):
            d = self.slot(ins)
            gv = _getter(R(ins.operands[0]))
            gp = _getter(R(ins.operands[1]))
            t = ins.operands[0].type

            def op(rt, env):
                env[d] = None
                _store_value(rt.mem, t, int(gp(rt, env)), gv(rt, env))
            return op
        if isinstance(ins, I.Call):
            return self._call_closure(ins)
        if isinstance(ins, I.Phi):
            # a phi below the leading run is not interpretable
            def op(rt, env):
                raise IRInterpError("cannot interpret phi")
            return op
        # anything else: generic evaluation through resolved getters where
        # possible, else a typed error
        gs = tuple(_getter(R(o)) for o in ins.operands)
        opcode = ins.opcode
        handled = isinstance(ins, (I.ICmp, I.FCmp, I.Select, I.Cast,
                                   I.ExtractElement, I.InsertElement,
                                   I.ShuffleVector, I.BinOp))
        if not handled:
            def op(rt, env):
                raise IRInterpError(f"cannot interpret {opcode}")
            return op
        d = self.slot(ins)
        if isinstance(ins, I.ICmp):
            t = ins.operands[0].type
            bits = t.bits if isinstance(t, IntType) else 64
            pred = ins.pred

            def op(rt, env):
                env[d] = int(_icmp(pred, gs[0](rt, env), gs[1](rt, env), bits))
            return op
        if isinstance(ins, I.FCmp):
            pred = ins.pred

            def op(rt, env):
                env[d] = int(_fcmp(pred, gs[0](rt, env), gs[1](rt, env)))
            return op
        if isinstance(ins, I.Select):
            def op(rt, env):
                env[d] = gs[1](rt, env) if gs[0](rt, env) else gs[2](rt, env)
            return op
        if isinstance(ins, I.Cast):
            src, dst, cop = ins.operands[0].type, ins.type, ins.opcode

            def op(rt, env):
                env[d] = _apply_cast(cop, gs[0](rt, env), src, dst)
            return op
        if isinstance(ins, I.ExtractElement):
            def op(rt, env):
                env[d] = gs[0](rt, env)[int(gs[1](rt, env))]
            return op
        if isinstance(ins, I.InsertElement):
            def op(rt, env):
                vec = list(gs[0](rt, env))
                vec[int(gs[2](rt, env))] = gs[1](rt, env)
                env[d] = tuple(vec)
            return op
        if isinstance(ins, I.ShuffleVector):
            mask = ins.mask

            def op(rt, env):
                joined = tuple(gs[0](rt, env)) + tuple(gs[1](rt, env))
                env[d] = tuple(joined[m] for m in mask)
            return op
        # vector binop with exotic operands
        opcode, elem = ins.opcode, ins.type.elem  # type: ignore[union-attr]

        def op(rt, env):
            env[d] = tuple(
                _scalar_binop(opcode, x, y, elem)
                for x, y in zip(gs[0](rt, env), gs[1](rt, env)))
        return op

    def _call_closure(self, ins: I.Call):
        d = self.slot(ins)
        gs = tuple(_getter(self.resolve(o)) for o in ins.operands)
        if ins.intrinsic:
            name = ins.callee_name

            def op(rt, env):
                args = [g(rt, env) for g in gs]
                env[d] = rt.interp._intrinsic(name, args, None)
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

    def compile(self, version: int) -> _FuncTrace:
        func = self.func
        bts = [_BlockTrace() for _ in func.blocks]
        bindex = {id(b): i for i, b in enumerate(func.blocks)}
        for i, (blk, bt) in enumerate(zip(func.blocks, bts)):
            bt.bid = i
            bt.bname = blk.name
            self._compile_block(blk, bt, bts, bindex)
        ft = _FuncTrace()
        ft.name = func.name
        ft.entry = bts[0] if bts else _raising_entry(func.name)
        ft.nslots = len(self.slots)
        ft.nargs = len(func.args)
        ft.arg_types = tuple(a.type for a in func.args)
        ft.version = version
        ft.nblocks = len(func.blocks)
        ft.ninstrs = _instr_count(func)
        return ft

    def _compile_block(self, blk: BasicBlock, bt: _BlockTrace,
                       bts: list[_BlockTrace], bindex: dict) -> None:
        phis = blk.phis()
        body = blk.instructions[len(phis):]
        if phis:
            bt.phi_moves = self._compile_phi_moves(blk, phis, bindex)

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
        bt.n_steps = term_at + (1 if term is not None else 0)

        # cmp+br superinstruction: the compare feeding a conditional branch
        # computes inside the terminator closure (its slot is still written
        # for any other use)
        fused_cmp: I.Instruction | None = None
        if isinstance(term, I.Br) and term.is_conditional and run:
            last = run[-1]
            if isinstance(last, (I.ICmp, I.FCmp)) \
                    and term.operands[0] is last:
                probe = _Emit()
                if self.stmt_lines(last, probe) is not None:
                    fused_cmp = last
                    run = run[:-1]
                    _FUSE_CMP_BR.value += 1

        bt.ops = tuple(self._pack_ops(run))
        self._compile_terminator(term, fused_cmp, bt, bts, bindex)

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

    def _compile_terminator(self, term, fused_cmp, bt: _BlockTrace,
                            bts: list, bindex: dict) -> None:
        fname = self.fname
        if term is None:
            bt.tkind = 4
            bt.terr = f"@{fname}: block {bt.bname} fell through"
            return
        if term.opcode == "unreachable":
            bt.tkind = 4
            bt.terr = f"@{fname}: reached unreachable"
            return
        if term.opcode == "ret":
            bt.tkind = 0
            rv = term.value
            bt.tp = None if rv is None else _getter(self.resolve(rv))
            return
        # branch
        assert isinstance(term, I.Br)
        if not term.is_conditional:
            bt.tkind = 1
            bt.tp = bts[bindex[id(term.targets[0])]]
            return
        bt.tkind = 2
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
        bt.tp = (cond, tb, fb)

    def _compile_phi_moves(self, blk: BasicBlock, phis: list[I.Phi],
                           bindex: dict) -> dict:
        func, fname = self.func, self.fname
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


def _apply_cast(op: str, v: object, src: Type, dst: Type) -> object:
    if op == "trunc":
        return int(v) & dst.mask  # type: ignore[union-attr, arg-type]
    if op == "zext":
        return int(v)  # type: ignore[arg-type]
    if op == "sext":
        return _to_signed(int(v), src.bits) & dst.mask  # type: ignore[union-attr, arg-type]
    if op in ("inttoptr", "ptrtoint"):
        return int(v) & _M64  # type: ignore[arg-type]
    if op == "bitcast":
        return _bitcast(v, src, dst)
    if op == "sitofp":
        return float(_to_signed(int(v), src.bits))  # type: ignore[union-attr, arg-type]
    if op == "uitofp":
        return float(int(v))  # type: ignore[arg-type]
    if op == "fptosi":
        return float_to_sint(float(v), dst.bits)  # type: ignore[union-attr, arg-type]
    if op == "fpext":
        return float(v)  # type: ignore[arg-type]
    if op == "fptrunc":
        return _f32(float(v))  # type: ignore[arg-type]
    raise IRInterpError(f"cast {op}")


def _dispatch_call(rt: _Frame, target: Function, args: list) -> object:
    interp = rt.interp
    if target.is_declaration:
        ext = interp.extern_functions.get(target.name)
        if ext is None:
            raise IRInterpError(f"call to undefined @{target.name}")
        return ext(*args)
    return interp._run_function(target, args, rt.sp - 64)


def _raising_entry(fname: str) -> _BlockTrace:
    bt = _BlockTrace()
    bt.tkind = 4
    bt.terr = f"function {fname} has no blocks"
    return bt


def _compile_trace(func: Function, version: int) -> _FuncTrace:
    if not func.blocks:
        from repro.errors import IRError
        raise IRError(f"function {func.name} has no blocks")
    return _Compiler(func).compile(version)
