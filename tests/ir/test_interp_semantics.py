"""The IR interpreter's instruction semantics, pinned as literal values.

``EXPECTED`` was produced by the tree-walking ``Interpreter._exec`` engine
(PR 9 kept it as the differential reference) at the last commit that had
it, one single-instruction function per row.  That engine is gone; its
knowledge is this table, which the trace-compiling interpreter has to
reproduce value for value and error string for error string.

Encoding: integers and ``None`` as themselves, floats as ``repr`` strings
(exact, and keeps ``-0.0``, ``nan`` and ``inf`` comparable), vectors as
lists, an ``IRInterpError`` as ``"err: <message>"``.  The out-of-range
``fptosi`` rows are not in the table: the old engine crashed on them (see
``test_fptosi_follows_x86_rule``).
"""

from __future__ import annotations

import pytest

from repro.errors import IRInterpError
from repro.ir import (
    DOUBLE, FLOAT, I1, I8, I16, I32, I64, I128, V2F64,
    Function, FunctionType, IRBuilder, Interpreter, Module, Undef, ptr,
)
from repro.ir.instructions import (
    FCMP_PREDS, FP_BINOPS, ICMP_PREDS, INT_BINOPS,
)
from repro.ir.irtypes import (
    V2I64, V4I32, DoubleType, FloatType, IntType, VectorType,
)
from repro.ir.passes.fold import try_fold
from repro.ir.values import Constant, ConstantFP, ConstantVector

NAN, INF = float("nan"), float("inf")
INTS = {8: I8, 32: I32, 64: I64}


def one(ret, params, body):
    """A module whose ``f`` is built by ``body(builder, f, module)``."""
    def build():
        m = Module("t")
        f = Function("f", FunctionType(ret, tuple(params)))
        m.add_function(f)
        body(IRBuilder(f.add_block("entry")), f, m)
        return m
    return build


def int_pairs(bits):
    top, full = 1 << (bits - 1), (1 << bits) - 1
    return [
        [3, 5], [full, 1], [top, full], [full - 6, 2], [full - 6, full - 1],
        [7, full - 1], [0x5A, 0], [0xC8 & full, bits], [1, bits + 1],
        [top, 1], [top + 1, bits - 1],
    ]


FP_PAIRS = [
    [1.5, 2.25], [0.1, 0.2], [1e308, 1e308], [-3.0, 7.0], [1.0, 3.0],
    [1.0, 0.0], [1.0, -0.0], [-1.0, 0.0], [-1.0, -0.0], [0.0, 0.0],
    [NAN, 0.0], [INF, 0.0], [INF, INF], [NAN, 1.0],
]
F32_PAIRS = [[1.5, 2.25], [0.1, 0.2], [1.0, 3.0], [1.0, 0.0], [-1.0, 0.0],
             [0.0, 0.0], [16777216.0, 1.0]]
CMP_FP = [[1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [NAN, 1.0], [1.0, NAN],
          [NAN, NAN], [0.0, -0.0], [-INF, INF]]

#: case id -> (module builder, list of argument lists)
CASES: dict[str, tuple] = {}


def case(cid, ret, params, body, inputs):
    assert cid not in CASES, cid
    CASES[cid] = (one(ret, params, body), inputs)


for _bits, _t in INTS.items():
    for _op in sorted(INT_BINOPS):
        case(f"{_op}.i{_bits}", _t, (_t, _t),
             lambda b, f, m, op=_op: b.ret(b.binop(op, *f.args)),
             int_pairs(_bits))
    for _pred in sorted(ICMP_PREDS):
        case(f"icmp.{_pred}.i{_bits}", I1, (_t, _t),
             lambda b, f, m, p=_pred: b.ret(b.icmp(p, *f.args)),
             int_pairs(_bits)[:6] + [[9, 9]])
for _op in sorted(FP_BINOPS):
    case(f"{_op}.double", DOUBLE, (DOUBLE, DOUBLE),
         lambda b, f, m, op=_op: b.ret(b.binop(op, *f.args)), FP_PAIRS)
    case(f"{_op}.float", FLOAT, (FLOAT, FLOAT),
         lambda b, f, m, op=_op: b.ret(b.binop(op, *f.args)), F32_PAIRS)
    case(f"{_op}.v2f64", V2F64, (V2F64, V2F64),
         lambda b, f, m, op=_op: b.ret(b.binop(op, *f.args)),
         [[(1.5, -2.0), (0.5, 4.0)], [(1.0, -1.0), (0.0, -0.0)]])
for _pred in sorted(FCMP_PREDS):
    case(f"fcmp.{_pred}", I1, (DOUBLE, DOUBLE),
         lambda b, f, m, p=_pred: b.ret(b.fcmp(p, *f.args)), CMP_FP)
for _pred in ("eq", "ult", "slt"):
    case(f"icmp.{_pred}.ptr", I1, (ptr(I8), ptr(I8)),
         lambda b, f, m, p=_pred: b.ret(b.icmp(p, *f.args)),
         [[0x1000, 0x1000], [0x1000, 0xFFFF_FFFF_FFFF_F000]])
for _op in ("add", "mul", "shl", "ashr", "sdiv", "urem"):
    case(f"{_op}.v4i32", V4I32, (V4I32, V4I32),
         lambda b, f, m, op=_op: b.ret(b.binop(op, *f.args)),
         [[(1, 0xFFFFFFFF, 0x80000000, 100), (2, 3, 31, 33)]])
case("sdiv.v2i64.zero", V2I64, (V2I64, V2I64),
     lambda b, f, m: b.ret(b.binop("sdiv", *f.args)), [[(1, 2), (1, 0)]])


def cast_case(op, src, dst, inputs):
    case(f"{op}.{src}.{dst}".replace(" ", ""), dst, (src,),
         lambda b, f, m: b.ret(b.cast(op, f.args[0], dst)), inputs)


cast_case("trunc", I64, I8, [[0x1234_5678_9ABC_DEF0], [0xFF], [0x100]])
cast_case("trunc", I64, I32, [[0x1234_5678_9ABC_DEF0], [1 << 32]])
cast_case("trunc", I32, I8, [[0xDEAD_BEEF]])
cast_case("trunc", I64, I1, [[2], [3]])
cast_case("zext", I8, I64, [[0xFF], [0x7F]])
cast_case("zext", I1, I64, [[1], [0]])
cast_case("zext", I32, I64, [[0xFFFF_FFFF]])
cast_case("sext", I8, I64, [[0xFF], [0x7F], [0x80]])
cast_case("sext", I8, I32, [[0x80]])
cast_case("sext", I32, I64, [[0x8000_0000], [0x7FFF_FFFF]])
cast_case("sext", I1, I64, [[1], [0]])
cast_case("sext", I16, I32, [[0x8001]])
cast_case("sitofp", I64, DOUBLE, [[0xFFFF_FFFF_FFFF_FFFF], [1 << 63], [7],
                                  [(1 << 53) + 1]])
cast_case("sitofp", I32, DOUBLE, [[0xFFFF_FFFE], [5]])
cast_case("sitofp", I64, FLOAT, [[0xFFFF_FFFF_FFFF_FFFD], [3]])
cast_case("uitofp", I64, DOUBLE, [[0xFFFF_FFFF_FFFF_FFFF], [1 << 63], [7]])
cast_case("uitofp", I32, DOUBLE, [[0xFFFF_FFFE]])
cast_case("fptosi", DOUBLE, I64, [[3.7], [-3.7], [0.0], [-0.0], [-0.5],
                                  [9.007199254740993e15], [-9.2e18]])
cast_case("fptosi", DOUBLE, I32, [[3.7], [-3.7], [2147483647.0],
                                  [-2147483648.0]])
cast_case("fptosi", FLOAT, I32, [[2.5], [-2.5]])
cast_case("fpext", FLOAT, DOUBLE, [[1.5], [0.1], [NAN]])
cast_case("fptrunc", DOUBLE, FLOAT, [[1.5], [0.1], [1e-50], [NAN], [INF]])
cast_case("inttoptr", I64, ptr(I8), [[0x1234], [0xFFFF_FFFF_FFFF_FFFF]])
cast_case("ptrtoint", ptr(I8), I64, [[0x1234], [0xFFFF_FFFF_FFFF_FFFF]])
cast_case("bitcast", DOUBLE, I64, [[1.0], [-0.0], [NAN], [INF], [5e-324]])
cast_case("bitcast", I64, DOUBLE, [[0x3FF0_0000_0000_0000],
                                   [0x8000_0000_0000_0000],
                                   [0x7FF0_0000_0000_0000], [1]])
cast_case("bitcast", FLOAT, I32, [[1.0], [-2.5]])
cast_case("bitcast", I32, FLOAT, [[0x3F80_0000], [0xC020_0000]])
cast_case("bitcast", V2F64, I128, [[(1.0, -2.0)]])
cast_case("bitcast", I128, V2F64, [[0xC000_0000_0000_0000_3FF0_0000_0000_0000]])
cast_case("bitcast", V2I64, V4I32, [[(0x1111_1111_2222_2222, 0x3333_3333_4444_4444)]])
cast_case("bitcast", V4I32, V2F64, [[(0, 0x3FF0_0000, 0, 0xC000_0000)]])
cast_case("bitcast", ptr(I8), ptr(I64), [[0x1000]])

case("select.i64", I64, (I1, I64, I64),
     lambda b, f, m: b.ret(b.select(*f.args)), [[1, 10, 20], [0, 10, 20]])
case("select.double", DOUBLE, (I1, DOUBLE, DOUBLE),
     lambda b, f, m: b.ret(b.select(*f.args)), [[1, NAN, 2.0], [0, NAN, -0.0]])
case("select.v2f64", V2F64, (I1, V2F64, V2F64),
     lambda b, f, m: b.ret(b.select(*f.args)),
     [[1, (1.0, 2.0), (3.0, 4.0)], [0, (1.0, 2.0), (3.0, 4.0)]])
for _i in (0, 1):
    case(f"extractelement.{_i}", DOUBLE, (V2F64,),
         lambda b, f, m, i=_i: b.ret(b.extractelement(f.args[0], i)),
         [[(1.5, -2.5)]])
    case(f"insertelement.{_i}", V2F64, (V2F64, DOUBLE),
         lambda b, f, m, i=_i: b.ret(b.insertelement(*f.args, i)),
         [[(1.5, -2.5), 9.0]])
case("extractelement.v4i32.3", I32, (V4I32,),
     lambda b, f, m: b.ret(b.extractelement(f.args[0], 3)), [[(1, 2, 3, 4)]])
case("insertelement.undef", V2F64, (DOUBLE,),
     lambda b, f, m: b.ret(b.insertelement(Undef(V2F64), f.args[0], 1)),
     [[7.0]])
for _mask in ((1, 0), (0, 2), (3, 3), (0, 1, 2, 3)):
    case("shufflevector." + "".join(map(str, _mask)),
         VectorType(DOUBLE, len(_mask)), (V2F64, V2F64),
         lambda b, f, m, k=_mask: b.ret(b.shufflevector(*f.args, k)),
         [[(1.0, 2.0), (3.0, 4.0)]])

case("llvm.sqrt.f64", DOUBLE, (DOUBLE,),
     lambda b, f, m: b.ret(b.call("llvm.sqrt.f64", [f.args[0]], DOUBLE)),
     [[4.0], [2.0], [0.0], [-1.0], [-INF], [INF], [NAN]])
case("llvm.fabs.f64", DOUBLE, (DOUBLE,),
     lambda b, f, m: b.ret(b.call("llvm.fabs.f64", [f.args[0]], DOUBLE)),
     [[-2.5], [2.5], [-0.0], [-INF], [NAN]])
case("llvm.ctpop.i8", I8, (I8,),
     lambda b, f, m: b.ret(b.call("llvm.ctpop.i8", [f.args[0]], I8)),
     [[0], [0xFF], [0b1011_0100]])
case("llvm.ctpop.i64", I64, (I64,),
     lambda b, f, m: b.ret(b.call("llvm.ctpop.i64", [f.args[0]], I64)),
     [[0xFFFF_FFFF_FFFF_FFFF], [1 << 63]])
case("llvm.unknown", I64, (I64,),
     lambda b, f, m: b.ret(b.call("llvm.bswap.i64", [f.args[0]], I64)), [[1]])

case("undef.i64", I64, (), lambda b, f, m: b.ret(Undef(I64)), [[]])
case("undef.double", DOUBLE, (), lambda b, f, m: b.ret(Undef(DOUBLE)), [[]])
case("undef.ptr", ptr(I8), (), lambda b, f, m: b.ret(Undef(ptr(I8))), [[]])
case("undef.v2f64", V2F64, (), lambda b, f, m: b.ret(Undef(V2F64)), [[]])
case("undef.operand", I64, (I64,),
     lambda b, f, m: b.ret(b.add(f.args[0], Undef(I64))), [[41]])
case("undef.fp_operand", DOUBLE, (DOUBLE,),
     lambda b, f, m: b.ret(b.fmul(f.args[0], Undef(DOUBLE))), [[41.0]])
case("ret.void", I64, (), lambda b, f, m: b.ret(), [[]])


def _gep(elem):
    def body(b, f, m):
        p = b.gep(f.args[0], f.args[1], elem=elem)
        b.ret(b.ptrtoint(p, I64))
    return body


case("gep.i64idx.i64", I64, (ptr(I64), I64), _gep(None),
     [[0x1000, 2], [0x1000, 0xFFFF_FFFF_FFFF_FFFF], [8, 0xFFFF_FFFF_FFFF_FFFE]])
case("gep.i32idx.double", I64, (ptr(DOUBLE), I32), _gep(None),
     [[0x1000, 3], [0x1000, 0xFFFF_FFFF]])
case("gep.i64idx.elem_i8", I64, (ptr(I64), I64), _gep(I8),
     [[0x1000, 5]])

SCRATCH = 0x2000


def _roundtrip(t):
    def body(b, f, m):
        p = b.inttoptr(b.const(I64, SCRATCH), ptr(t))
        b.store(f.args[0], p)
        b.ret(b.load(p))
    return body


for _t, _ins in (
    (I1, [[1], [0]]), (I8, [[0xAB]]), (I16, [[0xBEEF]]),
    (I32, [[0xDEAD_BEEF]]), (I64, [[0x0123_4567_89AB_CDEF]]),
    (FLOAT, [[1.5], [0.1]]), (DOUBLE, [[0.1], [-0.0]]),
    (ptr(I8), [[0xFFFF_FFFF_FFFF_FFFF]]), (V2F64, [[(1.0, -2.0)]]),
    (V4I32, [[(1, 2, 3, 0xFFFF_FFFF)]]),
):
    case(f"store_load.{_t}".replace(" ", ""), _t, (_t,), _roundtrip(_t), _ins)


def _load_i1_masks(b, f, m):
    p8 = b.inttoptr(b.const(I64, SCRATCH), ptr(I8))
    b.store(f.args[0], p8)
    b.ret(b.load(b.bitcast(p8, ptr(I1))))


case("load.i1.masks_byte", I1, (I8,), _load_i1_masks, [[0xFE], [0xFF]])


def _alloca(b, f, m):
    a = b.alloca(I64, 8, align=16)
    c = b.alloca(I8, 3, align=1)
    b.ret(b.sub(b.ptrtoint(a, I64), b.ptrtoint(c, I64)))


case("alloca.layout", I64, (), _alloca, [[]])


# -- error strings -----------------------------------------------------------


def _phi_missing_edge(b, f, m):
    left, right, join = (f.add_block(n) for n in ("left", "right", "join"))
    b.cond_br(f.args[0], left, right)
    IRBuilder(left).br(join)
    IRBuilder(right).br(join)
    jb = IRBuilder(join)
    p = jb.phi(I64, "p")
    p.add_incoming(jb.const(I64, 11), left)
    jb.ret(p)


case("err.phi_missing_edge", I64, (I1,), _phi_missing_edge, [[1], [0]])


def _phis_are_parallel(b, f, m):
    loop, done = f.add_block("loop"), f.add_block("done")
    entry = b.block
    b.br(loop)
    lb = IRBuilder(loop)
    x, y, n = lb.phi(I64, "x"), lb.phi(I64, "y"), lb.phi(I64, "n")
    x.add_incoming(f.args[0], entry)
    y.add_incoming(f.args[1], entry)
    n.add_incoming(f.args[2], entry)
    x.add_incoming(y, loop)   # swap: both reads see the previous iteration
    y.add_incoming(x, loop)
    n1 = lb.sub(n, lb.const(I64, 1))
    n.add_incoming(n1, loop)
    lb.cond_br(lb.icmp("eq", n1, lb.const(I64, 0)), done, loop)
    db = IRBuilder(done)
    db.ret(db.sub(db.mul(x, db.const(I64, 10)), y))


case("phi.parallel_swap", I64, (I64, I64, I64), _phis_are_parallel,
     [[1, 2, 1], [1, 2, 2], [1, 2, 3]])
case("err.unreachable", I64, (), lambda b, f, m: b.unreachable(), [[]])
case("err.fell_through", I64, (I64,),
     lambda b, f, m: b.add(f.args[0], f.args[0]), [[1]])
case("err.arity", I64, (I64, I64),
     lambda b, f, m: b.ret(f.args[0]), [[1], [1, 2, 3], [1, 2]])


def _undefined_callee(b, f, m):
    decl = Function("ext", FunctionType(I64, (I64,)))
    decl.is_declaration = True
    m.add_function(decl)
    b.ret(b.call(decl, [f.args[0]], I64))


case("err.undefined_callee", I64, (I64,), _undefined_callee, [[1]])


def _callee_arity(b, f, m):
    g = Function("g", FunctionType(I64, (I64, I64)))
    m.add_function(g)
    gb = IRBuilder(g.add_block("entry"))
    gb.ret(gb.add(*g.args))
    b.ret(b.call(g, [f.args[0]], I64))


case("err.callee_arity", I64, (I64,), _callee_arity, [[1]])


def _unplaced_global(b, f, m):
    from repro.ir import GlobalVariable
    g = GlobalVariable("stray", I8, b"\x01")   # never added to the module
    b.ret(b.ptrtoint(g, I64))


case("err.unplaced_global", I64, (), _unplaced_global, [[]])


def _function_pointer(b, f, m):
    b.ret(b.ptrtoint(f, I64))


case("err.function_pointer", I64, (), _function_pointer, [[]])


def _use_before_def(b, f, m):
    other = Function("other", FunctionType(I64, (I64,)))
    ob = IRBuilder(other.add_block("entry"))
    foreign = ob.add(other.args[0], other.args[0], "foreign")
    b.ret(b.add(f.args[0], foreign))


case("err.unevaluated_value", I64, (I64,), _use_before_def, [[1]])


def encode(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return [encode(x) for x in v]
    return v


def run_case(cid):
    build, inputs = CASES[cid]
    it = Interpreter(build())
    it.memory.map(SCRATCH, 64)
    out = []
    for args in inputs:
        try:
            out.append(encode(it.run("f", list(args))))
        except IRInterpError as exc:
            out.append(f"err: {exc}")
    return out


EXPECTED: dict[str, list] = {
    'add.i8': [8, 0, 0x7f, 0xfb, 0xf7, 5, 0x5a, 0xd0, 0xa, 0x81, 0x88],
    'and.i8': [1, 1, 0x80, 0, 0xf8, 6, 0, 8, 1, 0, 1],
    'ashr.i8': [0, 0xff, 0xff, 0xfe, 0xff, 0, 0x5a, 0xc8, 0, 0xc0, 0xff],
    'lshr.i8': [0, 0x7f, 1, 0x3e, 3, 0, 0x5a, 0xc8, 0, 0x40, 1],
    'mul.i8': [0xf, 0xff, 0x80, 0xf2, 0xe, 0xf2, 0, 0x40, 9, 0x80, 0x87],
    'or.i8': [7, 0xff, 0xff, 0xfb, 0xff, 0xff, 0x5a, 0xc8, 9, 0x81, 0x87],
    'sdiv.i8': [
        0, 0xff, 0x80, 0xfd, 3, 0xfd, 'err: sdiv by zero', 0xf9, 0, 0x80,
        0xee,
    ],
    'shl.i8': [0x60, 0xfe, 0, 0xe4, 0x40, 0xc0, 0x5a, 0xc8, 2, 0, 0x80],
    'srem.i8': [3, 0, 0, 0xff, 0xff, 1, 'err: srem by zero', 0, 1, 0, 0xff],
    'sub.i8': [0xfe, 0xfe, 0x81, 0xf7, 0xfb, 9, 0x5a, 0xc0, 0xf8, 0x7f, 0x7a],
    'udiv.i8': [
        0, 0xff, 0, 0x7c, 0, 0, 'err: udiv by zero', 0x19, 0, 0x80, 0x12,
    ],
    'urem.i8': [3, 0, 0x80, 1, 0xf9, 7, 'err: urem by zero', 0, 1, 0, 3],
    'xor.i8': [6, 0xfe, 0x7f, 0xfb, 7, 0xf9, 0x5a, 0xc0, 8, 0x81, 0x86],
    'icmp.eq.i8': [0, 0, 0, 0, 0, 0, 1],
    'icmp.ne.i8': [1, 1, 1, 1, 1, 1, 0],
    'icmp.sge.i8': [0, 0, 0, 0, 0, 1, 1],
    'icmp.sgt.i8': [0, 0, 0, 0, 0, 1, 0],
    'icmp.sle.i8': [1, 1, 1, 1, 1, 0, 1],
    'icmp.slt.i8': [1, 1, 1, 1, 1, 0, 0],
    'icmp.uge.i8': [0, 1, 0, 1, 0, 0, 1],
    'icmp.ugt.i8': [0, 1, 0, 1, 0, 0, 0],
    'icmp.ule.i8': [1, 0, 1, 0, 1, 1, 1],
    'icmp.ult.i8': [1, 0, 1, 0, 1, 1, 0],
    'add.i32': [
        8, 0, 0x7fffffff, 0xfffffffb, 0xfffffff7, 5, 0x5a, 0xe8, 0x22,
        0x80000001, 0x80000020,
    ],
    'and.i32': [1, 1, 0x80000000, 0, 0xfffffff8, 6, 0, 0, 1, 0, 1],
    'ashr.i32': [
        0, 0xffffffff, 0xffffffff, 0xfffffffe, 0xffffffff, 0, 0x5a, 0xc8, 0,
        0xc0000000, 0xffffffff,
    ],
    'lshr.i32': [
        0, 0x7fffffff, 1, 0x3ffffffe, 3, 0, 0x5a, 0xc8, 0, 0x40000000, 1,
    ],
    'mul.i32': [
        0xf, 0xffffffff, 0x80000000, 0xfffffff2, 0xe, 0xfffffff2, 0, 0x1900,
        0x21, 0x80000000, 0x8000001f,
    ],
    'or.i32': [
        7, 0xffffffff, 0xffffffff, 0xfffffffb, 0xffffffff, 0xffffffff, 0x5a,
        0xe8, 0x21, 0x80000001, 0x8000001f,
    ],
    'sdiv.i32': [
        0, 0xffffffff, 0x80000000, 0xfffffffd, 3, 0xfffffffd,
        'err: sdiv by zero', 6, 0, 0x80000000, 0xfbdef7be,
    ],
    'shl.i32': [
        0x60, 0xfffffffe, 0, 0xffffffe4, 0x40000000, 0xc0000000, 0x5a, 0xc8,
        2, 0, 0x80000000,
    ],
    'srem.i32': [
        3, 0, 0, 0xffffffff, 0xffffffff, 1, 'err: srem by zero', 8, 1, 0,
        0xffffffff,
    ],
    'sub.i32': [
        0xfffffffe, 0xfffffffe, 0x80000001, 0xfffffff7, 0xfffffffb, 9, 0x5a,
        0xa8, 0xffffffe0, 0x7fffffff, 0x7fffffe2,
    ],
    'udiv.i32': [
        0, 0xffffffff, 0, 0x7ffffffc, 0, 0, 'err: udiv by zero', 6, 0,
        0x80000000, 0x4210842,
    ],
    'urem.i32': [
        3, 0, 0x80000000, 1, 0xfffffff9, 7, 'err: urem by zero', 8, 1, 0, 3,
    ],
    'xor.i32': [
        6, 0xfffffffe, 0x7fffffff, 0xfffffffb, 7, 0xfffffff9, 0x5a, 0xe8,
        0x20, 0x80000001, 0x8000001e,
    ],
    'icmp.eq.i32': [0, 0, 0, 0, 0, 0, 1],
    'icmp.ne.i32': [1, 1, 1, 1, 1, 1, 0],
    'icmp.sge.i32': [0, 0, 0, 0, 0, 1, 1],
    'icmp.sgt.i32': [0, 0, 0, 0, 0, 1, 0],
    'icmp.sle.i32': [1, 1, 1, 1, 1, 0, 1],
    'icmp.slt.i32': [1, 1, 1, 1, 1, 0, 0],
    'icmp.uge.i32': [0, 1, 0, 1, 0, 0, 1],
    'icmp.ugt.i32': [0, 1, 0, 1, 0, 0, 0],
    'icmp.ule.i32': [1, 0, 1, 0, 1, 1, 1],
    'icmp.ult.i32': [1, 0, 1, 0, 1, 1, 0],
    'add.i64': [
        8, 0, 0x7fffffffffffffff, 0xfffffffffffffffb, 0xfffffffffffffff7, 5,
        0x5a, 0x108, 0x42, 0x8000000000000001, 0x8000000000000040,
    ],
    'and.i64': [
        1, 1, 0x8000000000000000, 0, 0xfffffffffffffff8, 6, 0, 0x40, 1, 0, 1,
    ],
    'ashr.i64': [
        0, 0xffffffffffffffff, 0xffffffffffffffff, 0xfffffffffffffffe,
        0xffffffffffffffff, 0, 0x5a, 0xc8, 0, 0xc000000000000000,
        0xffffffffffffffff,
    ],
    'lshr.i64': [
        0, 0x7fffffffffffffff, 1, 0x3ffffffffffffffe, 3, 0, 0x5a, 0xc8, 0,
        0x4000000000000000, 1,
    ],
    'mul.i64': [
        0xf, 0xffffffffffffffff, 0x8000000000000000, 0xfffffffffffffff2, 0xe,
        0xfffffffffffffff2, 0, 0x3200, 0x41, 0x8000000000000000,
        0x800000000000003f,
    ],
    'or.i64': [
        7, 0xffffffffffffffff, 0xffffffffffffffff, 0xfffffffffffffffb,
        0xffffffffffffffff, 0xffffffffffffffff, 0x5a, 0xc8, 0x41,
        0x8000000000000001, 0x800000000000003f,
    ],
    'sdiv.i64': [
        0, 0xffffffffffffffff, 0x8000000000000000, 0xfffffffffffffffd, 3,
        0xfffffffffffffffd, 'err: sdiv by zero', 3, 0, 0x8000000000000000,
        0xfdf7df7df7df7df8,
    ],
    'shl.i64': [
        0x60, 0xfffffffffffffffe, 0, 0xffffffffffffffe4, 0x4000000000000000,
        0xc000000000000000, 0x5a, 0xc8, 2, 0, 0x8000000000000000,
    ],
    'srem.i64': [
        3, 0, 0, 0xffffffffffffffff, 0xffffffffffffffff, 1,
        'err: srem by zero', 8, 1, 0, 0xfffffffffffffff9,
    ],
    'sub.i64': [
        0xfffffffffffffffe, 0xfffffffffffffffe, 0x8000000000000001,
        0xfffffffffffffff7, 0xfffffffffffffffb, 9, 0x5a, 0x88,
        0xffffffffffffffc0, 0x7fffffffffffffff, 0x7fffffffffffffc2,
    ],
    'udiv.i64': [
        0, 0xffffffffffffffff, 0, 0x7ffffffffffffffc, 0, 0,
        'err: udiv by zero', 3, 0, 0x8000000000000000, 0x208208208208208,
    ],
    'urem.i64': [
        3, 0, 0x8000000000000000, 1, 0xfffffffffffffff9, 7,
        'err: urem by zero', 8, 1, 0, 9,
    ],
    'xor.i64': [
        6, 0xfffffffffffffffe, 0x7fffffffffffffff, 0xfffffffffffffffb, 7,
        0xfffffffffffffff9, 0x5a, 0x88, 0x40, 0x8000000000000001,
        0x800000000000003e,
    ],
    'icmp.eq.i64': [0, 0, 0, 0, 0, 0, 1],
    'icmp.ne.i64': [1, 1, 1, 1, 1, 1, 0],
    'icmp.sge.i64': [0, 0, 0, 0, 0, 1, 1],
    'icmp.sgt.i64': [0, 0, 0, 0, 0, 1, 0],
    'icmp.sle.i64': [1, 1, 1, 1, 1, 0, 1],
    'icmp.slt.i64': [1, 1, 1, 1, 1, 0, 0],
    'icmp.uge.i64': [0, 1, 0, 1, 0, 0, 1],
    'icmp.ugt.i64': [0, 1, 0, 1, 0, 0, 0],
    'icmp.ule.i64': [1, 0, 1, 0, 1, 1, 1],
    'icmp.ult.i64': [1, 0, 1, 0, 1, 1, 0],
    'fadd.double': [
        '3.75', '0.30000000000000004', 'inf', '4.0', '4.0', '1.0', '1.0',
        '-1.0', '-1.0', '0.0', 'nan', 'inf', 'inf', 'nan',
    ],
    'fadd.float': [
        '3.75', '0.30000001192092896', '4.0', '1.0', '-1.0', '0.0',
        '16777216.0',
    ],
    'fadd.v2f64': [['2.0', '2.0'], ['1.0', '-1.0']],
    'fdiv.double': [
        '0.6666666666666666', '0.5', '1.0', '-0.42857142857142855',
        '0.3333333333333333', 'inf', '-inf', '-inf', 'inf', 'nan', 'nan',
        'inf', 'nan', 'nan',
    ],
    'fdiv.float': [
        '0.6666666865348816', '0.5', '0.3333333432674408', 'inf', '-inf',
        'nan', '16777216.0',
    ],
    'fdiv.v2f64': [['3.0', '-0.5'], ['inf', 'inf']],
    'fmul.double': [
        '3.375', '0.020000000000000004', 'inf', '-21.0', '3.0', '0.0', '-0.0',
        '-0.0', '0.0', '0.0', 'nan', 'nan', 'inf', 'nan',
    ],
    'fmul.float': [
        '3.375', '0.019999999552965164', '3.0', '0.0', '-0.0', '0.0',
        '16777216.0',
    ],
    'fmul.v2f64': [['0.75', '-8.0'], ['0.0', '0.0']],
    'fsub.double': [
        '-0.75', '-0.1', '0.0', '-10.0', '-2.0', '1.0', '1.0', '-1.0', '-1.0',
        '0.0', 'nan', 'inf', 'nan', 'nan',
    ],
    'fsub.float': [
        '-0.75', '-0.10000000149011612', '-2.0', '1.0', '-1.0', '0.0',
        '16777215.0',
    ],
    'fsub.v2f64': [['1.0', '-6.0'], ['1.0', '-1.0']],
    'fcmp.oeq': [0, 0, 1, 0, 0, 0, 1, 0],
    'fcmp.oge': [0, 1, 1, 0, 0, 0, 1, 0],
    'fcmp.ogt': [0, 1, 0, 0, 0, 0, 0, 0],
    'fcmp.ole': [1, 0, 1, 0, 0, 0, 1, 1],
    'fcmp.olt': [1, 0, 0, 0, 0, 0, 0, 1],
    'fcmp.one': [1, 1, 0, 0, 0, 0, 0, 1],
    'fcmp.ord': [1, 1, 1, 0, 0, 0, 1, 1],
    'fcmp.ueq': [0, 0, 1, 1, 1, 1, 1, 0],
    'fcmp.uge': [0, 1, 1, 1, 1, 1, 1, 0],
    'fcmp.ugt': [0, 1, 0, 1, 1, 1, 0, 0],
    'fcmp.ule': [1, 0, 1, 1, 1, 1, 1, 1],
    'fcmp.ult': [1, 0, 0, 1, 1, 1, 0, 1],
    'fcmp.une': [1, 1, 0, 1, 1, 1, 0, 1],
    'fcmp.uno': [0, 0, 0, 1, 1, 1, 0, 0],
    'icmp.eq.ptr': [1, 0],
    'icmp.ult.ptr': [0, 1],
    'icmp.slt.ptr': [0, 0],
    'add.v4i32': [[3, 2, 0x8000001f, 0x85]],
    'mul.v4i32': [[2, 0xfffffffd, 0x80000000, 0xce4]],
    'shl.v4i32': [[4, 0xfffffff8, 0, 0xc8]],
    'ashr.v4i32': [[0, 0xffffffff, 0xffffffff, 0x32]],
    'sdiv.v4i32': [[0, 0, 0xfbdef7be, 3]],
    'urem.v4i32': [[1, 0, 2, 1]],
    'sdiv.v2i64.zero': ['err: sdiv by zero'],
    'trunc.i64.i8': [0xf0, 0xff, 0],
    'trunc.i64.i32': [0x9abcdef0, 0],
    'trunc.i32.i8': [0xef],
    'trunc.i64.i1': [0, 1],
    'zext.i8.i64': [0xff, 0x7f],
    'zext.i1.i64': [1, 0],
    'zext.i32.i64': [0xffffffff],
    'sext.i8.i64': [0xffffffffffffffff, 0x7f, 0xffffffffffffff80],
    'sext.i8.i32': [0xffffff80],
    'sext.i32.i64': [0xffffffff80000000, 0x7fffffff],
    'sext.i1.i64': [0xffffffffffffffff, 0],
    'sext.i16.i32': [0xffff8001],
    'sitofp.i64.double': [
        '-1.0', '-9.223372036854776e+18', '7.0', '9007199254740992.0',
    ],
    'sitofp.i32.double': ['-2.0', '5.0'],
    'sitofp.i64.float': ['-3.0', '3.0'],
    'uitofp.i64.double': [
        '1.8446744073709552e+19', '9.223372036854776e+18', '7.0',
    ],
    'uitofp.i32.double': ['4294967294.0'],
    'fptosi.double.i64': [
        3, 0xfffffffffffffffd, 0, 0, 0, 0x20000000000000, 0x805308be62680000,
    ],
    'fptosi.double.i32': [3, 0xfffffffd, 0x7fffffff, 0x80000000],
    'fptosi.float.i32': [2, 0xfffffffe],
    'fpext.float.double': ['1.5', '0.1', 'nan'],
    'fptrunc.double.float': [
        '1.5', '0.10000000149011612', '0.0', 'nan', 'inf',
    ],
    'inttoptr.i64.i8*': [0x1234, 0xffffffffffffffff],
    'ptrtoint.i8*.i64': [0x1234, 0xffffffffffffffff],
    'bitcast.double.i64': [
        0x3ff0000000000000, 0x8000000000000000, 0x7ff8000000000000,
        0x7ff0000000000000, 1,
    ],
    'bitcast.i64.double': ['1.0', '-0.0', 'inf', '5e-324'],
    'bitcast.float.i32': [0x3f800000, 0xc0200000],
    'bitcast.i32.float': ['1.0', '-2.5'],
    'bitcast.<2xdouble>.i128': [0xc0000000000000003ff0000000000000],
    'bitcast.i128.<2xdouble>': [['1.0', '-2.0']],
    'bitcast.<2xi64>.<4xi32>': [
        [0x22222222, 0x11111111, 0x44444444, 0x33333333],
    ],
    'bitcast.<4xi32>.<2xdouble>': [['1.0', '-2.0']],
    'bitcast.i8*.i64*': [0x1000],
    'select.i64': [0xa, 0x14],
    'select.double': ['nan', '-0.0'],
    'select.v2f64': [['1.0', '2.0'], ['3.0', '4.0']],
    'extractelement.0': ['1.5'],
    'insertelement.0': [['9.0', '-2.5']],
    'extractelement.1': ['-2.5'],
    'insertelement.1': [['1.5', '9.0']],
    'extractelement.v4i32.3': [4],
    'insertelement.undef': [['0.0', '7.0']],
    'shufflevector.10': [['2.0', '1.0']],
    'shufflevector.02': [['1.0', '3.0']],
    'shufflevector.33': [['4.0', '4.0']],
    'shufflevector.0123': [['1.0', '2.0', '3.0', '4.0']],
    'llvm.sqrt.f64': [
        '2.0', '1.4142135623730951', '0.0', 'nan', 'nan', 'inf', 'nan',
    ],
    'llvm.fabs.f64': ['2.5', '2.5', '0.0', 'inf', 'nan'],
    'llvm.ctpop.i8': [0, 8, 4],
    'llvm.ctpop.i64': [0x40, 1],
    'llvm.unknown': ['err: unknown intrinsic llvm.bswap.i64'],
    'undef.i64': [0],
    'undef.double': ['0.0'],
    'undef.ptr': [0],
    'undef.v2f64': [['0.0', '0.0']],
    'undef.operand': [0x29],
    'undef.fp_operand': ['0.0'],
    'ret.void': [None],
    'gep.i64idx.i64': [0x1010, 0xff8, 0xfffffffffffffff8],
    'gep.i32idx.double': [0x1018, 0xff8],
    'gep.i64idx.elem_i8': [0x1005],
    'store_load.i1': [1, 0],
    'store_load.i8': [0xab],
    'store_load.i16': [0xbeef],
    'store_load.i32': [0xdeadbeef],
    'store_load.i64': [0x123456789abcdef],
    'store_load.float': ['1.5', '0.10000000149011612'],
    'store_load.double': ['0.1', '-0.0'],
    'store_load.i8*': [0xffffffffffffffff],
    'store_load.<2xdouble>': [['1.0', '-2.0']],
    'store_load.<4xi32>': [[1, 2, 3, 0xffffffff]],
    'load.i1.masks_byte': [0, 1],
    'alloca.layout': [3],
    'err.phi_missing_edge': [
        0xb, 'err: @f: phi %p missing incoming for right',
    ],
    'phi.parallel_swap': [8, 0x13, 8],
    'err.unreachable': ['err: @f: reached unreachable'],
    'err.fell_through': ['err: @f: block entry fell through'],
    'err.arity': [
        'err: @f expects 2 args, got 1', 'err: @f expects 2 args, got 3', 1,
    ],
    'err.undefined_callee': ['err: call to undefined @ext'],
    'err.callee_arity': ['err: @g expects 2 args, got 1'],
    'err.unplaced_global': ['err: global @stray not placed'],
    'err.function_pointer': ['err: function pointers are not interpretable'],
    'err.unevaluated_value': ['err: use of unevaluated value %foreign'],
}


@pytest.mark.parametrize("cid", sorted(CASES))
def test_semantics_table(cid):
    assert run_case(cid) == EXPECTED[cid]


def test_table_is_complete():
    assert sorted(EXPECTED) == sorted(CASES)


# -- the constant folder reads the same table ----------------------------------


def _literal(t, v):
    if isinstance(t, IntType):
        return Constant(t, v)
    if isinstance(t, (DoubleType, FloatType)):
        return ConstantFP(t, v)
    return None


def fold_rows(cid):
    """``(row, try_fold result)`` for every input row of a case whose
    function is one instruction over scalar arguments, with the arguments
    replaced by literals."""
    build, inputs = CASES[cid]
    for row, args in enumerate(inputs):
        f = build().function("f")
        body = [ins for blk in f.blocks for ins in blk.instructions]
        literals = [_literal(a.type, v) for a, v in zip(f.args, args)]
        if len(body) != 2 or body[1].opcode != "ret" \
                or body[1].value is not body[0] \
                or len(args) != len(f.args) or None in literals:
            continue
        for a, c in zip(f.args, literals):
            f.replace_all_uses(a, c)
        yield row, try_fold(body[0])


@pytest.mark.parametrize("cid", sorted(CASES))
def test_fold_gives_the_interpreters_value_or_declines(cid):
    for row, folded in fold_rows(cid):
        if folded is not None:
            value = [e.value for e in folded.elements] \
                if isinstance(folded, ConstantVector) else folded.value
            assert encode(value) == EXPECTED[cid][row], (cid, row)


def test_fold_is_not_a_vacuous_consumer():
    results = [folded for cid in CASES for _row, folded in fold_rows(cid)]
    assert len(results) == 936
    assert sum(folded is not None for folded in results) == 874


def test_entry_phi_is_a_typed_error():
    build = one(I64, (), lambda b, f, m: b.ret(b.phi(I64, "p")))
    with pytest.raises(IRInterpError, match="phi in block entry has no "
                                            "incoming edge for the path taken"):
        Interpreter(build()).run("f", [])


# -- fptosi: the x86 cvtt rule, in every engine that evaluates it -------------

IND64, IND32 = 1 << 63, 1 << 31

#: value -> (fptosi to i64, fptosi to i32)
FPTOSI = [
    (NAN, IND64, IND32), (INF, IND64, IND32), (-INF, IND64, IND32),
    (1e30, IND64, IND32), (-1e30, IND64, IND32), (9.3e18, IND64, IND32),
    (2.0 ** 32, 1 << 32, IND32), (2147483647.6, 0x7FFF_FFFF, 0x7FFF_FFFF),
    (3.7, 3, 3), (-3.7, 2**64 - 3, 2**32 - 3), (-0.0, 0, 0),
]


@pytest.mark.parametrize("value,want64,want32", FPTOSI,
                         ids=[repr(row[0]) for row in FPTOSI])
def test_fptosi_follows_x86_rule(value, want64, want32):
    """Interpreter (inline and as a function), constant folder and simulator
    give the integer indefinite for NaN, ±inf and out-of-range inputs."""
    from repro.arith import f64_to_bits
    from repro.cpu.semantics import execute
    from repro.cpu.state import CPUState
    from repro.ir.semantics import cast_fn
    from repro.ir.passes import run_o3
    from repro.mem.memory import Memory
    from repro.x86.instr import gp, make, xmm
    from repro.x86.registers import RAX

    for t, want in ((I64, want64), (I32, want32)):
        runtime = one(t, (DOUBLE,),
                      lambda b, f, m: b.ret(b.fptosi(f.args[0], t)))()
        assert Interpreter(runtime).run("f", [value]) == want
        assert cast_fn("fptosi", DOUBLE, t)(value) == want

        folded = one(t, (), lambda b, f, m: b.ret(
            b.fptosi(ConstantFP(DOUBLE, value), t)))()
        f = folded.function("f")
        run_o3(f)   # used to die with ValueError inside fold.try_fold
        ret = f.entry.terminator.value
        assert isinstance(ret, Constant) and ret.value == want

        st_ = CPUState()
        st_.xmm[0] = f64_to_bits(value)
        execute(make("cvttsd2si", gp(RAX, t.bits // 8), xmm(0)), st_, Memory())
        assert st_.gpr[RAX] == want
