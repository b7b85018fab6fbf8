"""Randomized whole-pipeline differential testing.

hypothesis generates small structured C programs (expressions, ifs, while
loops, integer and double arithmetic); each is compiled with MCC and then
checked four ways on identical inputs:

    simulator(native)  ==  interp(lifted IR)  ==  simulator(JIT(lifted IR))
                       ==  simulator(DBrew identity rewrite)

Any divergence pinpoints a bug in one specific layer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import compile_c
from repro.cpu import Simulator
from repro.dbrew import Rewriter
from repro.ir import Interpreter, verify
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature

_U63 = (1 << 63) - 1


@st.composite
def int_expr(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(
            ["a", "b", "x", str(draw(st.integers(-50, 50)))]
        ))
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", "<<", ">>"]))
    lhs = draw(int_expr(depth + 1))
    rhs = draw(int_expr(depth + 1))
    if op in ("<<", ">>"):
        rhs = str(draw(st.integers(0, 7)))
    return f"({lhs} {op} {rhs})"


@st.composite
def cond_expr(draw):
    op = draw(st.sampled_from(["<", ">", "<=", ">=", "==", "!="]))
    return f"({draw(int_expr(2))} {op} {draw(int_expr(2))})"


@st.composite
def stmt(draw, depth=0):
    kind = draw(st.sampled_from(
        ["assign", "assign", "if", "ifelse", "while"] if depth < 2 else ["assign"]
    ))
    if kind == "assign":
        return f"x = {draw(int_expr())};"
    if kind == "if":
        return f"if {draw(cond_expr())} {{ {draw(stmt(depth + 1))} }}"
    if kind == "ifelse":
        return (f"if {draw(cond_expr())} {{ {draw(stmt(depth + 1))} }} "
                f"else {{ {draw(stmt(depth + 1))} }}")
    # bounded while loop: a fresh counter guarantees termination
    body = draw(stmt(depth + 1))
    return (f"{{ long i = 0; while (i < {draw(st.integers(1, 6))}) "
            f"{{ {body} i = i + 1; }} }}")


@st.composite
def program(draw):
    stmts = draw(st.lists(stmt(), min_size=1, max_size=4))
    body = "\n    ".join(stmts)
    return f"""
long f(long a, long b) {{
    long x = a;
    {body}
    return x;
}}
"""


@settings(max_examples=40, deadline=None)
@given(src=program(), a=st.integers(0, _U63), b=st.integers(0, _U63))
def test_pipeline_differential_int(src, a, b):
    prog = compile_c(src)
    img = prog.image
    sim = Simulator(img)
    want = sim.call_int("f", (a, b))

    # lifted IR, interpreted
    tx = BinaryTransformer(img)
    res = tx.llvm_identity("f", FunctionSignature(("i", "i"), "i"), name="f_tx")
    verify(res.function)
    got_ir = Interpreter(res.module, img.memory).run(res.function, [a, b])
    got_ir = got_ir - 2**64 if got_ir >= 2**63 else got_ir
    assert got_ir == want, "lift/optimize diverged"

    # JIT-compiled lifted IR, simulated
    assert sim.call_int("f_tx", (a, b)) == want, "JIT diverged"

    # DBrew identity rewrite
    Rewriter(img, "f").set_signature(("i", "i")).rewrite(name="f_db")
    assert sim.call_int("f_db", (a, b)) == want, "DBrew diverged"


@st.composite
def double_expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return "p"
        if choice == 1:
            return "q"
        return repr(draw(st.sampled_from([0.5, 1.0, 2.0, -1.5, 0.25, 3.75])))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return f"({draw(double_expr(depth + 1))} {op} {draw(double_expr(depth + 1))})"


@settings(max_examples=25, deadline=None)
@given(e=double_expr(),
       p=st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e6, max_value=1e6),
       q=st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e6, max_value=1e6))
def test_pipeline_differential_double(e, p, q):
    src = f"double f(double p, double q) {{ return {e}; }}"
    prog = compile_c(src)
    img = prog.image
    sim = Simulator(img)
    want = sim.call_f64("f", (), (p, q))

    tx = BinaryTransformer(img)
    res = tx.llvm_identity("f", FunctionSignature(("f", "f"), "f"), name="f_tx")
    got_ir = Interpreter(res.module, img.memory).run(res.function, [p, q])
    assert got_ir == want or (got_ir != got_ir and want != want)

    got_jit = sim.call_f64("f_tx", (), (p, q))
    assert got_jit == want or (got_jit != got_jit and want != want)


@settings(max_examples=15, deadline=None)
@given(src=program(), a=st.integers(0, 100))
def test_dbrew_specialization_differential(src, a):
    """Fixing parameter a must preserve semantics for every b."""
    prog = compile_c(src)
    img = prog.image
    sim = Simulator(img)
    r = Rewriter(img, "f").set_signature(("i", "i")).set_par(0, a)
    r.rewrite(name="f_spec")
    for b in (0, 1, 17, _U63):
        assert sim.call_int("f_spec", (999, b)) == sim.call_int("f", (a, b))
