"""End-to-end MCC tests: compile C, run on the simulator, check results."""

import struct

import pytest

from repro.cc import compile_c
from repro.cc.compiler import CompilerOptions
from repro.cpu import Simulator
from repro.errors import CompileError


def run_int(src, fn, *args):
    prog = compile_c(src)
    return Simulator(prog.image).call_int(fn, tuple(args))


def run_f64(src, fn, iargs=(), fargs=()):
    prog = compile_c(src)
    return Simulator(prog.image).call_f64(fn, tuple(iargs), tuple(fargs))


# -- basic expressions -------------------------------------------------------


def test_return_constant():
    assert run_int("int f() { return 42; }", "f") == 42


def test_arith_precedence():
    assert run_int("int f() { return 2 + 3 * 4; }", "f") == 14


def test_parentheses():
    assert run_int("int f() { return (2 + 3) * 4; }", "f") == 20


def test_params():
    assert run_int("long f(long a, long b, long c) { return a*100 + b*10 + c; }",
                   "f", 1, 2, 3) == 123


def test_negative_numbers():
    assert run_int("int f(int a) { return -a + -7; }", "f", 5) == -12


def test_division_truncates_toward_zero():
    assert run_int("int f(int a, int b) { return a / b; }", "f",
                   (-7) & (2**64 - 1), 2) == -3


def test_modulo():
    assert run_int("int f(int a) { return a % 10; }", "f", 1234) == 4


def test_bitwise_ops():
    assert run_int("int f(int a, int b) { return (a & b) | (a ^ b); }",
                   "f", 0b1100, 0b1010) == 0b1110


def test_bitwise_complement():
    assert run_int("long f(long a) { return ~a; }", "f", 5) == -6


def test_shifts():
    assert run_int("long f(long a) { return (a << 4) >> 2; }", "f", 3) == 12


def test_comparison_values():
    assert run_int("int f(int a, int b) { return (a < b) + (a == a)*10; }",
                   "f", 1, 2) == 11


def test_constant_comparisons_fold():
    assert run_int("int f() { return (3 < 4) + (5 <= -2) * 10; }", "f") == 1
    assert run_int("int f() { if (2 > 1) return 7; return 8; }", "f") == 7


def test_address_taken_parameter_is_a_typed_refusal():
    with pytest.raises(CompileError, match="address-taken parameter"):
        compile_c("long f(long a) { long *p = &a; return *p; }")


def test_logical_and_short_circuit():
    # (n != 0 && 100/n > 5): must not divide when n == 0
    src = "int f(int n) { return n != 0 && 100 / n > 5; }"
    assert run_int(src, "f", 0) == 0
    assert run_int(src, "f", 10) == 1
    assert run_int(src, "f", 50) == 0


def test_logical_or():
    src = "int f(int a, int b) { return a > 0 || b > 0; }"
    assert run_int(src, "f", 0, 1) == 1
    assert run_int(src, "f", 0, 0) == 0


def test_conditional_expression():
    src = "int f(int a, int b) { return a > b ? a : b; }"
    assert run_int(src, "f", 3, 9) == 9
    assert run_int(src, "f", 9, 3) == 9


def test_unary_not():
    assert run_int("int f(int a) { return !a; }", "f", 0) == 1
    assert run_int("int f(int a) { return !a; }", "f", 77) == 0


def test_sizeof():
    src = """
    struct P { double f; int dx, dy; };
    long f() { return sizeof(struct P) + sizeof(int) * 100 + sizeof(double*); }
    """
    assert run_int(src, "f") == 16 + 400 + 8


# -- control flow ----------------------------------------------------------


def test_if_else_chain():
    src = """
    int grade(int score) {
        if (score >= 90) return 4;
        else if (score >= 80) return 3;
        else if (score >= 70) return 2;
        return 0;
    }
    """
    assert run_int(src, "grade", 95) == 4
    assert run_int(src, "grade", 85) == 3
    assert run_int(src, "grade", 75) == 2
    assert run_int(src, "grade", 10) == 0


def test_while_loop():
    src = "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }"
    assert run_int(src, "f", 10) == 55


def test_do_while():
    src = "int f(int n) { int c = 0; do { c++; n /= 2; } while (n > 0); return c; }"
    assert run_int(src, "f", 8) == 4
    assert run_int(src, "f", 0) == 1  # body runs at least once


def test_for_with_break_continue():
    src = """
    int f(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            if (i % 2 == 0) continue;
            if (i > 10) break;
            s += i;
        }
        return s;
    }
    """
    assert run_int(src, "f", 100) == 1 + 3 + 5 + 7 + 9


def test_nested_loops():
    src = """
    int f(int n) {
        int s = 0;
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
                s += i * j;
        return s;
    }
    """
    assert run_int(src, "f", 4) == sum(i * j for i in range(4) for j in range(4))


def test_recursion():
    src = "long fib(long n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }"
    assert run_int(src, "fib", 15) == 610


def test_mutual_calls():
    src = """
    int is_odd(int n);
    int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
    int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
    """
    assert run_int(src, "is_even", 10) == 1
    assert run_int(src, "is_odd", 10) == 0


# -- doubles ----------------------------------------------------------------


def test_double_arith():
    assert run_f64("double f(double a, double b) { return a*b + 1.5; }",
                   "f", fargs=(3.0, 4.0)) == 13.5


def test_double_int_mixing():
    assert run_f64("double f(int n) { return n / 4.0; }", "f", iargs=(10,)) == 2.5


def test_double_cast_truncation():
    assert run_int("int f(double x) { return (int)x; }", "f") == 0
    src = "int f(double x) { return (int)x; }"
    prog = compile_c(src)
    sim = Simulator(prog.image)
    assert sim.call("f", (), (-2.9,)).int_value == -2


def test_double_comparison():
    src = "int f(double a, double b) { return a < b; }"
    prog = compile_c(src)
    sim = Simulator(prog.image)
    assert sim.call("f", (), (1.0, 2.0)).int_value == 1
    assert sim.call("f", (), (2.0, 1.0)).int_value == 0


def test_double_negation():
    assert run_f64("double f(double x) { return -x; }", "f", fargs=(2.5,)) == -2.5


# -- pointers / arrays / structs ----------------------------------------------


@pytest.fixture
def sum_prog():
    return compile_c("""
    double sum(double* a, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s += a[i];
        return s;
    }
    """)


def test_array_sum(sum_prog):
    sim = Simulator(sum_prog.image)
    a = sum_prog.image.alloc_data(8 * 10)
    sum_prog.image.memory.write(a, struct.pack("<10d", *range(10)))
    assert sim.call_f64("sum", (a, 10)) == 45.0


def test_pointer_deref_and_store():
    src = """
    void swap(long* a, long* b) { long t = *a; *a = *b; *b = t; }
    """
    prog = compile_c(src)
    sim = Simulator(prog.image)
    p = prog.image.alloc_data(16)
    prog.image.memory.write_u64(p, 111)
    prog.image.memory.write_u64(p + 8, 222)
    sim.call("swap", (p, p + 8))
    assert prog.image.memory.read_u64(p) == 222
    assert prog.image.memory.read_u64(p + 8) == 111


def test_pointer_arithmetic():
    src = "long f(long* p, int i) { return *(p + i); }"
    prog = compile_c(src)
    sim = Simulator(prog.image)
    a = prog.image.alloc_data(8 * 4)
    for i in range(4):
        prog.image.memory.write_u64(a + 8 * i, 100 + i)
    assert sim.call_int("f", (a, 3)) == 103


def test_address_of_local():
    src = """
    void set7(int* p) { *p = 7; }
    int f() { int x = 1; set7(&x); return x; }
    """
    assert run_int(src, "f") == 7


def test_struct_member_access():
    src = """
    struct FP { double f; int dx, dy; };
    int f(struct FP* p) { return p->dx * 100 + p->dy; }
    """
    prog = compile_c(src)
    sim = Simulator(prog.image)
    s = prog.image.alloc_data(16)
    prog.image.memory.write_f64(s, 0.25)
    prog.image.memory.write_u32(s + 8, 3)
    prog.image.memory.write_u32(s + 12, 4)
    assert sim.call_int("f", (s,)) == 304


def test_flexible_array_member():
    src = """
    struct FS { int ps; struct FP { double f; int dx, dy; } p[]; };
    double f(struct FS* s) {
        double v = 0.0;
        for (int i = 0; i < s->ps; i++) v += s->p[i].f;
        return v;
    }
    """
    prog = compile_c(src)
    sim = Simulator(prog.image)
    base = prog.image.alloc_data(8 + 16 * 3)
    prog.image.memory.write_u32(base, 3)
    for i in range(3):
        prog.image.memory.write_f64(base + 8 + 16 * i, 0.5 * (i + 1))
    assert sim.call_f64("f", (base,)) == 0.5 + 1.0 + 1.5


def test_char_sign_extension():
    src = "int f(char* p) { return p[0]; }"
    prog = compile_c(src)
    sim = Simulator(prog.image)
    a = prog.image.alloc_data(4)
    prog.image.memory.write_u8(a, 0xF0)
    assert sim.call_int("f", (a,)) == -16


def test_unsigned_char_zero_extension():
    src = "int f(unsigned char* p) { return p[0]; }"
    prog = compile_c(src)
    sim = Simulator(prog.image)
    a = prog.image.alloc_data(4)
    prog.image.memory.write_u8(a, 0xF0)
    assert sim.call_int("f", (a,)) == 0xF0


def test_int_store_truncates():
    src = "void f(int* p, long v) { *p = v; }"
    prog = compile_c(src)
    sim = Simulator(prog.image)
    a = prog.image.alloc_data(8)
    prog.image.memory.write_u64(a, 0)
    sim.call("f", (a, 0x1_2345_6789))
    assert prog.image.memory.read_u32(a) == 0x2345_6789
    assert prog.image.memory.read_u32(a + 4) == 0


def test_local_array():
    src = """
    int f(int n) {
        int tmp[8];
        for (int i = 0; i < 8; i++) tmp[i] = i * n;
        int s = 0;
        for (int i = 0; i < 8; i++) s += tmp[i];
        return s;
    }
    """
    assert run_int(src, "f", 3) == 3 * sum(range(8))


# -- diagnostics ----------------------------------------------------------------


def test_undeclared_variable_rejected():
    with pytest.raises(CompileError):
        compile_c("int f() { return x; }")


def test_undeclared_function_rejected():
    with pytest.raises(CompileError):
        compile_c("int f() { return g(); }")


def test_type_mismatch_rejected():
    with pytest.raises(CompileError):
        compile_c("struct S { int x; }; int f(struct S* s) { return s + 1.0; }")


def test_break_outside_loop_rejected():
    with pytest.raises(CompileError):
        compile_c("int f() { break; return 0; }")


def test_syntax_error_rejected():
    with pytest.raises(CompileError):
        compile_c("int f( { return 0; }")


def test_float_type_rejected():
    with pytest.raises(CompileError):
        compile_c("float f(float* p) { return p[0]; }")


# -- code-quality characteristics the paper relies on ----------------------------


def test_mul_by_649_uses_lea_chain():
    prog = compile_c("long f(long x) { return x * 649; }")
    text = prog.disasm("f")
    assert "lea" in text
    assert "imul" not in text


def test_mul_style_imul_option():
    prog = compile_c("long f(long x) { return x * 649; }",
                     options=CompilerOptions(mul_style="imul"))
    assert "imul" in prog.disasm("f")


def test_vectorizer_applies_to_stencil_loop():
    src = """
    void line(double* r1, double* r2, int n) {
        for (int x = 1; x < n; x++)
            r2[x] = 0.25*(r1[x-1] + r1[x+1] + r1[x-16] + r1[x+16]);
    }
    """
    prog = compile_c(src)
    assert prog.vectorized == {"line"}
    text = prog.disasm("line")
    assert "addpd" in text and "movapd" in text


def test_vectorizer_skips_loop_with_call():
    src = """
    double g(double x) { return x * 2.0; }
    void line(double* r1, double* r2, int n) {
        for (int x = 1; x < n; x++) r2[x] = g(r1[x]);
    }
    """
    prog = compile_c(src)
    assert prog.vectorized == set()


def test_vectorized_matches_scalar():
    src = """
    void line(double* r1, double* r2, int n) {
        for (int x = 1; x < n; x++)
            r2[x] = 0.25*(r1[x-1] + r1[x+1] + r1[x-16] + r1[x+16]);
    }
    """
    results = []
    for vec in (False, True):
        prog = compile_c(src, options=CompilerOptions(vectorize=vec))
        sim = Simulator(prog.image)
        m = prog.image.alloc_data(8 * 64, align=16)
        out = prog.image.alloc_data(8 * 64, align=16)
        vals = [float((i * 37) % 23) for i in range(64)]
        prog.image.memory.write(m, struct.pack("<64d", *vals))
        res = sim.call("line", (m + 8 * 16, out + 8 * 16, 15))
        results.append((
            [prog.image.memory.read_f64(out + 8 * (16 + x)) for x in range(1, 15)],
            res.stats.cycles,
        ))
    assert results[0][0] == results[1][0]
    assert results[1][1] < results[0][1]  # vector version is faster


def test_vectorized_store_alignment_peeling():
    # odd starting offset forces the peel loop to run exactly once
    src = """
    void line(double* r1, double* r2, int n) {
        for (int x = 1; x < n; x++)
            r2[x] = r1[x-1] + r1[x+1];
    }
    """
    prog = compile_c(src)
    assert prog.vectorized == {"line"}
    sim = Simulator(prog.image)
    m = prog.image.alloc_data(8 * 32, align=16)
    out = prog.image.alloc_data(8 * 32, align=16)
    vals = [float(i) for i in range(32)]
    prog.image.memory.write(m, struct.pack("<32d", *vals))
    sim.call("line", (m, out, 20))
    got = [prog.image.memory.read_f64(out + 8 * x) for x in range(1, 20)]
    assert got == [vals[x - 1] + vals[x + 1] for x in range(1, 20)]
