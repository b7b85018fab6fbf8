"""GVN numbers a float constant by its bits, not by Python float equality.

``0.0 == -0.0`` in Python, so keying a ``ConstantFP`` by its value gave
``fmul x, 0.0`` and ``fmul x, -0.0`` one value number and GVN replaced the
second by the first: ``1.0 / (x * -0.0)`` at ``x = 2.0`` read ``-inf``
before ``gvn.run`` and ``+inf`` after.  Keyed by bit pattern the two stay
apart, and two NaNs with the same payload (distinct Python objects, which
never compare equal) share one key.
"""

from __future__ import annotations

import math

import pytest

from repro.arith import bits_to_f64, f64_to_bits
from repro.ir import (
    DOUBLE, Function, FunctionType, IRBuilder, Interpreter, Module, verify,
)
from repro.ir.passes import O3Options, gvn, run_o3


def _pair(op: str, first: float, second: float, x_through_fdiv: bool = False):
    """``a = op(x, first); b = op(x, second); ret b`` (or ``1.0 / b``);
    ``a`` is dead, so only value numbering can make ``b`` read it."""
    m = Module("t")
    f = Function("f", FunctionType(DOUBLE, (DOUBLE,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    x = f.args[0]
    one, two = b.fconst(DOUBLE, 1.0), b.fconst(DOUBLE, 2.0)
    if op == "fcmp":
        b.fcmp("oeq", x, b.fconst(DOUBLE, first))
        r = b.select(b.fcmp("oeq", x, b.fconst(DOUBLE, second)), one, two)
    else:
        b.binop(op, x, b.fconst(DOUBLE, first))
        r = b.binop(op, x, b.fconst(DOUBLE, second))
    if x_through_fdiv:
        r = b.fdiv(one, r)
    b.ret(r)
    verify(f)
    return m, f


def _bits(m: Module, x: float) -> int:
    return f64_to_bits(Interpreter(m).run("f", [x]))


def test_the_reproducer_keeps_its_sign_through_gvn_and_o3():
    for optimize in (gvn.run,
                     lambda f: run_o3(f, O3Options(fast_math=False))):
        m, f = _pair("fmul", 0.0, -0.0, x_through_fdiv=True)
        assert Interpreter(m).run("f", [2.0]) == -math.inf
        optimize(f)
        verify(f)
        assert Interpreter(m).run("f", [2.0]) == -math.inf


#: (op, x that tells the two results apart, where one exists)
SIGNED_ZERO_ROWS = [("fadd", -0.0), ("fmul", 2.0), ("fdiv", 2.0),
                    ("fcmp", 0.0)]


@pytest.mark.parametrize("op,x", SIGNED_ZERO_ROWS)
@pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zeros_get_two_value_numbers(op, x, first, second):
    m, f = _pair(op, first, second)
    before = _bits(m, x)
    changed = gvn.run(f)
    assert _bits(m, x) == before
    assert changed is False


def test_equal_payload_nans_share_a_value_number():
    quiet = bits_to_f64(0x7FF8_0000_0000_0001)
    twin = bits_to_f64(0x7FF8_0000_0000_0001)
    assert quiet is not twin and quiet != twin
    m, f = _pair("fadd", quiet, twin)
    before = _bits(m, 1.0)
    assert gvn.run(f) is True
    verify(f)
    assert _bits(m, 1.0) == before


def test_different_payload_nans_stay_apart():
    m, f = _pair("fadd", bits_to_f64(0x7FF8_0000_0000_0001),
                 bits_to_f64(0x7FF8_0000_0000_0002))
    assert gvn.run(f) is False
