"""The arithmetic leaf against Python big-ints and IEEE-754.

``repro.arith`` is what the simulator, DBrew's emulator, both constant
folders, the IR interpreter and the machine verifier compute with, so its
rules are pinned here once: properties against exact integer arithmetic and
``math``, literal tables for the zero/NaN/range edges, and one mutant per
rule that drifted before (a quotient through a float, a NaN dividend) that
the same checks must reject.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import arith

NAN, INF = float("nan"), float("inf")

#: wide enough for the simulator's 128-bit ``rdx:rax`` dividend
ints = st.integers(-(1 << 127), (1 << 127) - 1)
divisors = ints.filter(bool)


def check_division(div, rem) -> None:
    @given(ints, divisors)
    @example((1 << 62) + 1, 3)
    @example(-(1 << 63) + 1, 63)
    @example(-7, 2)
    def law(n: int, d: int) -> None:
        q, r = div(n, d), rem(n, d)
        assert q * d + r == n
        assert abs(r) < abs(d)
        assert r == 0 or (r < 0) == (n < 0)
    law()


def test_truncating_division_is_exact():
    check_division(arith.trunc_div, arith.trunc_rem)


def test_mutant_quotient_through_a_float_fails():
    def div(n: int, d: int) -> int:
        return int(n / d)
    with pytest.raises(AssertionError):
        check_division(div, lambda n, d: n - div(n, d) * d)


@given(st.sampled_from([1, 8, 16, 32, 64, 128]), ints)
def test_to_signed_round_trips(bits: int, v: int):
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    s = arith.to_signed(v, bits)
    assert -half <= s < half
    assert s & mask == v & mask                 # same bit pattern
    assert arith.to_signed(s, bits) == s        # idempotent on the range
    if -half <= v < half:
        assert s == v


#: dividend, divisor -> quotient (``repr`` keeps the zeros' and NaN's identity)
FDIV = [
    (0.0, 0.0, "nan"), (-0.0, 0.0, "nan"), (0.0, -0.0, "nan"),
    (NAN, 0.0, "nan"), (NAN, -0.0, "nan"), (NAN, 1.0, "nan"),
    (1.0, NAN, "nan"), (0.0, NAN, "nan"), (INF, INF, "nan"),
    (1.0, 0.0, "inf"), (1.0, -0.0, "-inf"), (-1.0, 0.0, "-inf"),
    (-1.0, -0.0, "inf"), (INF, 0.0, "inf"), (INF, -0.0, "-inf"),
    (-INF, 0.0, "-inf"), (-INF, -0.0, "inf"), (5e-324, 0.0, "inf"),
    (1.0, INF, "0.0"), (-1.0, INF, "-0.0"), (0.0, 1.0, "0.0"),
    (-0.0, 1.0, "-0.0"), (1.0, 3.0, "0.3333333333333333"),
    (1e308, 1e-308, "inf"),
]


def check_fdiv(fdiv) -> None:
    for x, y, want in FDIV:
        assert repr(fdiv(x, y)) == want, (x, y)


def test_fdiv_zero_and_nan_table():
    check_fdiv(arith.fdiv)


def test_mutant_fdiv_that_signs_a_nan_dividend_fails():
    def fdiv(x: float, y: float) -> float:
        if y == 0.0:
            if x == 0.0:
                return NAN
            return INF if (x > 0) == (math.copysign(1.0, y) > 0) else -INF
        return x / y
    with pytest.raises(AssertionError):
        check_fdiv(fdiv)


@given(st.floats(), st.floats().filter(bool))
def test_fdiv_is_python_division_off_zero(x: float, y: float):
    got, want = arith.fdiv(x, y), x / y
    assert got == want or (got != got and want != want)


@given(st.floats(min_value=0.0))
def test_fsqrt_is_math_sqrt(x: float):
    assert arith.fsqrt(x) == math.sqrt(x)


def test_fsqrt_edges():
    assert repr(arith.fsqrt(-0.0)) == "-0.0"
    assert arith.fsqrt(INF) == INF
    for x in (-1.0, -5e-324, -INF, NAN):
        assert math.isnan(arith.fsqrt(x))
    # correctly rounded: ``x ** 0.5`` is one ulp up here
    assert arith.fsqrt(432921.5913805363) == 657.9677738161165


#: value -> its binary32 rounding
ROUND_F32 = [
    (1.5, "1.5"), (0.1, "0.10000000149011612"), (1e-50, "0.0"),
    (-1e-50, "-0.0"), (16777217.0, "16777216.0"),     # tie to even
    (3.4028234663852886e38, "3.4028234663852886e+38"),  # FLT_MAX
    (3.4028235677973366e38, "inf"),      # rounds past FLT_MAX: no exception
    (1e308, "inf"), (-1e308, "-inf"), (INF, "inf"), (NAN, "nan"),
]


@pytest.mark.parametrize("value,want", ROUND_F32)
def test_round_f32(value, want):
    assert repr(arith.round_f32(value)) == want


@given(st.floats(allow_nan=False))
def test_f64_codec_round_trips(x: float):
    bits = arith.f64_to_bits(x)
    assert 0 <= bits < 1 << 64
    assert repr(arith.bits_to_f64(bits)) == repr(x)


@given(st.integers(0, (1 << 32) - 1))
def test_f32_codec_round_trips(bits: int):
    x = arith.bits_to_f32(bits)
    assert x != x or arith.f32_to_bits(x) == bits


IND64, IND32 = 1 << 63, 1 << 31

#: value -> (truncate to 64, truncate to 32, round to 64, round to 32): the
#: ``cvt(t)sd2si`` rule the IR's ``fptosi`` shares
FLOAT_TO_SINT = [
    (NAN, IND64, IND32, IND64, IND32),
    (INF, IND64, IND32, IND64, IND32),
    (-INF, IND64, IND32, IND64, IND32),
    (1e30, IND64, IND32, IND64, IND32),
    (-1e30, IND64, IND32, IND64, IND32),
    (9.3e18, IND64, IND32, IND64, IND32),
    (-9.3e18, IND64, IND32, IND64, IND32),
    (-(2.0 ** 63), IND64, IND32, IND64, IND32),  # INT64_MIN fits: same pattern
    (9223372036854774784.0, 9223372036854774784, IND32,
     9223372036854774784, IND32),
    (2.0 ** 32, 1 << 32, IND32, 1 << 32, IND32),
    (2147483647.6, 0x7FFF_FFFF, 0x7FFF_FFFF, 0x8000_0000, IND32),
    (-2147483648.0, 0xFFFF_FFFF_8000_0000, 0x8000_0000,
     0xFFFF_FFFF_8000_0000, 0x8000_0000),
    (3.7, 3, 3, 4, 4),
    (-3.7, 2**64 - 3, 2**32 - 3, 2**64 - 4, 2**32 - 4),
    (2.5, 2, 2, 2, 2),   # round-to-nearest-even
    (3.5, 3, 3, 4, 4),
    (-0.0, 0, 0, 0, 0),
]


@pytest.mark.parametrize("value,t64,t32,r64,r32", FLOAT_TO_SINT,
                         ids=[repr(row[0]) for row in FLOAT_TO_SINT])
def test_float_to_sint(value, t64, t32, r64, r32):
    assert arith.float_to_sint(value, 64) == t64
    assert arith.float_to_sint(value, 32) == t32
    assert arith.float_to_sint(value, 64, truncate=False) == r64
    assert arith.float_to_sint(value, 32, truncate=False) == r32
