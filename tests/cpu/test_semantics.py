"""Instruction-level semantics tests (flags, facets, SSE lanes)."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arith import (
    bits_to_f32, bits_to_f64, f32_to_bits, f64_to_bits, to_signed,
)
from repro.cpu.semantics import bind, execute
from repro.cpu.state import CPUState
from repro.mem.memory import Memory
from repro.x86.instr import Imm, Mem, gp, make, xmm
from repro.x86.registers import RAX, RBX, RCX, RDX, RSI, RSP


@pytest.fixture
def env():
    st_ = CPUState()
    mem = Memory()
    mem.map(0x1000, 0x1000)
    st_.gpr[RSP] = 0x1800
    return st_, mem


def run(env, *instrs):
    st_, mem = env
    for ins in instrs:
        execute(ins, st_, mem)
    return st_


# -- facets ----------------------------------------------------------------


def test_write32_zeroes_upper(env):
    st_, mem = env
    st_.gpr[RAX] = 0xFFFFFFFF_FFFFFFFF
    execute(make("mov", gp(RAX, 4), Imm(1)), st_, mem)
    assert st_.gpr[RAX] == 1


def test_write16_preserves_upper(env):
    st_, mem = env
    st_.gpr[RAX] = 0x11223344_55667788
    execute(make("mov", gp(RAX, 2), Imm(0xAAAA)), st_, mem)
    assert st_.gpr[RAX] == 0x11223344_5566AAAA


def test_write8_high_preserves_rest(env):
    st_, mem = env
    st_.gpr[RAX] = 0x11223344_55667788
    execute(make("mov", gp(RAX, 1, high8=True), Imm(0xCC)), st_, mem)
    assert st_.gpr[RAX] == 0x11223344_5566CC88


def test_read_high8(env):
    st_, mem = env
    st_.gpr[RAX] = 0xABCD
    execute(make("mov", gp(RBX, 1), gp(RAX, 1, high8=True)), st_, mem)
    assert st_.gpr[RBX] & 0xFF == 0xAB


# -- integer flags ------------------------------------------------------------


def test_add_carry(env):
    st_ = run(env,
              make("mov", gp(RAX), Imm(-1)),
              make("add", gp(RAX), Imm(1)))
    assert st_.gpr[RAX] == 0
    assert st_.cf and st_.zf and not st_.of


def test_add_overflow(env):
    st_, mem = env
    st_.gpr[RAX] = 0x7FFFFFFF_FFFFFFFF
    execute(make("add", gp(RAX), Imm(1)), st_, mem)
    assert st_.of and st_.sf and not st_.cf


def test_sub_borrow(env):
    st_ = run(env, make("mov", gp(RAX), Imm(3)), make("sub", gp(RAX), Imm(5)))
    assert to_signed(st_.gpr[RAX], 64) == -2
    assert st_.cf and st_.sf


def test_cmp_signed_less(env):
    st_, mem = env
    st_.gpr[RAX] = to_signed(-10, 64) & (2**64 - 1)
    st_.gpr[RBX] = 5
    execute(make("cmp", gp(RAX), gp(RBX)), st_, mem)
    assert st_.sf != st_.of  # "l" condition holds


def test_inc_preserves_carry(env):
    st_, mem = env
    st_.cf = True
    execute(make("inc", gp(RAX)), st_, mem)
    assert st_.cf


def test_logic_clears_cf_of(env):
    st_, mem = env
    st_.cf = st_.of = True
    st_.gpr[RAX] = 0
    execute(make("test", gp(RAX), gp(RAX)), st_, mem)
    assert not st_.cf and not st_.of and st_.zf


def test_neg_flags(env):
    st_, mem = env
    st_.gpr[RAX] = 5
    execute(make("neg", gp(RAX)), st_, mem)
    assert to_signed(st_.gpr[RAX], 64) == -5
    assert st_.cf


def test_imul3(env):
    st_, mem = env
    st_.gpr[RBX] = 7
    execute(make("imul", gp(RAX), gp(RBX), Imm(649)), st_, mem)
    assert st_.gpr[RAX] == 7 * 649


def test_imul_one_operand_widening(env):
    st_, mem = env
    st_.gpr[RAX] = 2**62
    st_.gpr[RBX] = 4
    execute(make("imul", gp(RBX)), st_, mem)
    assert st_.gpr[RDX] == 1  # 2^64 in rdx:rax
    assert st_.gpr[RAX] == 0


def test_idiv(env):
    st_, mem = env
    st_.gpr[RAX] = to_signed(-100, 64) & (2**64 - 1)
    execute(make("cqo"), st_, mem)
    st_.gpr[RBX] = 7
    execute(make("idiv", gp(RBX)), st_, mem)
    assert to_signed(st_.gpr[RAX], 64) == -14
    assert to_signed(st_.gpr[RDX], 64) == -2


def test_shl_shifts_and_cf(env):
    st_, mem = env
    st_.gpr[RAX] = 0x8000000000000001
    execute(make("shl", gp(RAX), Imm(1)), st_, mem)
    assert st_.gpr[RAX] == 2
    assert st_.cf


def test_shift_memory_by_cl_uses_the_memory_width(env):
    """``shl qword [m], cl`` is a 64-bit shift with a 6-bit count — the
    width is the destination's, not the count register's."""
    st_, mem = env
    mem.write_u64(0x1000, 0x1122334455667788)
    st_.gpr[RBX], st_.gpr[RCX] = 0x1000, 36
    execute(make("shl", Mem(8, base=gp(RBX)), gp(RCX, 1)), st_, mem)
    assert mem.read_u64(0x1000) == 0x5667788000000000


def test_rotate_by_one_defines_of(env):
    """SDM: a rotate by 1 sets OF when the sign bit changed (by more, OF is
    undefined and left alone)."""
    st_, mem = env
    st_.gpr[RAX] = 0x4000000000000000
    execute(make("rol", gp(RAX), Imm(1)), st_, mem)
    assert st_.gpr[RAX] == 0x8000000000000000 and st_.of and not st_.cf
    execute(make("ror", gp(RAX), Imm(1)), st_, mem)
    assert st_.gpr[RAX] == 0x4000000000000000 and st_.of and not st_.cf
    execute(make("rol", gp(RAX), Imm(4)), st_, mem)
    assert st_.of  # count > 1: untouched


def test_sar_arithmetic(env):
    st_, mem = env
    st_.gpr[RAX] = to_signed(-16, 64) & (2**64 - 1)
    execute(make("sar", gp(RAX), Imm(2)), st_, mem)
    assert to_signed(st_.gpr[RAX], 64) == -4


def test_cmovl_taken_and_not(env):
    st_, mem = env
    st_.gpr[RAX] = 1
    st_.gpr[RBX] = 2
    st_.sf, st_.of = True, False  # l
    execute(make("cmovl", gp(RAX), gp(RBX)), st_, mem)
    assert st_.gpr[RAX] == 2
    st_.sf = False  # ge
    st_.gpr[RBX] = 9
    execute(make("cmovl", gp(RAX), gp(RBX)), st_, mem)
    assert st_.gpr[RAX] == 2


def test_setcc(env):
    st_, mem = env
    st_.zf = True
    execute(make("sete", gp(RAX, 1)), st_, mem)
    assert st_.gpr[RAX] & 0xFF == 1


# -- memory ops -------------------------------------------------------------


def test_mov_store_load(env):
    st_, mem = env
    st_.gpr[RAX] = 0xDEADBEEF
    execute(make("mov", Mem(8, base=gp(RSP), disp=-8), gp(RAX)), st_, mem)
    execute(make("mov", gp(RBX), Mem(8, base=gp(RSP), disp=-8)), st_, mem)
    assert st_.gpr[RBX] == 0xDEADBEEF


def test_push_pop(env):
    st_, mem = env
    st_.gpr[RAX] = 42
    rsp0 = st_.gpr[RSP]
    execute(make("push", gp(RAX)), st_, mem)
    assert st_.gpr[RSP] == rsp0 - 8
    st_.gpr[RAX] = 0
    execute(make("pop", gp(RAX)), st_, mem)
    assert st_.gpr[RAX] == 42 and st_.gpr[RSP] == rsp0


def test_lea_computes_address_only(env):
    st_, mem = env
    st_.gpr[RSI] = 0x100
    st_.gpr[RCX] = 3
    execute(make("lea", gp(RAX), Mem(8, base=gp(RSI), index=gp(RCX), scale=8, disp=5)), st_, mem)
    assert st_.gpr[RAX] == 0x100 + 24 + 5


def test_movzx_movsx(env):
    st_, mem = env
    mem.write_u8(0x1100, 0xF0)
    execute(make("movzx", gp(RAX, 4), Mem(1, disp=0x1100)), st_, mem)
    assert st_.gpr[RAX] == 0xF0
    execute(make("movsx", gp(RBX, 4), Mem(1, disp=0x1100)), st_, mem)
    assert st_.gpr[RBX] == 0xFFFFFFF0


# -- SSE ----------------------------------------------------------------------


def test_addsd_preserves_upper_lane(env):
    st_, mem = env
    st_.xmm[0] = f64_to_bits(1.5) | (f64_to_bits(99.0) << 64)
    st_.xmm[1] = f64_to_bits(2.25)
    execute(make("addsd", xmm(0), xmm(1)), st_, mem)
    assert bits_to_f64(st_.xmm[0]) == 3.75
    assert bits_to_f64(st_.xmm[0] >> 64) == 99.0


def test_movsd_load_zeroes_upper(env):
    st_, mem = env
    mem.write_f64(0x1200, 7.0)
    st_.xmm[0] = (1 << 127) | f64_to_bits(1.0)
    execute(make("movsd", xmm(0), Mem(8, disp=0x1200)), st_, mem)
    assert st_.xmm[0] == f64_to_bits(7.0)


def test_movsd_reg_reg_preserves_upper(env):
    st_, mem = env
    st_.xmm[0] = f64_to_bits(1.0) | (f64_to_bits(5.0) << 64)
    st_.xmm[1] = f64_to_bits(2.0)
    execute(make("movsd", xmm(0), xmm(1)), st_, mem)
    assert bits_to_f64(st_.xmm[0]) == 2.0
    assert bits_to_f64(st_.xmm[0] >> 64) == 5.0


def test_movq_zeroes_upper(env):
    st_, mem = env
    st_.gpr[RCX] = f64_to_bits(3.0)
    st_.xmm[3] = (1 << 127)
    execute(make("movq", xmm(3), gp(RCX)), st_, mem)
    assert st_.xmm[3] == f64_to_bits(3.0)


def test_addpd_both_lanes(env):
    st_, mem = env
    st_.xmm[2] = f64_to_bits(1.0) | (f64_to_bits(10.0) << 64)
    st_.xmm[3] = f64_to_bits(2.0) | (f64_to_bits(20.0) << 64)
    execute(make("addpd", xmm(2), xmm(3)), st_, mem)
    assert bits_to_f64(st_.xmm[2]) == 3.0
    assert bits_to_f64(st_.xmm[2] >> 64) == 30.0


def test_movapd_misaligned_faults(env):
    st_, mem = env
    from repro.errors import SimulatorError
    with pytest.raises(SimulatorError):
        execute(make("movapd", xmm(0), Mem(16, disp=0x1008)), st_, mem)


def test_movupd_misaligned_ok(env):
    st_, mem = env
    mem.write_f64(0x1008, 4.0)
    mem.write_f64(0x1010, 8.0)
    execute(make("movupd", xmm(0), Mem(16, disp=0x1008)), st_, mem)
    assert bits_to_f64(st_.xmm[0]) == 4.0
    assert bits_to_f64(st_.xmm[0] >> 64) == 8.0


def test_unpckhpd_broadcasts_high(env):
    st_, mem = env
    st_.xmm[2] = f64_to_bits(1.0) | (f64_to_bits(2.0) << 64)
    execute(make("unpckhpd", xmm(2), xmm(2)), st_, mem)
    assert bits_to_f64(st_.xmm[2]) == 2.0
    assert bits_to_f64(st_.xmm[2] >> 64) == 2.0


def test_haddpd(env):
    st_, mem = env
    st_.xmm[1] = f64_to_bits(1.0) | (f64_to_bits(2.0) << 64)
    execute(make("haddpd", xmm(1), xmm(1)), st_, mem)
    assert bits_to_f64(st_.xmm[1]) == 3.0


def test_ucomisd_flags(env):
    st_, mem = env
    st_.xmm[0] = f64_to_bits(1.0)
    st_.xmm[1] = f64_to_bits(2.0)
    execute(make("ucomisd", xmm(0), xmm(1)), st_, mem)
    assert st_.cf and not st_.zf  # below
    execute(make("ucomisd", xmm(1), xmm(0)), st_, mem)
    assert not st_.cf and not st_.zf  # above
    execute(make("ucomisd", xmm(0), xmm(0)), st_, mem)
    assert st_.zf and not st_.cf  # equal


def test_ucomisd_nan_unordered(env):
    st_, mem = env
    st_.xmm[0] = f64_to_bits(float("nan"))
    execute(make("ucomisd", xmm(0), xmm(0)), st_, mem)
    assert st_.zf and st_.pf and st_.cf


def test_cvtsi2sd_cvttsd2si(env):
    st_, mem = env
    st_.gpr[RAX] = to_signed(-7, 64) & (2**64 - 1)
    execute(make("cvtsi2sd", xmm(0), gp(RAX)), st_, mem)
    assert bits_to_f64(st_.xmm[0]) == -7.0
    st_.xmm[1] = f64_to_bits(-2.9)
    execute(make("cvttsd2si", gp(RBX), xmm(1)), st_, mem)
    assert to_signed(st_.gpr[RBX], 64) == -2  # truncation toward zero


IND64, IND32 = 1 << 63, 1 << 31

#: value -> (cvttsd2si r64, cvttsd2si r32, cvtsd2si r64, cvtsd2si r32)
CVT2SI = [
    (float("nan"), IND64, IND32, IND64, IND32),
    (float("inf"), IND64, IND32, IND64, IND32),
    (float("-inf"), IND64, IND32, IND64, IND32),
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


@pytest.mark.parametrize("value,t64,t32,r64,r32", CVT2SI,
                         ids=[repr(row[0]) for row in CVT2SI])
def test_cvt2si_integer_indefinite_rule(env, value, t64, t32, r64, r32):
    """NaN, ±inf and out-of-range inputs give ``1 << (bits-1)``; a 32-bit
    destination is range-checked at 32 bits and zero-extends."""
    st_, mem = env
    st_.xmm[1] = f64_to_bits(value)
    for mnemonic, size, want in (("cvttsd2si", 8, t64), ("cvttsd2si", 4, t32),
                                 ("cvtsd2si", 8, r64), ("cvtsd2si", 4, r32)):
        st_.gpr[RBX] = 0xDEAD_BEEF_DEAD_BEEF
        execute(make(mnemonic, gp(RBX, size), xmm(1)), st_, mem)
        assert st_.gpr[RBX] == want, (mnemonic, size)


def test_cvtss2si_nan_and_range(env):
    st_, mem = env
    for value, want in ((float("nan"), IND32), (3e9, IND32), (-2.5, 2**32 - 2)):
        st_.xmm[1] = int.from_bytes(struct.pack("<f", value), "little")
        execute(make("cvttss2si", gp(RBX, 4), xmm(1)), st_, mem)
        assert st_.gpr[RBX] == want


def test_pxor_self_zeroes(env):
    st_, mem = env
    st_.xmm[5] = (1 << 128) - 1
    execute(make("pxor", xmm(5), xmm(5)), st_, mem)
    assert st_.xmm[5] == 0


def test_divsd_by_zero_gives_inf(env):
    st_, mem = env
    st_.xmm[0] = f64_to_bits(1.0)
    st_.xmm[1] = f64_to_bits(0.0)
    execute(make("divsd", xmm(0), xmm(1)), st_, mem)
    assert bits_to_f64(st_.xmm[0]) == float("inf")


NAN, INF = float("nan"), float("inf")

#: mnemonic, destination, source -> result, as ``repr`` (keeps ``-0.0`` and
#: ``nan`` comparable).  The SDM's operand rule: ``div`` is IEEE (NaN / 0 is
#: NaN), ``sqrt`` is correctly rounded, ``min``/``max`` return the *source*
#: unless the destination is strictly below/above it — so on a NaN in either
#: operand and when both are zeros, whatever their signs.
SSE_SCALAR = [
    ("divsd", NAN, 0.0, "nan"), ("divsd", 0.0, NAN, "nan"),
    ("divsd", 0.0, 0.0, "nan"), ("divsd", -0.0, 0.0, "nan"),
    ("divsd", 1.0, 0.0, "inf"), ("divsd", 1.0, -0.0, "-inf"),
    ("divsd", -1.0, 0.0, "-inf"), ("divsd", -1.0, -0.0, "inf"),
    ("divsd", INF, 0.0, "inf"), ("divsd", -INF, 0.0, "-inf"),
    ("divsd", INF, -0.0, "-inf"), ("divsd", INF, INF, "nan"),
    ("divsd", 1.0, INF, "0.0"), ("divsd", -1.0, INF, "-0.0"),
    ("divsd", 1.0, 3.0, "0.3333333333333333"),
    ("divss", NAN, 0.0, "nan"), ("divss", 1.0, -0.0, "-inf"),
    ("divss", 1.0, 3.0, "0.3333333432674408"),
    ("sqrtsd", 9.0, 2.0, "1.4142135623730951"),
    ("sqrtsd", 9.0, 432921.5913805363, "657.9677738161165"),  # ** 0.5: ...166
    ("sqrtsd", 9.0, 0.0, "0.0"), ("sqrtsd", 9.0, -0.0, "-0.0"),
    ("sqrtsd", 9.0, -1.0, "nan"), ("sqrtsd", 9.0, -INF, "nan"),
    ("sqrtsd", 9.0, INF, "inf"), ("sqrtsd", 9.0, NAN, "nan"),
    ("sqrtss", 9.0, 2.0, "1.4142135381698608"), ("sqrtss", 9.0, -0.0, "-0.0"),
    ("sqrtss", 9.0, -1.0, "nan"),
    ("minsd", NAN, 1.0, "1.0"), ("minsd", 1.0, NAN, "nan"),
    ("minsd", 0.0, -0.0, "-0.0"), ("minsd", -0.0, 0.0, "0.0"),
    ("minsd", -INF, INF, "-inf"), ("minsd", INF, -INF, "-inf"),
    ("minsd", 1.0, 2.0, "1.0"), ("minsd", 2.0, 1.0, "1.0"),
    ("maxsd", NAN, 1.0, "1.0"), ("maxsd", 1.0, NAN, "nan"),
    ("maxsd", 0.0, -0.0, "-0.0"), ("maxsd", -0.0, 0.0, "0.0"),
    ("maxsd", -INF, INF, "inf"), ("maxsd", INF, -INF, "inf"),
    ("maxsd", 1.0, 2.0, "2.0"), ("maxsd", 2.0, 1.0, "2.0"),
    ("minss", NAN, 1.0, "1.0"), ("minss", 1.0, NAN, "nan"),
    ("minss", 0.0, -0.0, "-0.0"), ("minss", -0.0, 0.0, "0.0"),
    ("maxss", NAN, 1.0, "1.0"), ("maxss", 1.0, NAN, "nan"),
    ("maxss", 0.0, -0.0, "-0.0"), ("maxss", -0.0, 0.0, "0.0"),
]


@pytest.mark.parametrize("mnemonic,dst,src,want", SSE_SCALAR, ids=[
    f"{m}({a!r},{b!r})" for m, a, b, _ in SSE_SCALAR])
def test_sse_scalar_follows_the_sdm_operand_rule(env, mnemonic, dst, src, want):
    st_, mem = env
    double = mnemonic.endswith("sd")
    enc, dec = (f64_to_bits, bits_to_f64) if double else (f32_to_bits, bits_to_f32)
    high = 0xABCD << 64  # the upper lanes are the destination's, untouched
    st_.xmm[0] = high | enc(dst)
    st_.xmm[1] = enc(src)
    execute(make(mnemonic, xmm(0), xmm(1)), st_, mem)
    assert repr(dec(st_.xmm[0])) == want
    assert st_.xmm[0] >> 64 == 0xABCD


# -- the operand shapes that bind flat -----------------------------------------

_M = Mem
#: one row per operand shape that binds to a single closure, and per shape
#: the memory accessors form the address of inline: (instruction, set
#: flags?, registers before, memory before, registers after, memory after,
#: ``unaligned16``).  Every value is written by hand.
_FLAT = {
    "mov r32, [b+d] zero-extends": (
        make("mov", gp(RAX, 4), _M(4, base=gp(RBX), disp=0x10)), True,
        {"rax": 2**64 - 1, "rbx": 0x1000},
        {0x1010: bytes.fromhex("8877665544332211")},
        {"rax": 0x55667788}, {}, 0),
    "mov r64, [b+i*8+d], negative disp, index product wraps": (
        make("mov", gp(RAX), _M(8, base=gp(RBX), index=gp(RCX), scale=8,
                                disp=-0x30)), True,
        {"rbx": 0x1040, "rcx": 0x2000_0000_0000_0001},
        {0x1018: bytes.fromhex("0102030405060708")},
        {"rax": 0x0807060504030201}, {}, 0),
    "mov r32, [abs]": (
        make("mov", gp(RAX, 4), _M(4, disp=0x1010)), True,
        {"rax": 2**64 - 1}, {0x1010: bytes.fromhex("8877665544332211")},
        {"rax": 0x55667788}, {}, 0),
    "mov [b+d], r32 writes 4 bytes only": (
        make("mov", _M(4, base=gp(RBX), disp=8), gp(RAX, 4)), True,
        {"rax": 0x1122334455667788, "rbx": 0x1000},
        {0x1008: b"\xff" * 8},
        {}, {0x1008: bytes.fromhex("88776655ffffffff")}, 0),
    "mov [b+i*8+d], imm32 sign-extends": (
        make("mov", _M(8, base=gp(RBX), index=gp(RCX), scale=8, disp=8),
             Imm(-2, 4)), True,
        {"rbx": 0x1000, "rcx": 1}, {},
        {}, {0x1010: bytes.fromhex("feffffffffffffff")}, 0),
    "mov r64, imm32 sign-extends": (
        make("mov", gp(RAX), Imm(-2, 4)), True,
        {}, {}, {"rax": 0xFFFF_FFFF_FFFF_FFFE}, {}, 0),
    "movsd x, [b+i*8+d] zeroes the upper lane": (
        make("movsd", xmm(1), _M(8, base=gp(RBX), index=gp(RCX), scale=8,
                                 disp=8)), True,
        {"xmm1": 2**128 - 1, "rbx": 0x1000, "rcx": 1},
        {0x1010: bytes.fromhex("000000000000f83f")},
        {"xmm1": 0x3FF8_0000_0000_0000}, {}, 0),
    "movsd x, x keeps the upper lane": (
        make("movsd", xmm(1), xmm(2)), True,
        {"xmm1": 0xAAAA_AAAA_AAAA_AAAA_BBBB_BBBB_BBBB_BBBB,
         "xmm2": 0xCCCC_CCCC_CCCC_CCCC_DDDD_DDDD_DDDD_DDDD}, {},
        {"xmm1": 0xAAAA_AAAA_AAAA_AAAA_DDDD_DDDD_DDDD_DDDD}, {}, 0),
    "movsd [b+i*8+d], x writes 8 bytes only": (
        make("movsd", _M(8, base=gp(RBX), index=gp(RCX), scale=8), xmm(1)),
        True, {"xmm1": 0xAAAA_AAAA_AAAA_AAAA_0102_0304_0506_0708,
               "rbx": 0x1000, "rcx": 2}, {0x1010: b"\xff" * 16},
        {}, {0x1010: bytes.fromhex("0807060504030201ffffffffffffffff")}, 0),
    "movsxd r64, r32 with the sign bit set": (
        make("movsxd", gp(RAX), gp(RCX, 4)), True,
        {"rcx": 0x1234_5678_8000_0001}, {},
        {"rax": 0xFFFF_FFFF_8000_0001}, {}, 0),
    "movsxd r64, [b+d] with the sign bit set": (
        make("movsxd", gp(RAX), _M(4, base=gp(RBX), disp=4)), True,
        {"rbx": 0x1000}, {0x1004: bytes.fromhex("feffffff77")},
        {"rax": 0xFFFF_FFFF_FFFF_FFFE}, {}, 0),
    "movzx r32, r8": (
        make("movzx", gp(RAX, 4), gp(RCX, 1)), True,
        {"rax": 2**64 - 1, "rcx": 0x1FF}, {}, {"rax": 0xFF}, {}, 0),
    "lea r32, [b+i*4+d] truncates": (
        make("lea", gp(RAX, 4), _M(8, base=gp(RBX), index=gp(RCX), scale=4,
                                   disp=0x10)), True,
        {"rax": 2**64 - 1, "rbx": 0xFFFF_FFFF, "rcx": 1}, {},
        {"rax": 0x13}, {}, 0),
    "lea r64, [b+d], negative disp": (
        make("lea", gp(RAX), _M(8, base=gp(RBX), disp=-8)), True,
        {"rbx": 4}, {}, {"rax": 0xFFFF_FFFF_FFFF_FFFC}, {}, 0),
    "lea r64, [i*8+d]": (
        make("lea", gp(RAX), _M(8, index=gp(RCX), scale=8, disp=0x10)), True,
        {"rcx": 3}, {}, {"rax": 0x28}, {}, 0),
    "quiet add r64, r64 wraps": (
        make("add", gp(RAX), gp(RBX)), False,
        {"rax": 2**64 - 1, "rbx": 2}, {}, {"rax": 1}, {}, 0),
    "quiet add r32, imm wraps and zero-extends": (
        make("add", gp(RAX, 4), Imm(1)), False,
        {"rax": 0x1_FFFF_FFFF}, {}, {"rax": 0}, {}, 0),
    "quiet imul r32, r32, imm wraps": (
        make("imul", gp(RAX, 4), gp(RCX, 4), Imm(-3)), False,
        {"rcx": 0xFFFF_FFFF_0000_0005}, {}, {"rax": 0xFFFF_FFF1}, {}, 0),
    "add r64, [b+i*8+d]": (
        make("add", gp(RAX), _M(8, base=gp(RBX), index=gp(RCX), scale=8,
                                disp=8)), True,
        {"rax": 5, "rbx": 0x1000, "rcx": 1},
        {0x1010: bytes.fromhex("0700000000000000")}, {"rax": 12}, {}, 0),
    "misaligned 16-byte load counts unaligned16": (
        make("movupd", xmm(0), _M(16, base=gp(RBX), disp=8)), True,
        {"rbx": 0x1000}, {0x1008: bytes(range(16))},
        {"xmm0": int.from_bytes(bytes(range(16)), "little")}, {}, 1),
    "misaligned 16-byte store counts unaligned16": (
        make("movupd", _M(16, base=gp(RBX), disp=8), xmm(0)), True,
        {"rbx": 0x1000, "xmm0": int.from_bytes(bytes(range(16)), "little")},
        {}, {}, {0x1008: bytes(range(16))}, 1),
}

_REGS = {"rax": ("gpr", RAX), "rbx": ("gpr", RBX), "rcx": ("gpr", RCX)}


def _reg(name: str) -> tuple[str, int]:
    return _REGS.get(name) or ("xmm", int(name[3:]))


@pytest.mark.parametrize("name", sorted(_FLAT))
def test_flat_shape(env, name):
    ins, set_flags, regs, memory, want_regs, want_mem, unaligned = _FLAT[name]
    st_, mem = env
    for reg, value in regs.items():
        file, i = _reg(reg)
        getattr(st_, file)[i] = value
    for addr, data in memory.items():
        mem.write(addr, data)
    st_.cf = st_.zf = True
    flags = st_.flags_byte()
    assert bind(ins, set_flags)(st_, mem) is None
    for reg, value in want_regs.items():
        file, i = _reg(reg)
        assert getattr(st_, file)[i] == value, reg
    for addr, data in want_mem.items():
        assert mem.read(addr, len(data)) == data
    assert st_.unaligned16 == unaligned
    if not set_flags:
        assert st_.flags_byte() == flags


# -- property: 64-bit add matches Python modular arithmetic --------------------


@given(a=st.integers(min_value=0, max_value=2**64 - 1),
       b=st.integers(min_value=0, max_value=2**64 - 1))
def test_add_modular_property(a, b):
    st_ = CPUState()
    mem = Memory()
    st_.gpr[RAX] = a
    st_.gpr[RBX] = b
    execute(make("add", gp(RAX), gp(RBX)), st_, mem)
    assert st_.gpr[RAX] == (a + b) % 2**64
    assert st_.cf == (a + b >= 2**64)
    assert st_.zf == ((a + b) % 2**64 == 0)


@given(a=st.floats(allow_nan=False, allow_infinity=False, width=64),
       b=st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_mulsd_matches_ieee(a, b):
    st_ = CPUState()
    mem = Memory()
    st_.xmm[0] = f64_to_bits(a)
    st_.xmm[1] = f64_to_bits(b)
    execute(make("mulsd", xmm(0), xmm(1)), st_, mem)
    expect = struct.unpack("<d", struct.pack("<d", a * b))[0]
    got = bits_to_f64(st_.xmm[0])
    assert got == expect or (got != got and expect != expect)
