"""Flags after a shift whose masked count is 0.

A zero count leaves every flag untouched (the simulator's shift returns
early, hardware does the same): ``cmp rdi, rsi; shl rax, cl; sete al`` with
``cl = 0`` answers the *cmp*.  The eager lifter recomputed z/s/p from the
shift's result whatever the count, so lifted + O3 + JIT code answered the
shift.  With flag recipes an immediate 0 writes no flags at all and a ``cl``
count makes each flag that is read ``select(count == 0, previous, new)``.

CF after a *non-zero* count is defined by the ISA but modelled as undef
(README "Limitations"), so the ``cl = 1`` x ``c`` cell only has to compile.
"""

import pytest

from repro.cpu import Image, Simulator
from repro.ir import print_function
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature, LiftOptions
from repro.x86 import parse_asm
from repro.x86.asm import assemble

from test_lifter import lift_asm

SIG = FunctionSignature(("i", "i", "i"), "i")
COUNTS = {"imm0": ("0", 0), "cl0": ("cl", 0), "cl1": ("cl", 1)}
CONSUMERS = {"z": "sete", "s": "sets", "c": "setb"}
#: (rdi, rsi): the cmp sets z / s+c / nothing / o; rdi is also what is shifted
OPERANDS = [(5, 5), (5, 6), (6, 5), (0, 0), (1 << 63, 1), (1 << 62, 1 << 62),
            ((1 << 64) - 1, 0), (0, (1 << 64) - 1)]


def _asm(op: str, count: str, setcc: str) -> str:
    return f"""
        mov rcx, rdx
        mov rax, rdi
        cmp rdi, rsi
        {op} rax, {count}
        {setcc} al
        movzx eax, al
        ret"""


@pytest.mark.parametrize("flag_cache", [True, False])
@pytest.mark.parametrize("flag", CONSUMERS)
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("op", ["shl", "shr", "sar"])
def test_flags_after_shift(op, count, flag, flag_cache):
    operand, cl = COUNTS[count]
    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(_asm(op, operand, CONSUMERS[flag])),
                       base=base)
    img.add_function("f", code)
    res = BinaryTransformer(
        img, lift_options=LiftOptions(flag_cache=flag_cache),
        machine_verify=True).llvm_identity(base, SIG, name="f.jit")
    assert res.machine_verdict in ("proved", "inconclusive")
    if (count, flag) == ("cl1", "c"):
        return
    sim = Simulator(img)
    for a, b in OPERANDS:
        want = sim.call(base, (a, b, cl)).rax
        got = sim.call(res.addr, (a, b, cl)).rax
        assert got == want, (op, count, flag, hex(a), hex(b))


def test_immediate_zero_keeps_the_flag_cache():
    """``shl r, 0`` between a cmp and its consumer is invisible: the
    condition is still the single icmp over the cmp's operands (Fig. 6c)."""
    _img, _m, f = lift_asm("""
        mov rax, rdi
        cmp rdi, rsi
        shl rax, 0
        cmovl rax, rsi
        ret""", FunctionSignature(("i", "i"), "i"))
    text = print_function(f)
    assert "icmp slt i64" in text and "xor" not in text
