"""Signed division through every engine — the stratum no generator has.

``diffcorpus`` never emits a division, so for nineteen PRs nothing compared
what ``idiv`` returns across the engines.  Here hand-assembled ``cqo; idiv
r/m64`` and ``cdq; idiv r/m32`` (quotient and remainder, register and
memory divisor) run through the native simulator, the interpreter on the
lifted and on the ``-O3`` IR, the JIT, ``llvm-fix`` with both operands
fixed (the constant folder computes the result), DBrew with both parameters
set (its emulator does) and MCC compiling the same constant expression.
Every engine must return Python's exact big-int truncation; the operands
sit where ``int(n / d)`` through a binary64 does not.

What the engines do *not* get right is graded at the bottom: a typed
refusal passes, a silent wrong answer is a strict ``xfail`` with its reason
(ROADMAP, torture corpus, "known reds").  ``INT_MIN / -1`` is refused by
the simulator, the JIT and DBrew, and wraps in the IR engines.
"""

from __future__ import annotations

import functools

import pytest

from repro.cc import compile_c
from repro.cpu import Image, Simulator
from repro.dbrew import Rewriter
from repro.errors import CompileError, IRInterpError, ReproError, SimulatorError
from repro.ir import Interpreter, Module
from repro.ir.passes import run_o3
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.x86 import parse_asm
from repro.x86.asm import assemble

SIG = FunctionSignature(("i", "i"), "i")
INT64_MIN, INT32_MIN, INT32_MAX = -(1 << 63), -(1 << 31), (1 << 31) - 1

#: dividend, divisor — 64-bit magnitudes a binary64 cannot hold, and signs
PAIRS64 = [
    ((1 << 53) + 1, 3), ((1 << 53) - 1, 3), ((1 << 53) + 1, -3),
    (-(1 << 53) - 1, 7), ((1 << 62) + 1, 3), (-((1 << 62) + 1), 3),
    ((1 << 62) + 1, -3), (-((1 << 62) + 1), -3), (INT64_MIN + 1, 63),
    (INT64_MIN + 1, -1), (-INT64_MIN - 1, (1 << 62) + 1),
    (7, 2), (-7, 2), (7, -2), (-7, -2),
]
PAIRS32 = [
    (INT32_MAX, 1), (INT32_MAX, -1), (INT32_MIN, 1), (INT32_MIN + 1, -1),
    (INT32_MIN, 2), (INT32_MIN, INT32_MAX), (INT32_MAX, INT32_MIN),
    (7, 2), (-7, 2), (7, -2), (-7, -2),
]

#: form -> (assembly, operand bits, True for the remainder)
FORMS = {
    "q64.reg": ("mov rax, rdi\ncqo\nidiv rsi\nret", 64, False),
    "r64.reg": ("mov rax, rdi\ncqo\nidiv rsi\nmov rax, rdx\nret", 64, True),
    "q64.mem": ("push rsi\nmov rax, rdi\ncqo\nidiv qword ptr [rsp]\n"
                "pop rcx\nret", 64, False),
    "r64.mem": ("push rsi\nmov rax, rdi\ncqo\nidiv qword ptr [rsp]\n"
                "mov rax, rdx\npop rcx\nret", 64, True),
    "q32.reg": ("mov eax, edi\ncdq\nidiv esi\nret", 32, False),
    "r32.reg": ("mov eax, edi\ncdq\nidiv esi\nmov eax, edx\nret", 32, True),
    "q32.mem": ("push rsi\nmov eax, edi\ncdq\nidiv dword ptr [rsp]\n"
                "pop rcx\nret", 32, False),
    "r32.mem": ("push rsi\nmov eax, edi\ncdq\nidiv dword ptr [rsp]\n"
                "mov eax, edx\npop rcx\nret", 32, True),
}
CASES = [(form, n, d) for form, (_asm, bits, _rem) in FORMS.items()
         for n, d in (PAIRS64 if bits == 64 else PAIRS32)]


def exact(n: int, d: int, remainder: bool) -> int:
    """C's ``/`` and ``%`` on Python big-ints: no float anywhere."""
    q = abs(n) // abs(d)
    if (n < 0) != (d < 0):
        q = -q
    return n - q * d if remainder else q


class Engines:
    """One hand-assembled function, lifted, optimised and JIT-compiled."""

    def __init__(self, asm: str) -> None:
        self.image = Image()
        self.base = self.image.next_code_addr()
        code, _ = assemble(parse_asm(asm), base=self.base)
        self.image.add_function("f", code)
        self.sim = Simulator(self.image)
        module = Module("division")
        memory = self.image.memory
        self.lifted = lift_function(memory, self.base, SIG,
                                    LiftOptions(name="f"), module)
        self.optimised = lift_function(memory, self.base, SIG,
                                       LiftOptions(name="f.o3"), module)
        run_o3(self.optimised)
        self.interp = Interpreter(module, memory)
        self.jit = BinaryTransformer(self.image).llvm_identity(
            self.base, SIG, name="f.jit").addr

    def native(self, n: int, d: int) -> int:
        return self.sim.call(self.base, (n, d)).rax

    def interp_lifted(self, n: int, d: int) -> int:
        return self.interp.run(self.lifted, [n, d])

    def interp_o3(self, n: int, d: int) -> int:
        return self.interp.run(self.optimised, [n, d])

    def jitted(self, n: int, d: int) -> int:
        return self.sim.call(self.jit, (n, d)).rax

    def llvm_fix(self, n: int, d: int) -> int:
        """Both operands fixed: the constant folder divides.  Called with
        other arguments, so an unfixed parameter would show."""
        res = BinaryTransformer(self.image).llvm_fixed(
            self.base, SIG, {0: n, 1: d}, name=f"f.fix.{n:x}.{d:x}")
        return self.sim.call(res.addr, (1, 1)).rax

    def rewrite(self, n: int, d: int) -> Rewriter:
        rw = Rewriter(self.image, self.base).set_signature(("i", "i"))
        rw.set_par(0, n).set_par(1, d)
        return rw

    def dbrew(self, n: int, d: int) -> int:
        """Both parameters set: DBrew's emulator divides."""
        rw = self.rewrite(n, d)
        addr = rw.rewrite()
        assert rw.last_error is None and addr != self.base
        return self.sim.call(addr, (1, 1)).rax

    ALL = (native, interp_lifted, interp_o3, jitted, llvm_fix, dbrew)


@functools.cache
def engines(form: str) -> Engines:
    return Engines(FORMS[form][0])


@pytest.mark.parametrize("form,n,d", CASES,
                         ids=[f"{f}:{n}/{d}" for f, n, d in CASES])
def test_every_engine_truncates_exactly(form, n, d):
    _asm, bits, remainder = FORMS[form]
    mask = (1 << bits) - 1
    want = exact(n, d, remainder) & mask
    un, ud = n & (1 << 64) - 1, d & (1 << 64) - 1
    got = {run.__name__: run(engines(form), un, ud) for run in Engines.ALL}
    assert got == dict.fromkeys(got, want)


@pytest.mark.parametrize("n,d", PAIRS64, ids=[f"{n}/{d}" for n, d in PAIRS64])
@pytest.mark.parametrize("op", "/%")
def test_mcc_folds_the_constant_expression_exactly(op, n, d):
    prog = compile_c(f"long f() {{ return ({n}) {op} ({d}); }}")
    state = Simulator(prog.image).call(prog.image.symbol("f"), ())
    assert state.stats.per_mnemonic.get("idiv", 0) == 0  # folded, not run
    assert state.rax == exact(n, d, op == "%") & (1 << 64) - 1


def test_the_quotient_the_oracle_got_wrong():
    """``(2**62 + 1) / 3``: a binary64 quotient ends in ...216."""
    n, want = 4611686018427387905, 1537228672809129301
    e = engines("q64.reg")
    assert [run(e, n, 3) for run in Engines.ALL] == [want] * len(Engines.ALL)
    prog = compile_c("long f() { return 4611686018427387905 / 3; }")
    assert Simulator(prog.image).call(prog.image.symbol("f"), ()).rax == want


# -- graded, not fixed: typed refusal passes, a silent wrong answer is red -----


def test_zero_divisor_is_a_typed_refusal_everywhere():
    e = engines("q64.reg")
    for run in (Engines.native, Engines.jitted, Engines.llvm_fix):
        with pytest.raises(SimulatorError, match="division by zero"):
            run(e, 7, 0)
    for run in (Engines.interp_lifted, Engines.interp_o3):
        with pytest.raises(IRInterpError, match="sdiv by zero"):
            run(e, 7, 0)
    # DBrew refuses at rewrite time and hands back the original (Sec. II)
    rw = e.rewrite(7, 0)
    assert rw.rewrite() == e.base
    assert "division by zero" in str(rw.last_error)
    with pytest.raises(CompileError, match="constant division by zero"):
        compile_c("long f() { return 7 / 0; }")


#: ``INT_MIN / -1`` at both widths: the quotient does not fit, #DE on hardware
OVERFLOW = {"q64.reg": INT64_MIN, "q32.reg": INT32_MIN}


def _refuses_int_min_by_minus_one(form: str) -> None:
    """The machine engines raise; DBrew's emulator raises at rewrite time
    and hands back the original, as for a zero divisor."""
    e = engines(form)
    n, d = OVERFLOW[form] & (1 << 64) - 1, (1 << 64) - 1
    for run in (Engines.native, Engines.jitted):
        with pytest.raises(SimulatorError, match="division overflow"):
            run(e, n, d)
    rw = e.rewrite(n, d)
    assert rw.rewrite() == e.base
    assert "division overflow" in str(rw.last_error)


def test_int64_min_by_minus_one_is_refused():
    _refuses_int_min_by_minus_one("q64.reg")


def test_int32_min_by_minus_one_is_refused():
    _refuses_int_min_by_minus_one("q32.reg")


@pytest.mark.xfail(strict=True, reason=(
    "INT_MIN / -1 is #DE on hardware, but the IR engines wrap: the "
    "interpreter's sdiv (lifted and -O3) and the constant folder under "
    "llvm-fix return INT_MIN with no refusal"))
@pytest.mark.parametrize("run", (Engines.interp_lifted, Engines.interp_o3,
                                 Engines.llvm_fix),
                         ids=lambda run: run.__name__)
@pytest.mark.parametrize("form", OVERFLOW)
def test_int_min_by_minus_one_in_the_ir_engines_is_refused(form, run):
    with pytest.raises(ReproError):
        run(engines(form), OVERFLOW[form] & (1 << 64) - 1, (1 << 64) - 1)


@pytest.mark.xfail(strict=True, reason=(
    "lifter._i_idiv assumes the canonical cqo/cdq: it lifts idiv as sdiv of "
    "rax alone, so a dividend whose rdx is not the sign of rax is divided "
    "as if it were, with no refusal"))
def test_idiv_with_a_non_canonical_rdx_is_lifted_or_refused():
    e = Engines("mov rax, rdi\nxor edx, edx\nidiv rsi\nret")
    n = -7 & (1 << 64) - 1          # rdx:rax = 2**64 - 7, not -7
    assert e.native(n, 4) == ((1 << 64) - 7) // 4
    assert e.interp_lifted(n, 4) == e.native(n, 4)
