"""Demand-driven lifting against a parent-captured oracle.

``golden_lifted.json`` was captured at the commit *before* the lifter became
demand-driven — when every block got 54 phis and every flag writer six
flags, and ``dce`` removed ~80 % of it — by running this file as a script::

    PYTHONPATH=<parent>/src python tests/lift/test_demand_lift.py --capture

It holds the sha-256 of the name-normalised printed IR of ``dce(lift)`` for
every function the 24 ``compile_cold`` stencil cells lift, the lint corpora,
the hand-written snippets below and ``diffcorpus`` seeds 0-999 x {int, sse},
each under the four ``flag_cache`` x ``facet_cache`` settings.

The contract of the demand-driven lifter is that its *raw* output is that
live closure — the same instructions in the same order — so today's
``lift_function`` must hash equal without any ``dce``, ``dce.run`` on it
must return False, and ``verify`` and the strict-SSA checker must be clean.
``REPRO_LIFT_SEEDS`` scales the corpus part (default 200; seeds past the
fixture's 1 000 keep the post-condition checks and lose the hash).  Three
mutants of the lifter must each fail.

Declared exception: a shift whose masked count is 0 leaves the flags alone
(a defined-behaviour bug at the parent, see ``test_shift_flags.py``).  The
flags of a shift are dead in every golden case — the corpus generator reads
flags only right after a ``cmp`` and no snippet here shifts — so
``SHIFT_FIX_CHANGES`` is empty.

The 16 ``stencil`` entries of the four ``dbrew+llvm`` cells of ``flat`` and
``sorted`` (four cache settings each) were re-captured from today's raw
lift when DBrew began to count a fork only against the loop it sits in
and to emit known source registers as immediates: the lifter's input
changed, not the lifter.  No other entry moved.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import pytest

from repro.analysis.lint import CORPORA
from repro.analysis.strictness import check_strict_ssa
from repro.bench import modes as M
from repro.cc import compile_c
from repro.cpu import Image
from repro.errors import IRError
from repro.ir import Module, print_function, verify
from repro.ir.module import Function
from repro.ir.passes import dce
from repro.jit import plan as jit_plan
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.testing.diffcorpus import GENERATORS
from repro.x86 import parse_asm
from repro.x86.asm import assemble

GOLDEN = Path(__file__).with_name("golden_lifted.json")
SETUP = JacobiSetup(sz=17, sweeps=1)
TRANSFORMS = ("llvm", "llvm-fix", "dbrew", "dbrew+llvm")
SEEDS = int(os.environ.get("REPRO_LIFT_SEEDS", "200"))
#: how many corpus seeds the fixture holds
GOLDEN_SEEDS = 1000
#: golden keys whose IR the shift-count-0 fix changes on purpose
SHIFT_FIX_CHANGES: tuple[str, ...] = ()

#: (flag_cache, facet_cache) -> key suffix
ABLATIONS = {(True, True): "FX", (True, False): "F-", (False, True): "-X",
             (False, False): "--"}

II_I = FunctionSignature(("i", "i"), "i")
III_I = FunctionSignature(("i", "i", "i"), "i")
FF_F = FunctionSignature(("f", "f"), "f")
IFF_I = FunctionSignature(("i", "f", "f"), "i")
IFF_F = FunctionSignature(("i", "f", "f"), "f")

#: what the stencil kernels never do: a flag read in another block than its
#: writer, a carry kept across inc/dec, a register copied into another slot
#: before a back edge, an f64 facet first read in a successor
SNIPPETS: dict[str, tuple[str, FunctionSignature]] = {
    "add_seto": ("""
        add rdi, rsi
        seto al
        movzx eax, al
        ret""", II_I),
    "add_jo": ("""
        add rdi, rsi
        jo over
        mov rax, 1
        ret
    over:
        mov rax, 2
        ret""", II_I),
    "cmp_inc_setb": ("""
        cmp rdi, rsi
        inc rdi
        setb al
        movzx eax, al
        add rax, rdi
        ret""", II_I),
    "cmp_dec_jb": ("""
        cmp rdi, rsi
        dec rdi
        jb below
        mov rax, rdi
        ret
    below:
        lea rax, [rdi + 7]
        ret""", II_I),
    "flag_in_successor": ("""
        cmp rdi, rsi
        jmp next
    next:
        setl al
        movzx eax, al
        ret""", II_I),
    "flag_from_two_writers": ("""
        mov rax, 0
        cmp rdi, rsi
    head:
        setl cl
        movzx ecx, cl
        add rax, rcx
        mov r8, rdx
        dec rdx
        jnz head
        ret""", III_I),
    "flag_after_loop": ("""
        xor eax, eax
    head:
        add rax, rdi
        sub rsi, 1
        jg head
        cmovs rax, rdi
        sete cl
        movzx ecx, cl
        add rax, rcx
        ret""", II_I),
    "pass_through": ("""
        mov r8, rdi
        test rsi, rsi
        je skip
        add rsi, 1
    skip:
        jmp tail
    tail:
        lea rax, [r8 + rsi]
        ret""", II_I),
    "mov_into_other_slot": ("""
        mov rcx, rsi
    head:
        mov rax, rdi
        mov rdi, rcx
        mov rcx, rax
        dec rdx
        jnz head
        sub rax, rcx
        ret""", III_I),
    "neg_test_and": ("""
        neg rdi
        cmovs rdi, rsi
        test rdi, rsi
        setne al
        and rsi, 255
        jmp next
    next:
        setp cl
        add al, cl
        movzx eax, al
        ret""", II_I),
    "xor_zero_flags": ("""
        xor rcx, rcx
        jmp next
    next:
        sete al
        setb cl
        add al, cl
        movzx eax, al
        ret""", II_I),
    "narrow_and_high8": ("""
        mov eax, edi
        add al, sil
        sets cl
        mov ah, cl
        add ax, si
        jo over
        inc eax
    over:
        ret""", II_I),
    "ucomisd_in_successor": ("""
        ucomisd xmm0, xmm1
        jmp next
    next:
        seta al
        setp cl
        add al, cl
        movzx eax, al
        ret""", IFF_I),
    "ucomisd_branch": ("""
        ucomisd xmm0, xmm1
        jp nan
        jbe low
        addsd xmm0, xmm1
        ret
    nan:
        movsd xmm0, xmm1
        ret
    low:
        subsd xmm0, xmm1
        ret""", IFF_F),
    "fig5_upper_lane": ("""
        addsd xmm0, xmm1
        unpckhpd xmm0, xmm0
        ret""", FF_F),
    "facet_first_read_in_successor": ("""
        movapd xmm2, [rdi]
        movapd xmm1, [rdi + 16]
        test rdi, rdi
        je tail
        mulsd xmm0, xmm0
    tail:
        addsd xmm1, xmm2
        addsd xmm0, xmm1
        ret""", IFF_F),
    "sse_loop": ("""
        xorpd xmm2, xmm2
    head:
        addsd xmm2, xmm0
        mulsd xmm0, xmm1
        movsd [rdi], xmm2
        dec rsi
        jnz head
        movsd xmm0, xmm2
        ret""", FunctionSignature(("i", "i", "f", "f"), "f")),
}


def normalised_text(func: Function) -> str:
    """``print_function`` with every instruction renamed by position, so a
    body equal up to the lifter's name counter prints equal."""
    saved = [(ins, ins.name) for ins in func.instructions()
             if not ins.type.is_void]
    try:
        for k, (ins, _) in enumerate(saved):
            ins.name = f"n{k}"
        return print_function(func)
    finally:
        for ins, name in saved:
            ins.name = name


def ablations(memory, entry: int, signature: FunctionSignature,
              options: LiftOptions) -> Iterator[tuple[str, Function]]:
    """One fresh lift per ``flag_cache`` x ``facet_cache`` setting."""
    for (flag_cache, facet_cache), suffix in ABLATIONS.items():
        opts = replace(options, flag_cache=flag_cache,
                       facet_cache=facet_cache)
        yield suffix, lift_function(memory, entry, signature, opts,
                                    Module("demand"))


def stencil_lifts() -> Iterator[tuple[str, Function]]:
    """Every function the 24 ``compile_cold`` cells hand to the lifter
    (kernels, inlined callees, DBrew output), re-lifted under each ablation
    at the moment the pipeline lifts it."""
    ws = StencilWorkspace(SETUP)
    out: list[tuple[str, Function]] = []
    cell = ""
    real = jit_plan.lift_function

    def recording(memory, entry, signature, options=None, module=None):
        for suffix, func in ablations(memory, entry, signature, options):
            out.append((f"{cell}/{options.name}/{suffix}", func))
        return real(memory, entry, signature, options, module)

    jit_plan.lift_function = recording
    try:
        for code in M.CODES:
            for line in (False, True):
                for mode in TRANSFORMS:
                    cell = f"{code}.{'line' if line else 'elem'}.{mode}"
                    M.prepare_kernel(ws, code, mode, line=line, uid=".d")
    finally:
        jit_plan.lift_function = real
    return iter(out)


def lint_lifts() -> Iterator[tuple[str, Function]]:
    for corpus, programs in CORPORA.items():
        for source, signatures in programs:
            image = compile_c(source).image
            for name, sig in signatures.items():
                for suffix, func in ablations(
                        image.memory, image.symbol(name), sig,
                        LiftOptions(name=name)):
                    yield f"{corpus}.{name}/{suffix}", func


def asm_lifts(asm: str, sig: FunctionSignature) -> Iterator[tuple[str, Function]]:
    image = Image()
    base = image.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    image.add_function("f", code)
    return ablations(image.memory, base, sig, LiftOptions(name="f"))


def snippet_lifts() -> Iterator[tuple[str, Function]]:
    for name, (asm, sig) in SNIPPETS.items():
        for suffix, func in asm_lifts(asm, sig):
            yield f"{name}/{suffix}", func


def corpus_lifts(kind: str, seed: int) -> list[Function]:
    asm = GENERATORS[kind](random.Random(seed))
    sig = III_I if kind == "int" else IFF_F
    return [func for _, func in asm_lifts(asm, sig)]


GROUPS = {"stencil": stencil_lifts, "lint": lint_lifts,
          "snippets": snippet_lifts}


def _sha(*texts: str) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def capture() -> dict:
    """Run at the parent: the hash of what ``dce`` leaves of each lift."""
    def live(func: Function) -> str:
        dce.run(func)
        return normalised_text(func)

    golden: dict = {group: {key: _sha(live(func)) for key, func in lifts()}
                    for group, lifts in GROUPS.items()}
    golden["corpus"] = {
        kind: [_sha(*(live(f) for f in corpus_lifts(kind, seed)))
               for seed in range(GOLDEN_SEEDS)]
        for kind in GENERATORS}
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def check_post_condition(func: Function, where: str) -> None:
    """No dead IR, verifier-clean, strictly SSA."""
    verify(func)
    assert check_strict_ssa(func) == [], where
    before = normalised_text(func)
    assert dce.run(func) is False, where
    assert normalised_text(func) == before, where


@pytest.mark.parametrize("group", GROUPS)
def test_raw_lift_is_the_live_closure_of_the_parents(golden, group):
    seen = {}
    for key, func in GROUPS[group]():
        seen[key] = _sha(normalised_text(func))
        check_post_condition(func, key)
    assert sorted(seen) == sorted(golden[group])
    moved = sorted(k for k, h in seen.items() if golden[group][k] != h)
    assert moved == [k for k in moved if k in SHIFT_FIX_CHANGES]


@pytest.mark.parametrize("kind", GENERATORS)
def test_corpus_lifts_are_the_live_closure_of_the_parents(golden, kind):
    hashes = golden["corpus"][kind]
    assert len(hashes) == GOLDEN_SEEDS
    moved = []
    for seed in range(SEEDS):
        funcs = corpus_lifts(kind, seed)
        if seed < GOLDEN_SEEDS and \
                _sha(*(normalised_text(f) for f in funcs)) != hashes[seed]:
            moved.append(f"{kind}:{seed}")
        for func in funcs:
            check_post_condition(func, f"{kind}:{seed}")
    assert moved == [k for k in moved if k in SHIFT_FIX_CHANGES]


def test_one_lifter_no_knob():
    """The demand-driven lifter replaced the eager one: ``LiftOptions`` has
    the fields it had, and nothing under ``repro/lift`` reads the
    environment (CI greps the same)."""
    assert list(LiftOptions.__dataclass_fields__) == [
        "flag_cache", "facet_cache", "stack_size", "name",
        "known_functions", "budget"]
    package = Path(lift_function.__code__.co_filename).parent
    for source in package.glob("*.py"):
        text = source.read_text()
        assert "environ" not in text and "getenv" not in text, source.name


# -- mutants: each must fail the oracle ------------------------------------------------


def _mutate_add_overflow(monkeypatch) -> None:
    """``o`` after ``add`` built with ``sub``'s formula."""
    from repro.lift import flags
    monkeypatch.setitem(flags.OVERFLOW_TERMS, "add",
                        flags.OVERFLOW_TERMS["sub"])


def _mutate_closure(monkeypatch) -> None:
    """A demand closure that skips pass-through slots."""
    from repro.lift import lifter
    monkeypatch.setattr(lifter.Lifter, "_passed_through",
                        staticmethod(lambda value: None))


def _mutate_inc_carry(monkeypatch) -> None:
    """``inc`` taking ``add``'s carry instead of the preserved CF."""
    from repro.ir.values import Constant
    from repro.lift.flags import FlagModel

    def mutant(self, a, result, *, inc):
        one = Constant(result.type, 1)
        (self.set_after_add if inc else self.set_after_sub)(a, one, result)
        self.invalidate_cache()

    monkeypatch.setattr(FlagModel, "set_after_incdec", mutant)


MUTANTS = {
    "add overflow from sub's formula": _mutate_add_overflow,
    "closure skips pass-through slots": _mutate_closure,
    "inc takes add's carry": _mutate_inc_carry,
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_the_oracle(name, golden, monkeypatch):
    MUTANTS[name](monkeypatch)
    with pytest.raises((AssertionError, IRError)):
        test_raw_lift_is_the_live_closure_of_the_parents(golden, "snippets")


def test_closure_mutant_is_caught_by_verify(monkeypatch):
    """A placeholder the closure missed is an operand defined nowhere:
    ``verify`` rejects the lift without consulting the oracle."""
    _mutate_closure(monkeypatch)
    with pytest.raises(IRError, match="is defined nowhere"):
        for _key, func in GROUPS["snippets"]():
            verify(func)


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: test_demand_lift.py --capture")
    GOLDEN.write_text(json.dumps(capture(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
