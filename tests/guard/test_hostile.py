"""Hostile-byte corpus: the guarded front door must never leak an exception.

Every entry is installed as a "function" and pushed through the full ladder.
Whatever the bytes do — fail to decode, lift to garbage, loop forever — the
contract is: no uncaught exception, a callable entry address back (worst
case the hostile original itself), and bounded time via the budget.
"""

import pytest

from repro.cpu.image import Image
from repro.errors import ReproError
from repro.guard import Budget, GateOptions, GuardedTransformer
from repro.jit.plan import DEFAULT_O3, Pipeline, Plan
from repro.lift import FunctionSignature, LiftOptions

SIG = FunctionSignature(("i",), "i")

# deterministic corpus: name -> bytes (no RNG; failures must reproduce)
CORPUS = {
    # truncated mid-instruction (REX.W 81 /0 wants ModRM + imm32)
    "truncated-imm": b"\x48\x81",
    # truncated after a REX prefix alone
    "truncated-rex": b"\x48",
    # invalid 64-bit opcode
    "invalid-opcode": b"\x06\xc3",
    # unsupported-but-decodable instruction (int3)
    "no-lift-rule": b"\xcc\xc3",
    # self-jumping: jmp -2 (an infinite loop at its own entry)
    "self-jump": b"\xeb\xfe",
    # jump into the middle of its own immediate
    "overlap-jump": b"\xeb\xff\xc0\xc3",
    # "random" bytes (fixed, chosen to be garbage)
    "garbage-1": bytes.fromhex("f30f1efa4c8d0d00deadbeef"),
    "garbage-2": bytes.fromhex("9a7f0000e2ffc6c6c6"),
    "garbage-3": bytes.fromhex("0f0b0f0b0f0b"),
    # falls off the end into zero padding without a ret
    "no-ret": b"\x90\x90",
}


def _guard(img):
    return GuardedTransformer(
        img,
        gate_options=GateOptions(samples=1, max_steps=2_000),
        budget=Budget(deadline_seconds=20.0, max_lift_instructions=500,
                      max_lift_blocks=64, max_emulated=500,
                      max_trace_points=32, max_opt_iterations=64),
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_guard_survives_hostile_bytes(name):
    img = Image()
    addr = img.add_function(name, CORPUS[name])
    g = _guard(img)
    r = g.transform(name, SIG, {0: 1}, probes=[(2,)])  # must not raise
    assert isinstance(r.addr, int)
    assert r.mode in ("dbrew+llvm", "llvm-fix", "llvm", "original")
    if r.mode == "original":
        assert r.addr == addr
    # every non-served rung recorded why it failed
    for attempt in r.attempts:
        if not attempt.quarantined:
            assert attempt.error_type is not None
            assert attempt.error


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_bare_pipeline_raises_only_repro_errors(name):
    """The unguarded pipeline may fail on the corpus, but only with the
    typed error contract — never a stray TypeError/IndexError/etc."""
    img = Image()
    img.add_function(name, CORPUS[name])
    pipeline = Pipeline(img, budget=Budget(
        max_lift_instructions=500, max_lift_blocks=64,
        max_opt_iterations=64).start())
    try:
        pipeline.compile(Plan("llvm", LiftOptions(), DEFAULT_O3), name, SIG,
                         None, name + ".tx")
    except ReproError:
        pass  # the allowed failure mode


def test_whole_corpus_accounting():
    img = Image()
    g = _guard(img)
    for name, code in CORPUS.items():
        img.add_function("h." + name, code)
        g.transform("h." + name, SIG, {0: 1}, probes=[(2,)])
    assert g.stats.transforms == len(CORPUS)
    served = sum(g.stats.served_by.values())
    assert served == len(CORPUS)  # every request was answered by some rung
