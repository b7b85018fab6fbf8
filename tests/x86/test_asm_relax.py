"""The shared assembler encodes once and relaxes only what moves.

Three pins on :func:`repro.x86.asm.assemble_full`:

1. **the rule, by observation** — an instruction's bytes differ between
   two addresses *iff* :func:`position_dependent` says so, over every
   decoded form of ``test_effects_conformance.forms()``, the hand-written
   control rows and a RIP-relative variant of every memory form;
2. **byte identity** against the loop it replaced (kept here as the
   oracle :func:`_reference`: every instruction re-encoded in a guess pass,
   in every round and in a final pass) on the diffcorpus programs, the
   streams MCC, DBrew and the JIT really hand over, and seeded random
   streams that sit on the rel8/rel32 edge — errors included;
3. **a work bound in counts** — ``n`` instructions of which ``k`` are
   position-dependent cost at most ``n + k * (rounds + 1)`` calls of
   ``encode``, exactly ``n`` when ``k == 0``.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.modes import prepare_kernel
from repro.cc.compiler import CompilerOptions, compile_c
from repro.cpu import Image
from repro.errors import EncodeError
from repro.stencil import sources
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.testing.diffcorpus import GENERATORS
from repro.x86 import asm, parse_asm
from repro.x86.asm import (
    Label, LabelRef, _resolve, assemble_full, position_dependent,
)
from repro.x86.encoder import encode
from repro.x86.instr import Imm, Instruction, Mem, gp, make, xmm
from repro.x86.registers import RAX, RBX
from test_effects_conformance import _hand_rows, forms


def _reference(items, base=0):
    """``assemble_full`` as it was before it stopped re-encoding."""
    enc = asm.encode  # looked up per call, so ``_counted`` counts both
    instrs = [it for it in items if isinstance(it, Instruction)]
    labels: dict[str, int] = {}
    for it in items:
        if isinstance(it, Label):
            if it.name in labels:
                raise EncodeError(f"duplicate label {it.name!r}")
            labels[it.name] = 0
    guess = {n: base + (1 << 30) for n in labels}
    lengths = [len(enc(_resolve(ins, guess), 0)) for ins in instrs]
    for _ in range(32):
        pc, addrs = base, []
        for it in items:
            if isinstance(it, Label):
                labels[it.name] = pc
            else:
                addrs.append(pc)
                pc += lengths[len(addrs) - 1]
        new = [len(enc(_resolve(i, labels), a)) for i, a in zip(instrs, addrs)]
        if new == lengths:
            break
        lengths = new
    else:
        raise EncodeError("assembler failed to reach a fixed point")
    out, placed, pc = bytearray(), [], base
    for it in items:
        if isinstance(it, Label):
            labels[it.name] = pc
            continue
        r = _resolve(it, labels)
        raw = enc(r, pc)
        placed.append(Instruction(r.mnemonic, r.operands, pc, len(raw), raw))
        out += raw
        pc += len(raw)
    return bytes(out), placed, labels


def _same(items, base):
    """Both assemblers on one stream: equal results, or the same error."""
    try:
        want = _reference(items, base)
    except EncodeError as exc:
        with pytest.raises(EncodeError) as got:
            assemble_full(items, base)
        assert str(got.value) == str(exc)
        return None
    got = assemble_full(items, base)
    assert got == want
    # ``raw`` is compare=False on Instruction: check it by hand
    assert [p.raw for p in got[1]] == [p.raw for p in want[1]]
    return got


# -- 1. the rule ----------------------------------------------------------------


def _riprel_variants(ins: Instruction):
    for i, op in enumerate(ins.operands):
        if isinstance(op, Mem):
            rip = Mem(op.size, disp=0x601000, riprel=True, seg=op.seg)
            yield Instruction(
                ins.mnemonic, ins.operands[:i] + (rip,) + ins.operands[i + 1:])


def test_bytes_move_with_the_address_iff_classified_position_dependent():
    decoded = list(forms()) + [row.ins for row, *_ in _hand_rows()
                               if row.ins.raw]
    candidates = decoded + [v for ins in decoded for v in _riprel_variants(ins)]
    moved = 0
    for ins in candidates:
        differs = encode(ins, 0) != encode(ins, 0x12345678)
        assert differs == position_dependent(ins), ins
        moved += differs
    assert len(decoded) > 2000 and moved > 500


def test_a_label_operand_is_position_dependent_whatever_the_mnemonic():
    assert position_dependent(make("mov", gp(RAX), LabelRef("x")))
    assert not position_dependent(make("mov", gp(RAX), Imm(0x401000)))
    assert not position_dependent(make("ret"))


# -- 2. byte identity -------------------------------------------------------------


@pytest.mark.parametrize("kind", ["int", "sse"])
def test_diffcorpus_programs_assemble_to_the_same_bytes(kind):
    base = Image().next_code_addr()
    for seed in range(200):
        _same(parse_asm(GENERATORS[kind](random.Random(seed))), base)


@pytest.fixture
def streams(monkeypatch):
    """Every ``(items, base)`` MCC, DBrew and the JIT hand the assembler."""
    seen: dict[str, list] = {"cc": [], "dbrew": [], "jit": []}

    def recorder(layer):
        def record(items, base=0):
            seen[layer].append((list(items), base))
            return assemble_full(items, base)
        return record

    for layer, module in (("cc", "repro.cc.compiler"),
                          ("dbrew", "repro.dbrew.rewriter"),
                          ("jit", "repro.ir.codegen.jit")):
        monkeypatch.setattr(f"{module}.assemble_full", recorder(layer))
    return seen


def _counted(assembler, items, base):
    """Run ``assembler``; returns (result, number of ``encode`` calls)."""
    calls = 0

    def counting(ins, addr=0):
        nonlocal calls
        calls += 1
        return encode(ins, addr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asm, "encode", counting)
        return assembler(items, base), calls


def _check_work_bound(items, base):
    n = sum(isinstance(it, Instruction) for it in items)
    k = sum(isinstance(it, Instruction) and position_dependent(it)
            for it in items)
    want, old_calls = _counted(_reference, items, base)
    got, calls = _counted(assemble_full, items, base)
    assert got == want
    rounds = old_calls // n - 2  # the oracle: guess + rounds + final, all n
    assert old_calls == n * (rounds + 2)
    assert calls <= n + k * (rounds + 1)
    return n, k, calls


def test_stencil_sources_through_mcc(streams):
    prog = compile_c(sources.kernel_source(9),
                     options=CompilerOptions(vectorize=True))
    for src in (sources.element_driver_source(9),
                sources.line_driver_source(9)):
        compile_c(src, image=prog.image,
                  options=CompilerOptions(vectorize=False),
                  extra_symbols={"kernel": prog.functions["apply_flat"]})
    assert len(streams["cc"]) == 3
    for items, base in streams["cc"]:
        assert _same(items, base) is not None
        _check_work_bound(items, base)


def test_work_bound_on_a_dbrew_rewrite_and_a_jit_install(streams):
    ws = StencilWorkspace(JacobiSetup(sz=9, sweeps=1))
    prepare_kernel(ws, "flat", "dbrew", line=True)
    prepare_kernel(ws, "flat", "llvm", line=True)
    assert len(streams["dbrew"]) == 1 and len(streams["jit"]) == 1
    for layer in ("dbrew", "jit"):
        (items, base), = streams[layer]
        assert _same(items, base) is not None
        n, k, calls = _check_work_bound(items, base)
        assert 0 < k < n and calls < 2 * n, (layer, n, k, calls)


def test_a_stream_with_nothing_position_dependent_is_encoded_exactly_once():
    items = parse_asm("a:\nmov rax, rdi\nb:\nc:\nadd rax, [rsi + 8]\nret\nd:")
    (_code, _placed, labels), calls = _counted(assemble_full, items, 0x1000)
    assert calls == 3
    assert labels == {"a": 0x1000, "b": 0x1003, "c": 0x1003, "d": 0x1008}


def _filler(rng: random.Random, size: int) -> list[Instruction]:
    """Exactly ``size`` bytes of position-independent instructions."""
    out = []
    while size:
        if size >= 10 and rng.random() < 0.9:
            out.append(make("mov", gp(RAX), Imm(0x1122334455667788)))
            size -= 10
        elif size >= 3 and rng.random() < 0.5:
            out.append(make("add", gp(RAX), gp(RBX)))
            size -= 3
        else:
            out.append(make("nop"))
            size -= 1
    return out


_JCC = ("je", "jne", "jl", "jae")


def _random_stream(seed: int) -> tuple[list, int]:
    """Labels a rel8 reach apart (or back to back) with branches between
    them in both directions, absolute targets and RIP-relative loads."""
    rng = random.Random(seed)
    base = rng.choice((0, 0x1000, 0x400000, 0x10000000))
    segments = rng.randint(3, 9)
    items: list = []
    for s in range(segments):
        items.append(Label(f"L{s}"))
        if rng.random() < 0.15:
            items.append(Label(f"L{s}.twin"))
        for _ in range(rng.randint(0, 3)):
            roll = rng.randrange(10)
            near = f"L{rng.randint(max(0, s - 2), min(segments - 1, s + 2))}"
            if roll < 5:
                op = rng.choice(("jmp", *_JCC))
                items.append(make(op, LabelRef(near)))
            elif roll == 5:
                items.append(make("call", LabelRef(near)))
            elif roll == 6:
                items.append(make("mov", gp(RAX), LabelRef(near)))
            elif roll == 7:
                # an absolute target, often within a rel8 of where this lands
                at = base + rng.choice((rng.randint(0, 140 * segments), 0x5000))
                items.append(make(rng.choice(("jmp", "call", *_JCC)), Imm(at)))
            else:
                mem = Mem(8, disp=base + rng.randint(0, 0x2000), riprel=True)
                items.append(rng.choice((make("mov", gp(RAX), mem),
                                         make("movsd", xmm(0), mem))))
        if rng.random() < 0.8:
            items += _filler(rng, rng.choice((0, rng.randint(1, 9),
                                              rng.randint(112, 131))))
    items.append(make("ret"))
    return items, base


def test_random_streams_on_the_rel8_edge_assemble_to_the_same_bytes():
    short = long = 0
    for seed in range(600):
        items, base = _random_stream(seed)
        _code, placed, _labels = _same(items, base)
        for p in placed:
            if p.mnemonic == "jmp" or p.mnemonic in _JCC:
                short += p.length == 2
                long += p.length > 2
    assert short > 500 and long > 500  # both sides of the edge were walked


@pytest.mark.parametrize("op", ["jmp", "jne"])
@pytest.mark.parametrize("distance", range(120, 132))
def test_the_rel8_edge_forwards_and_backwards(op, distance):
    """Lengths shrink from the rel32 guess, so a forward branch goes short
    only if its target is in rel8 reach while it is still long."""
    pad = _filler(random.Random(distance), distance)
    fwd = [make(op, LabelRef("t")), *pad, Label("t"), make("ret")]
    bwd = [Label("t"), *pad, make(op, LabelRef("t")), make("ret")]
    long = 5 if op == "jmp" else 6
    _, placed, _ = _same(fwd, 0x400000)
    assert placed[0].length == (2 if long - 2 + distance <= 127 else long)
    _, placed, _ = _same(bwd, 0x400000)
    assert placed[-2].length == (2 if distance + 2 <= 128 else long)


_ERRORS = {
    "duplicate label": [Label("x"), make("nop"), Label("x")],
    "undefined label": [make("nop"), make("jmp", LabelRef("nowhere"))],
    "call beyond 2 GiB": [make("nop"), make("call", Imm(0x400000 + (1 << 32)))],
    "riprel out of range": [
        make("mov", gp(RAX), Mem(8, disp=-(1 << 33), riprel=True))],
    "no such encoding": [Label("a"), make("jmp", gp(RAX)), make("ret")],
}


@pytest.mark.parametrize("case", sorted(_ERRORS))
def test_errors_read_the_same_from_both(case):
    assert _same(_ERRORS[case], 0x400000) is None


def test_out_of_range_is_judged_at_the_final_address():
    """In reach of the far-address guess, out of reach where it lands."""
    target = -(1 << 31) + 0x100
    near = [make("mov", gp(RAX), Mem(8, disp=target, riprel=True))]
    assert _same(near, 0) is not None
    with pytest.raises(EncodeError, match="RIP-relative target out of range"):
        assemble_full(near, 0x1000)
    assert _same(near, 0x1000) is None


def test_placed_keeps_addr_length_raw_and_resolved_operands():
    items = [make("jmp", LabelRef("t")), make("nop"), Label("t"), make("ret")]
    code, placed, labels = assemble_full(items, 0x2000)
    assert labels == {"t": 0x2003}
    assert [(p.addr, p.length, p.raw) for p in placed] == [
        (0x2000, 2, b"\xeb\x01"), (0x2002, 1, b"\x90"), (0x2003, 1, b"\xc3")]
    assert placed[0].operands == (Imm(0x2003, 8),)
    assert code == b"".join(p.raw for p in placed)
