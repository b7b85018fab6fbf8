"""Seeded mutation harness for the machine-level verifier.

Each corpus function (the lint examples plus Sec. VI stencil kernels) is
compiled to machine code, then attacked with deterministic bit-flip and
byte-splice mutations of its emitted bytes.  The static verifier judges
every mutant; a mutant counts as *detected* when the verdict is anything
other than ``proved`` (a refutation or an inconclusive downgrade both
keep the mutant out of unguarded installation).

Mutants the verifier *proves* are executed against the unmutated code on
concrete probes (return value + every output buffer).  A proved mutant
that diverges dynamically is a true **escape** — a soundness hole in the
prover.  Escapes are minimized to a single-byte patch when possible and
persisted to ``machine_escapes.txt`` next to this file; recorded escapes
are replayed forever by ``test_replay_recorded_escapes``.

The acceptance bar: ≥95% of semantics-changing mutants detected.  Since
only proved mutants are executed (executing refuted garbage could stomp
arbitrary image state), the denominator uses the refuted count as the
known-semantics-changing population — refutations on a clean corpus are
content-determined counterexamples, not heuristics.

``REPRO_MUTANTS`` scales the per-function mutant count (default keeps
local runs quick; CI raises it).
"""

from __future__ import annotations

import dataclasses
import os
import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest

from repro.analysis.lint import CORPORA
from repro.analysis.machine import PROVED, REFUTED, verify_witness
from repro.bench.harness import stencil_arg
from repro.bench.modes import request
from repro.cc import compile_c
from repro.cpu import Image, Simulator
from repro.ir.codegen import JITEngine
from repro.ir.module import Module
from repro.ir.passes import O3Options, run_o3
from repro.jit import BinaryTransformer
from repro.lift import LiftOptions, lift_function
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace, matrices_equal

MUTANTS = int(os.environ.get("REPRO_MUTANTS", "24"))
_ESCAPES = Path(__file__).with_name("machine_escapes.txt")


@dataclass
class Case:
    """One compiled corpus function plus its dynamic oracle."""

    name: str
    image: Image
    witness: object
    addr: int
    #: (int_args, f64_args) per probe
    probes: list[tuple[tuple, tuple]]
    #: (addr, size) regions compared after every probe call
    out_regions: list[tuple[int, int]]
    #: "i" (rax), "f" (xmm0 bits) or None (void)
    result: str | None
    #: re-initialize input/output buffers before each probe run
    reset: Callable[[], None] = lambda: None
    baseline: list[tuple[object, list[bytes]]] = field(default_factory=list)

    def run_probe(self, sim: Simulator, probe) -> tuple[object, list[bytes]]:
        self.reset()
        ints, floats = probe
        st = sim.call(self.addr, tuple(ints), tuple(floats),
                      max_steps=2_000_000)
        val = {"i": st.rax, "f": st.xmm0, None: None}[self.result]
        mem = self.image.memory
        return val, [mem.read(a, s) for a, s in self.out_regions]


def _jit_corpus_function(image: Image, name: str, sig) -> tuple[object, int]:
    """Lift ``name`` from ``image``, run -O3, JIT it back in; witness+addr."""
    module = Module(f"mut.{name}")
    func = lift_function(image.memory, image.symbol(name), sig,
                         LiftOptions(name=f"{name}.jit"), module)
    run_o3(func)
    jit = JITEngine(image)
    addr = jit.compile_function(func, name=f"{name}.jit")
    assert jit.last_witness is not None
    return jit.last_witness, addr


def _example_cases() -> list[Case]:
    cases = []
    for source, signatures in CORPORA["examples"]:
        prog = compile_c(source)
        img = prog.image
        mem = img.memory
        for name, sig in signatures.items():
            wit, addr = _jit_corpus_function(img, name, sig)
            if name == "poly":
                coeff = img.alloc_data(8 * 4, align=16)

                def reset(mem=mem, coeff=coeff):
                    for i, v in enumerate((1.0, -2.0, 0.5, 3.0)):
                        mem.write_f64(coeff + 8 * i, v)

                probes = [((coeff, 4), (2.5,)), ((coeff, 4), (-0.75,)),
                          ((coeff, 0), (9.0,))]
                out, res = [(coeff, 32)], "f"
            elif name == "dot":
                a = img.alloc_data(8 * 4, align=16)
                bb = img.alloc_data(8 * 4, align=16)

                def reset(mem=mem, a=a, bb=bb):
                    for i in range(4):
                        mem.write_f64(a + 8 * i, 1.5 * i - 2.0)
                        mem.write_f64(bb + 8 * i, 0.5 * i + 1.0)

                probes = [((a, bb, 4), ()), ((a, bb, 2), ()),
                          ((a, bb, 0), ())]
                out, res = [(a, 32), (bb, 32)], "f"
            else:  # clamp_sum
                v = img.alloc_data(8 * 4, align=16)

                def reset(mem=mem, v=v):
                    for i, x in enumerate((5, -3, 12, 7)):
                        mem.write_u64(v + 8 * i, x & ((1 << 64) - 1))

                probes = [((v, 4, 0, 10), ()), ((v, 4, -100, 100), ()),
                          ((v, 1, 6, 6), ())]
                out, res = [(v, 32)], "i"
            cases.append(Case(name, img, wit, addr, probes, out, res, reset))
    return cases


def _stencil_cases() -> list[Case]:
    ws = StencilWorkspace(JacobiSetup(sz=16), vectorize=False)
    img, sz = ws.image, 16
    m_size = 8 * sz * sz
    sig_by_name = dict(CORPORA["stencil"][0][1])
    picks = [("apply_direct", 0), ("apply_flat", ws.flat.addr),
             ("apply_sorted", ws.sorted.addr), ("line_direct", 0)]
    cases = []
    for name, s_arg in picks:
        wit, addr = _jit_corpus_function(img, name, sig_by_name[name])
        if name.startswith("apply"):
            probes = [((s_arg, ws.m1, ws.m2, y * sz + x), ())
                      for y, x in ((2, 3), (8, 8), (14, 1))]
        else:
            probes = [((s_arg, ws.m1, ws.m2, 2, 1, sz - 1), ()),
                      ((s_arg, ws.m1, ws.m2, 9, 4, 7), ())]
        cases.append(Case(name, img, wit, addr, probes,
                          [(ws.m1, m_size), (ws.m2, m_size)], None,
                          ws.reset_matrices))
    return cases


def _mutate(code: bytes, rng: random.Random) -> bytes:
    buf = bytearray(code)
    if rng.random() < 0.6:  # bit flip
        buf[rng.randrange(len(buf))] ^= 1 << rng.randrange(8)
    else:  # byte splice
        off = rng.randrange(len(buf))
        n = min(rng.randint(1, 4), len(buf) - off)
        buf[off:off + n] = bytes(rng.randrange(256) for _ in range(n))
    return bytes(buf)


def _case_seed(name: str, index: int) -> int:
    return (zlib.crc32(name.encode()) << 12) ^ index


def _mutant_code(case: Case, index: int) -> bytes:
    return _mutate(case.witness.code, random.Random(_case_seed(case.name,
                                                              index)))


def _oracle_equivalent(case: Case, sim: Simulator, mutated: bytes) -> bool:
    """Execute the mutant; True when every probe matches the baseline."""
    mem = case.image.memory
    original = case.witness.code
    try:
        mem.write(case.witness.base, mutated)
        sim.invalidate_code()
        for probe, want in zip(case.probes, case.baseline):
            try:
                got = case.run_probe(sim, probe)
            except Exception:
                return False
            if got != want:
                return False
        return True
    finally:
        mem.write(case.witness.base, original)
        sim.invalidate_code()
        case.reset()


def _minimize(case: Case, sim: Simulator, mutated: bytes) -> bytes:
    """Shrink an escaping mutant to a single differing byte if one still
    escapes (proved by the verifier AND dynamically divergent)."""
    orig = case.witness.code
    diff = [i for i in range(len(orig)) if mutated[i] != orig[i]]
    if len(diff) <= 1:
        return mutated
    for i in diff:
        single = bytearray(orig)
        single[i] = mutated[i]
        single = bytes(single)
        wit = dataclasses.replace(case.witness, code=single)
        if verify_witness(wit).verdict == PROVED \
                and not _oracle_equivalent(case, sim, single):
            return single
    return mutated


def _record_escape(case: Case, mutated: bytes) -> None:
    orig = case.witness.code
    patch = ",".join(f"{i}:{mutated[i]:02x}"
                     for i in range(len(orig)) if mutated[i] != orig[i])
    entry = f"{case.name}|{patch}"
    existing = _ESCAPES.read_text().splitlines() if _ESCAPES.exists() else []
    if entry not in existing:
        with _ESCAPES.open("a") as fh:
            fh.write(entry + "\n")


def _all_cases() -> list[Case]:
    cases = _example_cases() + _stencil_cases()
    for case in cases:
        sim = Simulator(case.image)
        case.baseline = [case.run_probe(sim, p) for p in case.probes]
    return cases


@pytest.fixture(scope="module")
def corpus():
    return _all_cases()


def test_mutation_detection(corpus):
    refuted = inconclusive = proved_equiv = 0
    escapes: list[tuple[Case, bytes]] = []
    for case in corpus:
        sim = Simulator(case.image)
        # sanity: the unmutated emission itself must prove
        assert verify_witness(case.witness).verdict == PROVED, case.name
        for index in range(MUTANTS):
            mutated = _mutant_code(case, index)
            if mutated == case.witness.code:
                continue
            verdict = verify_witness(
                dataclasses.replace(case.witness, code=mutated)).verdict
            if verdict == REFUTED:
                refuted += 1
            elif verdict != PROVED:
                inconclusive += 1
            elif _oracle_equivalent(case, sim, mutated):
                proved_equiv += 1
            else:
                mutated = _minimize(case, sim, mutated)
                _record_escape(case, mutated)
                escapes.append((case, mutated))
    # mutants hit real code bytes: most must be outright refuted
    assert refuted > 0
    changed = refuted + len(escapes)
    detection = 1.0 - len(escapes) / max(1, changed)
    assert detection >= 0.95, (
        f"detection {detection:.1%} over {changed} semantics-changing "
        f"mutants ({refuted} refuted, {inconclusive} inconclusive, "
        f"{proved_equiv} proved-equivalent, {len(escapes)} escapes: "
        f"{[c.name for c, _ in escapes]})")


def test_replay_recorded_escapes(corpus):
    """Escapes that ever slipped through stay covered forever: each must
    now be detected statically or be dynamically equivalent."""
    if not _ESCAPES.exists():
        return
    by_name = {c.name: c for c in corpus}
    for line in _ESCAPES.read_text().splitlines():
        name, _, patch = line.partition("|")
        case = by_name.get(name)
        if case is None or not patch:
            continue
        mutated = bytearray(case.witness.code)
        stale = False
        for tok in patch.split(","):
            off, _, val = tok.partition(":")
            if int(off) >= len(mutated):
                stale = True  # emission changed shape; patch meaningless
                break
            mutated[int(off)] = int(val, 16)
        if stale:
            continue
        mutated = bytes(mutated)
        verdict = verify_witness(
            dataclasses.replace(case.witness, code=mutated)).verdict
        if verdict == PROVED:
            sim = Simulator(case.image)
            assert _oracle_equivalent(case, sim, mutated), (
                f"recorded escape for {name} still escapes: {patch}")


# -- a block that emits no bytes ---------------------------------------------------
# With -O3's unroll off, the ``dbrew+llvm`` line kernels split a critical
# edge into the row loop whose one phi copy coalesces away: the split block
# is zero bytes long and shares its address with the loop header laid out
# after it.  Its machine path is the fall into that header, not a run
# through the header's body to the header's own exit.

NO_UNROLL = O3Options(enable_unroll=False)


def _rewritten_line_kernel(code: str):
    ws = StencilWorkspace(JacobiSetup(sz=17, sweeps=1))
    req = request(ws, code, True)
    tx = BinaryTransformer(ws.image, o3_options=NO_UNROLL,
                           machine_verify=True)
    entry, _served = tx.rewrite(req.dbrew_func, req.signature,
                                {0: req.descriptor}, req.mem_regions, "rw")
    return ws, req, tx, entry


@pytest.mark.parametrize("code", ["flat", "sorted"])
def test_an_empty_block_falls_into_its_successor(code):
    ws, req, tx, entry = _rewritten_line_kernel(code)
    res = tx.llvm_identity(entry, req.signature, name="k")
    assert res.machine_verdict == PROVED
    ws.reset_matrices()
    want = ws.reference_sweeps(1)
    ws.run_sweeps(res.addr, line=True, stencil_arg=stencil_arg(ws, code),
                  sweeps=1)
    assert matrices_equal(ws.read_matrix(2), want)


def test_an_empty_block_that_drops_a_phi_copy_is_refuted():
    """The negative twin: the landing phi moved to another register, so the
    empty block would have had to copy into it.  Falling through without
    the copy is a value mismatch on that block's edge."""
    ws, req, _tx, entry = _rewritten_line_kernel("flat")
    func = lift_function(ws.image.memory, entry, req.signature,
                         LiftOptions(name="k"), Module("twin"))
    run_o3(func, NO_UNROLL)
    jit = JITEngine(ws.image)
    jit.compile_function(func, name="k")
    wit = jit.last_witness
    assert verify_witness(wit).verdict == PROVED
    addrs = wit.block_addrs
    crit = next(b for b in wit.func.blocks if b.name.startswith("crit.")
                and b.name in addrs)
    landing = crit.terminator.targets[0]
    assert addrs[crit.name] == addrs[landing.name]  # zero bytes long
    (phi,) = [p for p in landing.phis()
              if wit.value_locs[id(p)][0] == "reg"]
    kind, reg = wit.value_locs[id(phi)]
    assert wit.value_locs[id(phi.incoming_for(crit))] == (kind, reg)
    other = next(r for r in range(8, 16) if r != reg)
    report = verify_witness(dataclasses.replace(
        wit, value_locs={**wit.value_locs, id(phi): (kind, other)}))
    assert report.verdict == REFUTED
    assert any(f.checker == "machine.block.value" and f.block == crit.name
               for f in report.findings)
