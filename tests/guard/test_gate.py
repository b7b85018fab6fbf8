"""Differential verification gate: probe execution and divergence detection."""

import pytest

from repro.cc import compile_c
from repro.errors import VerificationError
from repro.guard import DifferentialGate, GateOptions
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory

SIG1 = FunctionSignature(("i",), "i")
SIG2 = FunctionSignature(("i", "i"), "i")


def _image(*sources):
    return compile_c(" ".join(sources)).image


def test_equivalent_functions_pass():
    img = _image("long f(long a, long b) { return a * b + 7; }",
                 "long g(long b, long a) { return 7 + b * a; }")
    report = DifferentialGate(img).check("f", "g", SIG2)
    assert report.passed
    assert report.conclusive > 0
    assert all(p.agreed for p in report.probes)


def test_return_divergence_rejected():
    img = _image("long f(long a, long b) { return a * b + 7; }",
                 "long g(long a, long b) { return a * b + 8; }")
    gate = DifferentialGate(img)
    report = gate.check("f", "g", SIG2)
    assert not report.passed
    assert "return divergence" in report.reason
    with pytest.raises(VerificationError) as ei:
        gate.gate("f", "g", SIG2)
    assert ei.value.context["stage"] == "verify"


def test_user_probes_catch_what_samples_miss():
    # agree everywhere except one magic input the samples never hit
    img = _image("long f(long a, long b) { return a + b; }",
                 "long g(long a, long b)"
                 " { if (a == 77777) return 0; return a + b; }")
    gate = DifferentialGate(img, GateOptions(samples=4))
    assert gate.check("f", "g", SIG2).passed  # samples miss the trap
    report = gate.check("f", "g", SIG2, probes=[(77777, 1)])
    assert not report.passed


def test_memory_divergence_rejected():
    img = _image("void f(long *p, long v) { p[0] = v; }",
                 "void g(long *p, long v) { p[0] = v + 1; }")
    target = img.alloc_data(16)
    sig = FunctionSignature(("i", "i"), None)
    gate = DifferentialGate(img, GateOptions(samples=0))
    report = gate.check("f", "g", sig, probes=[(target, 5)])
    assert not report.passed
    assert "memory divergence" in report.reason
    assert report.probes[0].diverged_addr == target


def _journaled(base, size, stack_lo):
    from repro.mem.memory import JournaledMemory, Memory
    plain = Memory()
    plain.map(base, size)
    plain.map(stack_lo, 64)
    mem = JournaledMemory(plain)

    def run(*dirty, value=1):
        """The chunks a run storing ``value`` at each address dirtied."""
        for addr in dirty:
            mem.write_u8(addr, value)
        return mem.rollback()

    return mem, run


def test_memory_divergence_around_an_ignored_sub_range():
    """The whitelist may cover only part of a differing chunk (a probe
    buffer inside the probe region): differences inside it are ignored,
    the first one before or after it is reported."""
    from repro.cpu import Image
    base, size = 0x200_0000, 1 << 16
    lo, hi = base + 0x100, base + 0x200
    gate = DifferentialGate(Image(), GateOptions(ignore_regions=((lo, hi),)))
    stack_lo, _ = gate._stack_extent()
    mem, run = _journaled(base, size, stack_lo)

    def diff(gate, *dirty):
        # both sides dirty the same chunks; only the second changes bytes
        return gate._mem_diff(mem, run(*dirty, value=0), run(*dirty))

    assert diff(gate) is None
    assert diff(gate, stack_lo + 3, lo, hi - 1) is None
    assert diff(gate, lo - 1, lo + 5, hi + 7) == lo - 1
    assert diff(gate, lo + 5, hi, hi + 7) == hi
    assert diff(gate, base + size - 1) == base + size - 1
    # overlapping and out-of-region whitelist entries
    wide = DifferentialGate(Image(), GateOptions(ignore_regions=(
        (lo, hi), (lo + 0x80, hi + 0x80), (0, 16), (base + size, 1 << 40))))
    assert diff(wide, hi + 0x7F) is None
    assert diff(wide, hi + 0x7F, hi + 0x80) == hi + 0x80


def test_memory_divergence_in_a_chunk_one_side_never_touched():
    """A chunk only one run dirtied is compared against the rolled-back
    base, and the lowest differing address wins whatever the order the
    chunks were journaled in."""
    from repro.cpu import Image
    from repro.mem.memory import JOURNAL_CHUNK
    base, size = 0x200_0000, 1 << 16
    gate = DifferentialGate(Image())
    mem, run = _journaled(base, size, gate._stack_extent()[0])
    far, near = base + 5 * JOURNAL_CHUNK + 7, base + JOURNAL_CHUNK + 9
    assert gate._mem_diff(mem, run(near), {}) == near  # original only
    assert gate._mem_diff(mem, {}, run(near)) == near  # candidate only
    assert gate._mem_diff(mem, run(near, value=0), {}) is None
    descending = run(far, near)
    assert list(descending) == sorted(descending, reverse=True)
    assert gate._mem_diff(mem, {}, descending) == near
    assert gate._mem_diff(mem, run(far), run(near)) == near


def test_whitelisted_store_passes_and_unlisted_one_diverges():
    img = _image("void f(long *p, long v) { p[0] = v; }",
                 "void g(long *p, long v) { p[0] = v; p[2] = v; }")
    target = img.alloc_data(32)
    sig = FunctionSignature(("i", "i"), None)
    listed = GateOptions(samples=0,
                         ignore_regions=((target + 16, target + 24),))
    assert DifferentialGate(img, listed).check(
        "f", "g", sig, probes=[(target, 5)]).passed
    report = DifferentialGate(img, GateOptions(samples=0)).check(
        "f", "g", sig, probes=[(target, 5)])
    assert report.probes[0].diverged_addr == target + 16


def test_gate_restores_memory_after_probes():
    img = _image("void f(long *p, long v) { p[0] = v; }")
    target = img.alloc_data(16)
    img.memory.write_u64(target, 123)
    sig = FunctionSignature(("i", "i"), None)
    DifferentialGate(img, GateOptions(samples=0)).check(
        "f", "f", sig, probes=[(target, 5)])
    assert img.memory.read_u64(target) == 123  # side effects rolled back


def test_gate_leaves_the_live_image_untouched():
    """A candidate that stores into globals and into the JIT area runs on
    the private shadow: the live bytes and the instance token (the key of
    every compiled block) are what they were."""
    from repro.cpu.image import JIT_BASE
    from repro.x86 import parse_asm
    from repro.x86.asm import assemble
    img = _image("void f(long *p, long v) { p[0] = v; }")
    target = img.alloc_data(16)
    code, _ = assemble(parse_asm(f"""
        mov [rdi], rsi
        mov [rdi + 8], rsi
        mov rax, {JIT_BASE + 0x808:#x}
        mov [rax], rsi
        ret
    """), base=img.next_code_addr())
    img.add_function("g", code)
    before, token = img.memory.snapshot(), img.instance_token()
    report = DifferentialGate(img, GateOptions(samples=0)).check(
        "f", "g", FunctionSignature(("i", "i"), None), probes=[(target, 5)])
    assert report.probes[0].diverged_addr == target + 8
    assert img.memory.snapshot() == before
    assert img.instance_token() == token


@pytest.mark.parametrize("k", [1, 4, 16])
def test_gate_copies_only_the_chunks_its_probes_touch(monkeypatch, k):
    """O(touched) held by a count, not a timer: building the shadow copies
    nothing, no whole-image pass runs, and afterwards the shadow's private
    chunks are exactly the chunks the probes read or wrote — the same three
    whatever ``k`` is."""
    from repro.guard import verify
    from repro.mem.memory import JOURNAL_CHUNK, Memory
    shadows, rollbacks = [], []

    class Recording(verify.JournaledMemory):
        def __init__(self, source):
            super().__init__(source)
            assert self._chunks == {}
            self.touched = set()
            shadows.append(self)

        def _note(self, addr, size):
            rs = next(s for s, n in self.regions() if s <= addr < s + n)
            first = (addr - rs) // JOURNAL_CHUNK * JOURNAL_CHUNK
            self.touched |= {rs + lo for lo in range(first, addr - rs + size,
                                                     JOURNAL_CHUNK)}

        def read(self, addr, size):
            self._note(addr, size)
            return super().read(addr, size)

        def write(self, addr, data):
            self._note(addr, len(data))
            super().write(addr, data)

        def rollback(self):
            after = super().rollback()
            rollbacks.append(len(after))
            return after

    def full_pass(self, *args):
        raise AssertionError("the gate walked the whole image")

    monkeypatch.setattr(verify, "JournaledMemory", Recording)
    for cls, name in ((Memory, "snapshot"), (Memory, "restore"),
                      (verify.JournaledMemory, "snapshot")):
        monkeypatch.setattr(cls, name, full_pass)
    img = _image("void f(long *p, long v) { p[0] = v; }")
    target = img.alloc_data(16)
    report = DifferentialGate(img, GateOptions(samples=0)).check(
        "f", "f", FunctionSignature(("i", "i"), None),
        probes=[(target, v) for v in range(k)])
    assert report.passed and report.conclusive == k
    [shadow] = shadows
    # f's code window, the return-address slot and the stored-to global
    assert set(shadow._chunks) == shadow.touched and len(shadow.touched) == 3
    # each run dirties the return-address slot and the stored-to global
    assert rollbacks == [2] * (2 * k)


@pytest.mark.parametrize("patched", ["original", "candidate"])
def test_code_patched_between_the_runs_of_a_probe_rejects(monkeypatch,
                                                          patched):
    """The shadow copies a chunk on first touch, so a ``patch_code`` landing
    mid-gate could leave the two runs on different code — or, as here, on
    code the live image no longer holds: f and g agree, and the patch makes
    the live function disagree after the shadow has copied it.  The gate
    re-reads the patch counter after its probes and rejects; the live
    image keeps exactly the patched bytes."""
    from repro.cpu import Image
    from repro.cpu.simulator import Simulator
    from repro.x86 import parse_asm
    from repro.x86.asm import assemble
    img = Image()
    addrs = {}
    for name, text in (("f", "lea rax, [rdi + 1]\nret"),
                       ("g", "lea rax, [rdi + 1]\nret")):
        code, _ = assemble(parse_asm(text), base=img.next_code_addr())
        addrs[name] = img.add_function(name, code)
    new, _ = assemble(parse_asm("lea rax, [rdi + 2]\nret"), base=0)
    where = addrs["f" if patched == "original" else "g"]
    old = img.memory.read(where, len(new))
    before = img.memory.snapshot()
    call, runs = Simulator.call, []

    def call_then_patch(self, *args, **kw):
        res = call(self, *args, **kw)
        runs.append(res.rax)
        if len(runs) == 1:  # between the original's run and the candidate's
            img.patch_code(where, new)
        return res

    monkeypatch.setattr(Simulator, "call", call_then_patch)
    gate = DifferentialGate(img, GateOptions(samples=0))
    report = gate.check("f", "g", SIG1, probes=[(5,)])
    assert runs == [6, 6]  # both runs saw the bytes of the gate's start
    assert not report.passed
    assert report.reason == "code patched during the gate"
    assert img.memory.read(where, len(new)) == new
    img.patch_code(where, old)
    assert img.memory.snapshot() == before
    monkeypatch.setattr(Simulator, "call", call)
    assert gate.check("f", "g", SIG1, probes=[(5,)]).passed


def test_all_probes_inconclusive_rejects_by_default():
    # sampled small ints are not mapped: the original segfaults on every
    # probe — nothing was compared, so the gate must not report a pass
    img = _image("long f(long *p) { return p[0]; }")
    sig = FunctionSignature(("i",), "i")
    report = DifferentialGate(img, GateOptions(samples=2)).check("f", "f", sig)
    assert not report.passed
    assert "conclusive" in report.reason
    assert report.conclusive == 0
    assert all(p.inconclusive for p in report.probes)


def test_min_conclusive_zero_passes_vacuously_and_says_so():
    img = _image("long f(long *p) { return p[0]; }")
    sig = FunctionSignature(("i",), "i")
    gate = DifferentialGate(img, GateOptions(samples=2, min_conclusive=0))
    report = gate.check("f", "f", sig)
    assert report.passed and report.vacuous  # opt-in, and marked as such
    # a conclusive pass is never marked vacuous
    img2 = _image("long f(long a) { return a + 1; }")
    sig2 = FunctionSignature(("i",), "i")
    report2 = DifferentialGate(img2).check("f", "f", sig2)
    assert report2.passed and not report2.vacuous


def test_specialized_fault_is_divergence():
    img = _image("long f(long a) { return a; }",
                 "long g(long a) { long *p = (long *) a; return p[0]; }")
    sig = FunctionSignature(("i",), "i")
    report = DifferentialGate(img, GateOptions(samples=2)).check("f", "g", sig)
    assert not report.passed
    assert "specialized code failed" in report.reason


def test_fixed_parameters_are_substituted():
    img = _image("long f(long a, long b) { return a * 10 + b; }",
                 "long g_spec(long a, long b) { return a * 10 + 3; }")
    # b fixed to 3: probes supply only the free parameter a
    report = DifferentialGate(img, GateOptions(samples=0)).check(
        "f", "g_spec", SIG2, fixes={1: 3}, probes=[(2,), (9,)])
    assert report.passed
    assert report.conclusive == 2


def test_fixed_memory_substitutes_region_address():
    img = _image("long f(long *p, long i) { return p[i]; }")
    region = img.alloc_data(32)
    for i in range(4):
        img.memory.write_u64(region + 8 * i, 100 + i)
    sig = FunctionSignature(("i", "i"), "i")
    report = DifferentialGate(img, GateOptions(samples=0)).check(
        "f", "f", sig, fixes={0: FixedMemory(region, 32)},
        probes=[(0,), (3,)])
    assert report.passed
    assert report.conclusive == 2


def test_f64_return_compared():
    img = _image("double f(double x) { return x * 2.0; }",
                 "double g(double x) { return x * 2.0 + 1.0; }")
    sig = FunctionSignature(("f",), "f")
    gate = DifferentialGate(img)
    assert gate.check("f", "f", sig).passed
    assert not gate.check("f", "g", sig).passed


def test_probe_shorter_than_free_params_rejected():
    img = _image("long f(long a, long b) { return a + b; }")
    with pytest.raises(VerificationError, match="shorter"):
        DifferentialGate(img, GateOptions(samples=0)).check(
            "f", "f", SIG2, probes=[(1,)])


@pytest.mark.parametrize("probe, fixes", [
    ((1, 2, 3), None),
    # the full argument vector, fixed slot included, where only the free
    # parameter belongs: the gate would run on shifted arguments
    ((1, 3), {1: 3}),
])
def test_probe_longer_than_free_params_rejected(probe, fixes):
    img = _image("long f(long a, long b) { return a + b; }")
    with pytest.raises(VerificationError, match="longer") as ei:
        DifferentialGate(img, GateOptions(samples=0)).check(
            "f", "f", SIG2, fixes=fixes, probes=[probe])
    assert ei.value.context["stage"] == "verify"
