"""Differential verification gate: probe execution and divergence detection."""

import pytest

from repro.cc import compile_c
from repro.errors import VerificationError
from repro.guard import DifferentialGate, GateOptions
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory

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


def test_memory_divergence_around_an_ignored_sub_range():
    """The whitelist may cover only part of a differing region (a probe
    buffer inside the probe region): differences inside it are ignored,
    the first one before or after it is reported."""
    from repro.cpu import Image
    base, size = 0x200_0000, 1 << 16
    lo, hi = base + 0x100, base + 0x200
    gate = DifferentialGate(Image(), GateOptions(ignore_regions=((lo, hi),)))
    stack_lo, _ = gate._stack_extent()

    def snap(*dirty):
        region, stack = bytearray(size), bytearray(64)
        for addr in dirty:
            buf, start = ((stack, stack_lo) if addr >= stack_lo
                          else (region, base))
            buf[addr - start] = 1
        return [(base, bytes(region)), (stack_lo, bytes(stack))]

    clean = snap()
    assert gate._mem_diff(clean, snap()) is None
    assert gate._mem_diff(clean, snap(stack_lo + 3, lo, hi - 1)) is None
    assert gate._mem_diff(clean, snap(lo - 1, lo + 5, hi + 7)) == lo - 1
    assert gate._mem_diff(clean, snap(lo + 5, hi, hi + 7)) == hi
    assert gate._mem_diff(clean, snap(base + size - 1)) == base + size - 1
    # overlapping and out-of-region whitelist entries
    wide = DifferentialGate(Image(), GateOptions(ignore_regions=(
        (lo, hi), (lo + 0x80, hi + 0x80), (0, 16), (base + size, 1 << 40))))
    assert wide._mem_diff(clean, snap(hi + 0x7F)) is None
    assert wide._mem_diff(clean, snap(hi + 0x7F, hi + 0x80)) == hi + 0x80


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
