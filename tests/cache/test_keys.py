"""Key derivation: every compile input must be visible in the key — code
bytes with the address they sit at — and nothing else position-dependent
may leak in."""

import struct

from repro.cache import SpecializationCache
from repro.cache import keys
from repro.cc import compile_c
from repro.cpu import Image, Simulator
from repro.dbrew import Rewriter
from repro.guard import GateOptions, GuardedTransformer
from repro.jit import BinaryTransformer
from repro.ir.passes import O3Options
from repro.jit.plan import DEFAULT_O3, Pipeline, Plan
from repro.lift import FunctionSignature, LiftOptions
from repro.lift.fixation import FixedMemory

SIG_II_I = FunctionSignature(("i", "i"), "i")


def _program():
    return compile_c("long f(long a, long b) { return a * b + 7; }")


def _pipeline_lifted_key(pipeline: Pipeline, cache: SpecializationCache,
                         opts: LiftOptions, func: str,
                         sig: FunctionSignature) -> str | None:
    """The lifted key a pipeline derives (and memoizes) for a request."""
    return pipeline._keys(cache, Plan("llvm", opts, DEFAULT_O3), func, sig,
                          None, False)[0]


def test_options_digest_sensitive_to_each_field():
    base = O3Options()
    seen = {keys.options_digest(base)}
    for variant in (base.replace(enable_gvn=False),
                    base.replace(enable_mem2reg=False),
                    base.replace(fast_math=False),
                    base.replace(force_vector_width=2),
                    base.replace(max_iterations=1)):
        d = keys.options_digest(variant)
        assert d not in seen, variant
        seen.add(d)


def test_options_digest_stable_across_equal_instances():
    assert keys.options_digest(O3Options()) == keys.options_digest(O3Options())
    assert keys.options_digest(GateOptions()) == keys.options_digest(GateOptions())
    # distinct dataclass types never collide
    assert keys.options_digest(O3Options()) != keys.options_digest(GateOptions())


def test_signature_digest_sensitivity():
    d = keys.signature_digest
    assert d(SIG_II_I) == d(FunctionSignature(("i", "i"), "i"))
    assert d(SIG_II_I) != d(FunctionSignature(("i", "f"), "i"))
    assert d(SIG_II_I) != d(FunctionSignature(("i", "i"), None))
    assert d(SIG_II_I) != d(FunctionSignature(("i",), "i"))


def test_fixes_digest_scalar_sensitivity():
    mem = _program().image.memory
    base = keys.fixes_digest({0: 5}, mem)
    assert base == keys.fixes_digest({0: 5}, mem)
    assert base != keys.fixes_digest({0: 6}, mem)      # value
    assert base != keys.fixes_digest({1: 5}, mem)      # param index
    assert base != keys.fixes_digest({0: 5.0}, mem)    # int vs float
    assert base != keys.fixes_digest(None, mem)
    assert keys.fixes_digest(None, mem) == keys.fixes_digest({}, mem)


def test_fixes_digest_hashes_region_contents():
    img = _program().image
    data = img.alloc_data(16)
    img.memory.write_u64(data, 111)
    img.memory.write_u64(data + 8, 222)
    fixes = {0: FixedMemory(data, 16)}
    before = keys.fixes_digest(fixes, img.memory)
    # same address, different bytes -> different key: fixation bakes the
    # region contents into the module as constants
    img.memory.write_u64(data + 8, 999)
    assert keys.fixes_digest(fixes, img.memory) != before


def test_fixes_digest_region_address_matters():
    img = _program().image
    a = img.alloc_data(8)
    b = img.alloc_data(8)
    img.memory.write_u64(a, 7)
    img.memory.write_u64(b, 7)
    # identical contents at different addresses still differ: the address
    # is folded into specialized pointer arithmetic
    assert keys.fixes_digest({0: FixedMemory(a, 8)}, img.memory) != \
        keys.fixes_digest({0: FixedMemory(b, 8)}, img.memory)


def test_function_extent_by_name_and_address():
    img = _program().image
    by_name = keys.function_extent(img, "f")
    assert by_name is not None
    addr, size = by_name
    assert size > 0
    assert keys.function_extent(img, addr) == by_name
    assert keys.function_extent(img, "no_such_symbol") is None
    assert keys.function_extent(img, 0xDEAD0000) is None


def test_lifted_key_tracks_code_bytes():
    img = _program().image
    opts = LiftOptions()
    before = keys.lifted_key(img, "f", SIG_II_I, opts)
    assert before is not None
    assert keys.lifted_key(img, "f", SIG_II_I, opts) == before
    # flip one code byte through the patch API: the key must change
    addr, _size = keys.function_extent(img, "f")
    old = img.memory.read(addr, 1)
    img.patch_code(addr, bytes([old[0] ^ 0xFF]))
    assert keys.lifted_key(img, "f", SIG_II_I, opts) != before
    # restoring the original bytes restores the key (content-addressed)
    img.patch_code(addr, old)
    assert keys.lifted_key(img, "f", SIG_II_I, opts) == before


def test_lifted_key_tracks_signature_and_lift_options():
    img = _program().image
    base = keys.lifted_key(img, "f", SIG_II_I, LiftOptions())
    assert keys.lifted_key(img, "f", FunctionSignature(("i", "i"), None),
                           LiftOptions()) != base
    assert keys.lifted_key(img, "f", SIG_II_I,
                           LiftOptions(facet_cache=False)) != base


def test_pipeline_lifted_key_is_keys_lifted_key():
    """The pipeline memoizes its stage-1 key per image state; it must be
    the key pinned above, for every lift option and across a callee patch
    (the memo is dropped when the image's code changes)."""
    prog = compile_c("long helper(long x) { return x * 3; } "
                     "long f(long a, long b) { return helper(a) + b; }")
    img = prog.image
    cache = SpecializationCache()
    pipeline = Pipeline(img, cache=cache)
    helper = img.symbol("helper")
    known = LiftOptions(known_functions={
        helper: ("helper", FunctionSignature(("i",), "i"))})
    variants = (LiftOptions(), LiftOptions(flag_cache=False),
                LiftOptions(facet_cache=False), LiftOptions(stack_size=8192),
                known)
    for opts in variants:
        assert _pipeline_lifted_key(pipeline, cache, opts, "f", SIG_II_I) == \
            keys.lifted_key(img, "f", SIG_II_I, opts), opts
    before = keys.lifted_key(img, "f", SIG_II_I, known)
    old = img.memory.read(helper, 1)
    img.patch_code(helper, bytes([old[0] ^ 0xFF]))
    after = keys.lifted_key(img, "f", SIG_II_I, known)
    assert after != before  # the callee's bytes are a compile input
    assert _pipeline_lifted_key(pipeline, cache, known, "f", SIG_II_I) \
        == after


def _two_copies() -> Image:
    """``mov rax, [rip + 0x40]; ret`` at two addresses, each copy followed
    by its own datum (11, then 22) outside its extent: the same bytes,
    different code."""
    img = Image()
    for datum in (11, 22):
        addr = img.add_function(f"f{datum}", bytes.fromhex("488b0540000000c3"))
        img.memory.write(addr + 0x47, struct.pack("<Q", datum))
        img._code_cursor = addr + 0x70
    return img


def test_same_bytes_at_another_address_are_other_code():
    sig = FunctionSignature((), "i")
    img = _two_copies()
    sim = Simulator(img)
    assert img.function_bytes("f11") == img.function_bytes("f22")
    assert [sim.call_int(f, ()) for f in ("f11", "f22")] == [11, 22]

    cache = SpecializationCache()
    tx = BinaryTransformer(img, cache=cache)
    for f in ("f11", "f22"):
        assert tx.llvm_identity(f, sig, name=f"{f}.llvm").cache_stage is None
        assert sim.call_int(f"{f}.llvm", ()) == sim.call_int(f, ())
    opts = LiftOptions()
    lifted = [keys.lifted_key(img, f, sig, opts) for f in ("f11", "f22")]
    assert lifted[0] != lifted[1]
    assert lifted[1] == _pipeline_lifted_key(tx, cache, opts, "f22", sig)

    for f in ("f11", "f22"):  # DBrew's rewrite stage
        addr = Rewriter(img, f, cache=cache).set_signature(()).rewrite(
            name=f"{f}.dbrew")
        assert sim.call_int(addr, ()) == sim.call_int(f, ())
    assert cache.stats.stage_hits["rewrite"] == 0

    # a quarantine under one copy's guard key must not reach the other
    guard = GuardedTransformer(img, cache=cache)
    a, b = img.symbol("f11"), img.symbol("f22")
    assert guard._guard_key(a, sig, None, (), a) != \
        guard._guard_key(b, sig, None, (), b)


def test_stage_keys_layer():
    lkey = "00" * 16
    fdig = keys.digest_str("fixes", "none")
    o3 = keys.options_digest(O3Options())
    mkey = keys.module_key(lkey, "identity", fdig, o3)
    assert mkey != keys.module_key(lkey, "fixed", fdig, o3)
    assert mkey != keys.module_key(lkey, "identity", fdig,
                                   keys.options_digest(O3Options(fast_math=False)))
    assert mkey != lkey
    assert len(mkey) == 32  # blake2b-16 hex


def test_cache_code_digest_memo_follows_patches():
    img = _program().image
    cache = SpecializationCache()
    d1 = cache.code_digest(img, "f")
    assert d1 is not None
    assert cache.code_digest(img, "f") == d1  # memoized
    addr, _size = keys.function_extent(img, "f")
    old = img.memory.read(addr, 1)
    img.patch_code(addr, bytes([old[0] ^ 1]))
    assert cache.stats.invalidations == 1
    assert cache.code_digest(img, "f") != d1  # memo dropped, recomputed
