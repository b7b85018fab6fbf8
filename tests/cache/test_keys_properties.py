"""Property tests for cache-key stability.

A key is a content digest, so two guarantees back the specialization
cache: the same compile inputs produce the same key in a *different
process* (different ``PYTHONHASHSEED``, fresh memos), so a key never
depends on object identity or hash order; and *every* option field
perturbs the key, or two different configurations would alias one cache
slot.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

from repro.cache import keys
from repro.cpu import Image
from repro.ir.passes import O3Options
from repro.lift import FunctionSignature, LiftOptions
from repro.x86 import parse_asm
from repro.x86.asm import assemble

_SRC = Path(__file__).resolve().parents[2] / "src"

#: a fixed function every process can rebuild bit-for-bit
_ASM = "mov rax, rdi\nimul rax, rsi\nadd rax, 7\nret"


def _fixed_image() -> Image:
    img = Image()
    code, _ = assemble(parse_asm(_ASM), base=img.next_code_addr())
    img.add_function("f", code)
    return img


def _digest_set() -> dict[str, str]:
    img = _fixed_image()
    sig = FunctionSignature(("i", "i"), "i")
    lkey = keys.lifted_key(img, "f", sig, LiftOptions())
    assert lkey is not None
    return {
        "o3": keys.options_digest(O3Options()),
        "sig": keys.signature_digest(sig),
        "fixes": keys.fixes_digest({1: 7}, img.memory),
        "lifted": lkey,
        "module": keys.module_key(
            lkey, "llvm", keys.fixes_digest(None, img.memory),
            keys.options_digest(O3Options())),
    }


# -- cross-process stability ------------------------------------------------


def test_digests_stable_across_processes():
    """Same inputs, different process + hash seed => identical keys."""
    script = (
        "import json\n"
        f"import tests.cache.test_keys_properties as m\n"
        "print(json.dumps(m._digest_set()))\n"
    )
    local = _digest_set()
    for hashseed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            cwd=str(_SRC.parent),
            env={"PYTHONPATH": str(_SRC), "PYTHONHASHSEED": hashseed,
                 "PATH": "/usr/bin:/bin"},
        )
        import json
        remote = json.loads(proc.stdout)
        assert remote == local, f"PYTHONHASHSEED={hashseed}"


# -- every option field perturbs the key ------------------------------------


def _perturbed(value):
    """A different-but-type-compatible value for an options field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.5
    if isinstance(value, str):
        return value + "_x"
    if value is None:
        return 2
    return None  # unsupported: caller must handle explicitly


def test_every_o3_field_changes_digest():
    base = O3Options()
    base_digest = keys.options_digest(base)
    for f in dataclasses.fields(base):
        nv = _perturbed(getattr(base, f.name))
        assert nv is not None, f"add a perturbation rule for {f.name}"
        variant = dataclasses.replace(base, **{f.name: nv})
        assert keys.options_digest(variant) != base_digest, \
            f"O3Options.{f.name} does not reach the key"


def test_lift_option_fields_change_digest():
    img = _fixed_image()
    base = keys.lift_options_digest(LiftOptions(), img)
    # the digested lifter knobs (name/budget are deliberately excluded:
    # they change labels and limits, never the produced IR)
    for delta in (dict(flag_cache=False), dict(facet_cache=False),
                  dict(stack_size=8192)):
        v = keys.lift_options_digest(LiftOptions(**delta), img)
        assert v != base, delta
    known = LiftOptions()
    known.known_functions[0x1234] = ("g", FunctionSignature(("i",), "i"))
    assert keys.lift_options_digest(known, img) != base


def test_signature_and_fixes_deltas_reach_module_key():
    """A change in any layer input must produce a distinct machine key —
    the module key the machine entry is stored under."""
    img = _fixed_image()
    sig = FunctionSignature(("i", "i"), "i")

    def mkey(*, sig=sig, mode="llvm", fixes=None, o3=O3Options(), lift=None):
        lkey = keys.lifted_key(img, "f", sig, lift or LiftOptions())
        return keys.module_key(lkey, mode,
                               keys.fixes_digest(fixes, img.memory),
                               keys.options_digest(o3))

    base = mkey()
    assert mkey() == base
    variants = [
        mkey(sig=FunctionSignature(("i",), "i")),
        mkey(sig=FunctionSignature(("i", "i"), "f")),
        mkey(mode="dbrew+llvm"),
        mkey(fixes={0: 5}),
        mkey(fixes={0: 6}),
        mkey(fixes={1: 5}),
        mkey(o3=O3Options().replace(enable_gvn=False)),
        mkey(lift=LiftOptions(flag_cache=False)),
    ]
    assert base not in variants
    assert len(set(variants)) == len(variants), "two deltas collide"

