"""Content-addressed cache keys for runtime transformations.

A specialization is identified by *what goes into the compile*:

* the machine-code bytes of the function being transformed (and of every
  known callee the lifter will turn into a definition) with the address
  they sit at — the lifter decodes RIP-relative operands and branch
  targets to absolute addresses, so the same bytes elsewhere are other
  code (:func:`code_digest`),
* the declared :class:`~repro.lift.FunctionSignature`,
* the lifter configuration,
* the fixation values — for :class:`~repro.lift.fixation.FixedMemory`
  arguments this includes the *contents* of the fixed region, because
  fixation bakes those bytes into the module as constant globals,
* the :class:`~repro.ir.passes.O3Options` pipeline configuration.

The JIT has one configuration, so code generation adds no ingredient.
Keys are staged so a hit can land at any stage boundary (see
:mod:`repro.cache.cache`):

========  ==========================================================
lifted    H(code at its address, callees, signature, lift options)
module    H(lifted key, mode, fixes, O3 options)
========  ==========================================================

Installed machine code is stored per image (and per image generation)
under its module key: one post-O3 module emits one function.

A repeat request does not re-derive its keys: the cache memoizes them per
image (:meth:`~repro.cache.SpecializationCache.derived_keys`) under the
*inputs* the digests are taken over — :func:`function_extent` standing for
the code bytes, :func:`lift_options_value`, :func:`fixation` (fixed memory
read on every request) — and drops the memo when the image is patched.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import fields, is_dataclass

from repro.cpu.image import Image
from repro.lift import FunctionSignature, LiftOptions
from repro.lift.fixation import FixedMemory
from repro.mem.memory import Memory

_SEP = b"\x00\xff"


def digest_bytes(*parts: bytes) -> str:
    """Stable short digest of a byte sequence."""
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p)
        h.update(_SEP)
    return h.hexdigest()


def digest_str(*parts: str) -> str:
    return digest_bytes(*(p.encode() for p in parts))


#: value-keyed memo for frozen options dataclasses (a handful of distinct
#: configurations exist per process; hashing them per transform is waste)
_OPTS_MEMO: dict[object, str] = {}


def options_digest(opts: object) -> str:
    """Digest of a flat (frozen) options dataclass by field name/value."""
    if not is_dataclass(opts):
        raise TypeError(f"expected a dataclass, got {type(opts).__name__}")
    try:
        memo = _OPTS_MEMO.get(opts)
    except TypeError:  # unhashable (mutable dataclass): no memo
        memo = None
    if memo is not None:
        return memo
    items = []
    for f in sorted(fields(opts), key=lambda f: f.name):
        items.append(f"{f.name}={getattr(opts, f.name)!r}")
    d = digest_str(type(opts).__name__, *items)
    try:
        _OPTS_MEMO[opts] = d
    except TypeError:
        pass
    return d


#: value-keyed memo for frozen FunctionSignature digests — the signature
#: digest sits on every transform/guard/dispatch key computation, and a
#: process sees a handful of distinct signatures, not a stream
_SIG_MEMO: dict[FunctionSignature, str] = {}


def signature_digest(sig: FunctionSignature) -> str:
    d = _SIG_MEMO.get(sig)
    if d is None:
        d = digest_str("sig", ",".join(sig.params), sig.ret or "-")
        _SIG_MEMO[sig] = d
    return d


def function_extent(image: Image, func: str | int) -> tuple[int, int] | None:
    """(address, size) of a function's installed bytes, if known.

    Works for named symbols and for raw addresses that match an installed
    function (e.g. a DBrew rewrite result) — this is how the rewritten-code
    digest feeds the key for the DBrew+LLVM composition.
    """
    if isinstance(func, str):
        name: str | None = func
    else:
        name = image.symbol_at(func)
    if name is None or name not in image.func_sizes:
        return None
    return image.symbol(name), image.func_sizes[name]


def code_digest(image: Image, extent: tuple[int, int]) -> str:
    """Digest of the code at ``extent`` = (address, size), address
    included."""
    addr, size = extent
    return digest_bytes(b"%#x" % addr, image.memory.read(addr, size))


def fixation(fixes: dict[int, int | float | FixedMemory] | None,
             memory: Memory) -> tuple[bytes, ...]:
    """A fixation configuration as a hashable value: what
    :func:`fixes_digest` hashes, one item per fixed parameter.

    A :class:`FixedMemory` region contributes its *bytes*, read now: two
    configs that point at the same address but see different data must not
    collide, and two that see identical data at different addresses still
    differ (the region address is folded into lifted pointer arithmetic by
    specialization).
    """
    if not fixes:
        return ()
    items: list[bytes] = []
    for idx in sorted(fixes):
        v = fixes[idx]
        if isinstance(v, FixedMemory):
            payload = memory.read(v.addr, v.size)
            items.append(b"m%d:%d:%d:" % (idx, v.addr, v.size) + payload)
        elif isinstance(v, float):
            items.append(b"f%d:" % idx + struct.pack("<d", v))
        else:
            items.append(b"i%d:%d" % (idx, v & (2**64 - 1)))
    return tuple(items)


def fixation_digest(items: tuple[bytes, ...]) -> str:
    """Digest of a :func:`fixation` value."""
    if not items:
        return digest_str("fixes", "none")
    return digest_bytes(b"fixes", *items)


def fixes_digest(fixes: dict[int, int | float | FixedMemory] | None,
                 memory: Memory) -> str:
    """Digest of a fixation configuration, content-addressing fixed memory
    (see :func:`fixation`)."""
    return fixation_digest(fixation(fixes, memory))


def lift_options_digest(opts: LiftOptions, image: Image) -> str:
    """Digest of the lifter configuration including known-callee *bytes*.

    ``known_functions`` entries become lifted definitions in the module, so
    their machine code is a compile input exactly like the entry function's.
    """
    items = [
        f"flag_cache={opts.flag_cache}",
        f"facet_cache={opts.facet_cache}",
        f"stack_size={opts.stack_size}",
    ]
    for addr in sorted(opts.known_functions):
        cname, csig = opts.known_functions[addr]
        extent = function_extent(image, addr)
        if extent is not None:
            code = code_digest(image, extent)
        else:
            code = f"@{addr:#x}"
        items.append(f"callee:{cname}:{signature_digest(csig)}:{code}")
    return digest_str("lift", *items)


def lift_options_value(opts: LiftOptions, image: Image) -> tuple:
    """What :func:`lift_options_digest` reads, as a hashable value: each
    known callee by its current extent (its bytes are the image's)."""
    return (opts.flag_cache, opts.facet_cache, opts.stack_size,
            tuple((addr, cname, csig, function_extent(image, addr))
                  for addr, (cname, csig)
                  in sorted(opts.known_functions.items())))


def lifted_key(image: Image, func: str | int, signature: FunctionSignature,
               lift_opts: LiftOptions) -> str | None:
    """Stage-1 key, or None when the function's extent is unknown."""
    extent = function_extent(image, func)
    if extent is None:
        return None
    return digest_str(
        "lifted", code_digest(image, extent), signature_digest(signature),
        lift_options_digest(lift_opts, image),
    )


def module_key(lkey: str, mode: str, fdigest: str, o3_digest: str) -> str:
    """Stage-2 key: the post-O3 module is determined by the lifted IR plus
    the transformation mode, fixation values and pipeline configuration."""
    return digest_str("module", lkey, mode, fdigest, o3_digest)
