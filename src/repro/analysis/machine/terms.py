"""Canonical term algebra for the machine-layer translation validator.

Both symbolic executors — the IR-side mirror of the lowering and the
machine-side interpreter of decoded x86 — build values from the helpers in
this module, so *semantic* equality questions reduce to *structural*
equality of canonical terms.  The canonicalizer therefore has one job:
collapse every rewriting freedom the backend actually exercises onto a
single normal form:

* ``lin`` — a linear combination ``sum(coeff_i * t_i) + const`` (mod 2^64)
  absorbs add/sub/neg chains, GEP index peeling (``address_of`` folds
  ``add x, C`` and ``shl x, k`` into base+index*scale+disp operands), and
  GCC-style ``synth_mult`` lea/shl multiply chains;
* ``mask``/``sext`` — width changes; 32-bit register writes zero-extend,
  so i32 operations are ``mask(32, op(mask(32, a), mask(32, b)))`` on both
  sides by construction;
* commutative operand sorting — the emitter freely swaps operands of
  add/mul/and/or/xor (and addsd/mulsd) when the destination already holds
  the second operand;
* constant folding mod 2^64 — mirrors ``repro.backend.opt.local_propagate``
  so TAC-level folding and term-level folding agree.

Terms are plain ints (constants, always reduced mod 2^64) or nested
tuples whose first element is a tag.  Tuples are hashable and compare
structurally; deterministic ordering uses ``repr``.
"""

from __future__ import annotations

from typing import Union

from repro.arith import to_signed, trunc_div, trunc_rem

MASK64 = (1 << 64) - 1

#: a term: an int constant (mod 2^64) or a tagged tuple
Term = Union[int, tuple]

#: condition-code inversion (mirror of repro.backend.tac.INVERT_CC)
INVERT_CC = {
    "e": "ne", "ne": "e", "l": "ge", "ge": "l", "le": "g", "g": "le",
    "b": "ae", "ae": "b", "be": "a", "a": "be",
}


def const(v: int) -> int:
    return v & MASK64


def _key(t: Term) -> str:
    return repr(t)


# -- linear combinations -----------------------------------------------------


def _to_lin(t: Term) -> tuple[tuple[tuple[Term, int], ...], int]:
    if isinstance(t, int):
        return (), t
    if isinstance(t, tuple) and t[0] == "lin":
        return t[1], t[2]
    return ((t, 1),), 0


def _from_lin(addends: dict, c: int) -> Term:
    c &= MASK64
    items = tuple(sorted(
        ((t, k & MASK64) for t, k in addends.items() if k & MASK64),
        key=lambda tk: _key(tk[0])))
    if not items:
        return c
    if len(items) == 1 and items[0][1] == 1 and c == 0:
        return items[0][0]
    return ("lin", items, c)


def op_add(a: Term, b: Term) -> Term:
    aa, ac = _to_lin(a)
    ba, bc = _to_lin(b)
    merged: dict = {}
    for t, k in aa + ba:
        merged[t] = merged.get(t, 0) + k
    return _from_lin(merged, ac + bc)


def op_scale(t: Term, k: int) -> Term:
    k &= MASK64
    if k == 0:
        return 0
    if k == 1:
        return t
    aa, ac = _to_lin(t)
    return _from_lin({tt: kk * k for tt, kk in aa}, ac * k)


def op_sub(a: Term, b: Term) -> Term:
    return op_add(a, op_scale(b, MASK64))  # -1 mod 2^64


def op_neg(t: Term) -> Term:
    return op_scale(t, MASK64)


def op_mul(a: Term, b: Term) -> Term:
    if isinstance(a, int) and isinstance(b, int):
        return (a * b) & MASK64
    if isinstance(a, int):
        return op_scale(b, a)
    if isinstance(b, int):
        return op_scale(a, b)
    x, y = sorted((a, b), key=_key)
    return ("mul", x, y)


# -- bitwise -----------------------------------------------------------------


def _width_of(t: Term) -> int:
    """Upper bound on significant bits of a term's value."""
    if isinstance(t, int):
        return t.bit_length()
    tag = t[0]
    if tag == "mask":
        return t[1]
    if tag in ("cc", "fcc"):
        return 1
    if tag == "load":  # ("load", n, addr, w): zero-extended w-byte value
        return 8 * t[3]
    if tag == "sload":  # ("sload", ver, off, w)
        return 8 * t[3]
    if tag == "sldx":  # ("sldx", k, ver, addr, w, stack_snapshot)
        return 8 * t[4]
    if tag == "ite":
        return max(_width_of(t[2]), _width_of(t[3]))
    return 64


def mask(bits: int, t: Term) -> Term:
    if bits >= 64:
        return t
    if bits <= 0:
        return 0
    if isinstance(t, int):
        return t & ((1 << bits) - 1)
    if isinstance(t, tuple) and t[0] == "mask":
        return mask(min(bits, t[1]), t[2])
    if isinstance(t, tuple) and t[0] == "lin":
        # the low ``bits`` bits of a linear combination depend only on the
        # low ``bits`` bits of each coefficient: reduce them so a 64-bit
        # sign-extended immediate (machine side) and a pre-masked 32-bit
        # immediate (IR side) canonicalize identically under the mask
        m = (1 << bits) - 1
        reduced: dict = {}
        for tt, kk in t[1]:
            reduced[tt] = reduced.get(tt, 0) + (kk & m)
        t2 = _from_lin(reduced, t[2] & m)
        if t2 != t:
            return mask(bits, t2)
    if isinstance(t, tuple) and t[0] in ("and", "or", "xor") \
            and isinstance(t[2], int):
        # bitwise ops act bit-for-bit, so under a width mask the constant
        # operand is only observable modulo the mask: a sign-extended
        # 64-bit immediate (machine side, e.g. ``xor eax, -1``) and a
        # pre-masked 32-bit immediate (IR side) canonicalize identically.
        # Saturating/annihilating constants fold the whole node.
        m = (1 << bits) - 1
        c = t[2] & m
        if t[0] == "or" and c == m:
            return m
        if t[0] == "and" and c == 0:
            return 0
        if (c == 0 and t[0] in ("or", "xor")) or (c == m and t[0] == "and"):
            return mask(bits, t[1])  # identity element under the mask
        if c != t[2]:
            return mask(bits, (t[0], t[1], c))
    if isinstance(t, tuple) and t[0] == "merge1" and bits <= 8:
        # ("merge1", old, new): byte write into a wider register; a narrow
        # read sees only the new byte (the setcc cl / movzx dst, cl idiom)
        return mask(bits, t[2])
    if _width_of(t) <= bits:
        return t
    return ("mask", bits, t)


def sext(bits: int, t: Term) -> Term:
    """Sign-extend the low ``bits`` bits of ``t`` to 64."""
    if bits >= 64:
        return t
    # sext only observes the low ``bits`` bits: a wider (or equal) mask on
    # the operand is invisible (movsx reads through a width-masked view,
    # the IR mirror uses the raw term — same normal form for both)
    while isinstance(t, tuple) and t[0] == "mask" and t[1] >= bits:
        t = t[2]
    if isinstance(t, int):
        return to_signed(t, bits) & MASK64
    if _width_of(t) < bits:  # sign bit statically zero
        return t
    return ("sext", bits, t)


def op_and(a: Term, b: Term) -> Term:
    if isinstance(a, int) and isinstance(b, int):
        return a & b
    if isinstance(b, int):
        a, b = b, a
    if isinstance(a, int):  # a const, b term
        if a == MASK64:
            return b
        if (a & (a + 1)) == 0:  # 2^k - 1
            return mask(a.bit_length(), b)
        return ("and", b, a)
    if a == b:
        return a
    x, y = sorted((a, b), key=_key)
    return ("and", x, y)


def op_or(a: Term, b: Term) -> Term:
    if isinstance(a, int) and isinstance(b, int):
        return a | b
    if isinstance(b, int):
        a, b = b, a
    if isinstance(a, int):
        if a == 0:
            return b
        if a == MASK64:
            return MASK64
        return ("or", b, a)
    if a == b:
        return a
    x, y = sorted((a, b), key=_key)
    return ("or", x, y)


def op_xor(a: Term, b: Term) -> Term:
    if isinstance(a, int) and isinstance(b, int):
        return a ^ b
    if a == b:
        return 0
    if isinstance(b, int):
        a, b = b, a
    if isinstance(a, int):
        if a == 0:
            return b
        return ("xor", b, a)
    x, y = sorted((a, b), key=_key)
    return ("xor", x, y)


# -- shifts and division -----------------------------------------------------


def _count_mask(w: int) -> int:
    return 31 if w == 4 else 63


def _canon_count(w: int, b: Term) -> Term:
    """Hardware masks the count to 5 (32-bit) or 6 (64-bit) bits; the
    machine side reads it through ``cl`` (a mask-8 view), the IR side uses
    the raw term — mask(5/6) is the common normal form of both."""
    return mask(5 if w == 4 else 6, b)


def op_shl(w: int, a: Term, b: Term) -> Term:
    if isinstance(b, int):
        k = b & _count_mask(w)
        if k == 0:
            return a
        return op_mul(a, 1 << k)  # caller masks the write at width w
    return ("shl", w, a, _canon_count(w, b))


def op_shr(w: int, a: Term, b: Term) -> Term:
    if isinstance(b, int):
        k = b & _count_mask(w)
        if k == 0:
            return a
        if isinstance(a, int):
            av = a & ((1 << 32) - 1) if w == 4 else a
            return av >> k
        return ("shr", w, a, k)
    return ("shr", w, a, _canon_count(w, b))


def op_sar(w: int, a: Term, b: Term) -> Term:
    if isinstance(b, int):
        k = b & _count_mask(w)
        if k == 0:
            return a
        if isinstance(a, int):
            return (to_signed(a, 32 if w == 4 else 64) >> k) & MASK64
        return ("sar", w, a, k)
    return ("sar", w, a, _canon_count(w, b))


def op_idiv(w: int, a: Term, b: Term) -> Term:
    if isinstance(a, int) and isinstance(b, int):
        bits = 32 if w == 4 else 64
        sa, sb = to_signed(a, bits), to_signed(b, bits)
        if sb != 0:
            return trunc_div(sa, sb) & MASK64
    return ("idiv", w, a, b)


def op_irem(w: int, a: Term, b: Term) -> Term:
    if isinstance(a, int) and isinstance(b, int):
        bits = 32 if w == 4 else 64
        sa, sb = to_signed(a, bits), to_signed(b, bits)
        if sb != 0:
            return trunc_rem(sa, sb) & MASK64
    return ("irem", w, a, b)


# -- conditions --------------------------------------------------------------

_CC_SIGNED = {"l", "le", "g", "ge"}


def cc_term(cc: str, w: int, a: Term, b: Term) -> Term:
    """Integer condition: outcome of ``cmp a, b`` at operand width ``w``
    observed through condition code ``cc`` (emitter cc names)."""
    a = mask(32, a) if w == 4 else a
    b = mask(32, b) if w == 4 else b
    if isinstance(a, int) and isinstance(b, int):
        bits = 32 if w == 4 else 64
        if cc in _CC_SIGNED:
            x, y = to_signed(a, bits), to_signed(b, bits)
        else:
            x, y = a, b
        return int({
            "e": x == y, "ne": x != y,
            "l": x < y, "le": x <= y, "g": x > y, "ge": x >= y,
            "b": x < y, "be": x <= y, "a": x > y, "ae": x >= y,
        }[cc])
    return ("cc", cc, 4 if w == 4 else 8, a, b)


def fcc_term(cc: str, a: Term, b: Term) -> Term:
    """Float condition: ``ucomisd a, b`` observed through ``cc``."""
    return ("fcc", cc, a, b)


def negate_cond(t: Term) -> Term | None:
    """The logical negation of a condition term, or None if unknown."""
    if isinstance(t, int):
        return 0 if t else 1
    if t[0] == "cc":
        return ("cc", INVERT_CC[t[1]], t[2], t[3], t[4])
    if t[0] == "fcc":
        return ("fcc", INVERT_CC[t[1]], t[2], t[3])
    return None


def ite(c: Term, a: Term, b: Term) -> Term:
    if isinstance(c, int):
        return a if c else b
    if a == b:
        return a
    return ("ite", c, a, b)


# -- floating point (uninterpreted, commutativity-normalized) ----------------

_FP_COMMUTATIVE = {"fadd", "fmul"}


def fp_term(op: str, a: Term, b: Term) -> Term:
    if op in _FP_COMMUTATIVE:
        x, y = sorted((a, b), key=_key)
        return (op, x, y)
    return (op, a, b)


# -- stack addresses ---------------------------------------------------------

#: the symbolic stack pointer at function entry (points at the return
#: address); every frame address is ``lin {RSP0: 1} + delta``
RSP0: Term = ("sym", "rsp0")


def stack_offset(t: Term) -> int | None:
    """If ``t`` is rsp0 + concrete delta, the delta; else None."""
    if t == RSP0:
        return 0
    if isinstance(t, tuple) and t[0] == "lin":
        addends, c = t[1], t[2]
        if len(addends) == 1 and addends[0] == (RSP0, 1):
            return to_signed(c, 64)
    return None


def references_stack(t: Term) -> bool:
    """True if RSP0 appears anywhere in the term."""
    if isinstance(t, int):
        return False
    if t == RSP0:
        return True
    return any(references_stack(x) for x in t if isinstance(x, tuple))


def stack_addr(delta: int) -> Term:
    return op_add(RSP0, const(delta))
