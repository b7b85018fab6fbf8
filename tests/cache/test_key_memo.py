"""The request-key memo is never stale.

A repeat request looks its keys up in the cache's per-image memo instead of
re-deriving them.  The memo is keyed by the extent of the entry's code, the
request's configuration and the bytes of its fixed memory read on every
request, and it is dropped whenever the image is patched.  So each of these
must give a fresh compile (LLVM, ``llvm-fix``) or a fresh rewrite (DBrew),
never the code installed for the request before it:

* a byte of fixed memory written between two equal requests,
* ``patch_code`` of the entry,
* ``patch_code`` of a known callee,
* the entry's symbol re-pointed at other code.

And on all 24 cells of the ledger, every memoized key equals the value the
unmemoized derivation (``keys.lifted_key``/``module_key``,
``Rewriter._cache_key``) gives.
"""

from __future__ import annotations

import pytest

from repro.bench import modes as M
from repro.cache import SpecializationCache
from repro.cache import keys
from repro.cpu import Image, Simulator
from repro.dbrew import Rewriter
from repro.jit import BinaryTransformer
from repro.jit.plan import Pipeline
from repro.lift import FunctionSignature, LiftOptions
from repro.lift.fixation import FixedMemory
from repro.stencil.data import FP_LAYOUT, FS_LAYOUT
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.x86.asm import assemble
from repro.x86.asmparser import parse_asm

SIG = FunctionSignature(("i", "i"), "i")
SIG_G = FunctionSignature(("i",), "i")
TRANSFORMS = ("llvm", "llvm-fix", "dbrew", "dbrew+llvm")


def _install(img: Image, name: str, src: str) -> tuple[int, list]:
    base = img.next_code_addr()
    code, placed = assemble(parse_asm(src), base=base)
    return img.add_function(name, code), placed


class Program:
    """``f(p, b) = g(p[0] + b + 0x1000)`` with ``g(x) = x + 0x2000`` as its
    known callee, a second entry ``h`` of ``f``'s shape adding 0x3000, and
    the eight bytes ``p`` points at."""

    def __init__(self) -> None:
        img = self.image = Image()
        self.g, g_code = _install(img, "g", "mov rax, rdi\nadd rax, 0x2000\n"
                                  "ret")
        body = "mov rax, [rdi]\nadd rax, rsi\nadd rax, {imm:#x}\n" \
               f"mov rdi, rax\ncall {self.g:#x}\nret"
        self.f, f_code = _install(img, "f", body.format(imm=0x1000))
        self.h, _ = _install(img, "h", body.format(imm=0x3000))
        # the imm32 of each ``add rax, imm`` ends where the next one starts
        self.f_imm = f_code[3].addr - 4
        self.g_imm = g_code[2].addr - 4
        self.p = img.alloc_data(8, data=(5).to_bytes(8, "little"))
        self.sim = Simulator(img)
        self.cache = SpecializationCache()
        self.n = 0

    def llvm_fix(self):
        tx = BinaryTransformer(self.image, cache=self.cache, lift_options=(
            LiftOptions(known_functions={self.g: ("g", SIG_G)})))
        self.n += 1
        res = tx.llvm_fixed("f", SIG, {0: FixedMemory(self.p, 8)},
                            name=f"f.fix{self.n}")
        return res.cache_stage, self.sim.call_int(res.addr, (0, 3))

    def dbrew(self):
        rw = Rewriter(self.image, "f", cache=self.cache)
        rw.set_signature(("i", "i")).set_par(0, self.p)
        rw.set_mem(self.p, self.p + 8)
        hits = self.cache.stats.stage_hits["rewrite"]
        self.n += 1
        addr = rw.rewrite(name=f"f.rw{self.n}")
        assert rw.last_error is None and addr != rw.entry
        hit = self.cache.stats.stage_hits["rewrite"] > hits
        return ("rewrite" if hit else None), self.sim.call_int(addr, (0, 3))

    def want(self) -> int:
        return self.sim.call_int("f", (self.p, 3))


def _write_fixed_memory(prog: Program) -> None:
    prog.image.memory.write(prog.p, (9).to_bytes(8, "little"))


def _patch_entry(prog: Program) -> None:
    prog.image.patch_code(prog.f_imm, (0x1100).to_bytes(4, "little"))


def _patch_callee(prog: Program) -> None:
    prog.image.patch_code(prog.g_imm, (0x2200).to_bytes(4, "little"))


def _repoint_entry(prog: Program) -> None:
    prog.image.symbols["f"] = prog.h
    prog.image.func_sizes["f"] = prog.image.func_sizes["h"]


CHANGES = {"fixed memory written": _write_fixed_memory,
           "entry patched": _patch_entry,
           "known callee patched": _patch_callee,
           "entry re-pointed": _repoint_entry}
#: the stage ``llvm-fix`` resumes at after each change: new fixed bytes
#: reuse the lifted IR, new code lifts afresh
RESUMES = {"fixed memory written": "lifted", "entry patched": None,
           "known callee patched": None, "entry re-pointed": None}


@pytest.mark.parametrize("change", CHANGES)
def test_llvm_fix_compiles_afresh_after(change):
    prog = Program()
    cold = prog.llvm_fix()
    assert cold == (None, prog.want()) == (None, 5 + 3 + 0x3000)
    assert prog.llvm_fix() == ("machine", cold[1])  # the memo is warm
    CHANGES[change](prog)
    want = prog.want()
    assert want != cold[1]
    assert prog.llvm_fix() == (RESUMES[change], want)
    assert prog.llvm_fix() == ("machine", want)


@pytest.mark.parametrize("change", CHANGES)
def test_dbrew_rewrites_afresh_after(change):
    prog = Program()
    cold = prog.dbrew()
    assert cold == (None, prog.want())
    assert prog.dbrew() == ("rewrite", cold[1])
    CHANGES[change](prog)
    want = prog.want()
    assert want != cold[1]
    assert prog.dbrew() == (None, want)
    assert prog.dbrew() == ("rewrite", want)


def test_a_patch_drops_the_key_memo():
    """DBrew's key digests the entry's code only; the callee it inlines is
    covered by the patch dropping the memo with every other per-image
    entry."""
    prog = Program()
    prog.dbrew()
    prog.llvm_fix()
    state = prog.cache.attach_image(prog.image)
    assert len(state.derived) == 2
    _patch_callee(prog)
    assert not state.derived and not state.code_digests


# -- the memo equals the derivation, on the ledger's cells -------------------


def _coefficients(ws: StencilWorkspace, k: int) -> None:
    """The flat descriptor's four coefficients, varied by ``k``."""
    base = ws.flat.addr + FS_LAYOUT.offset_of("p") + FP_LAYOUT.offset_of("f")
    for j in range(4):
        ws.image.memory.write_f64(base + j * FP_LAYOUT.size,
                                  0.25 + k * (2 * j - 3) / 128)


def test_every_memoized_key_is_the_derived_key(monkeypatch):
    seen: list[tuple[str, object, object]] = []
    keys_of = Pipeline._keys
    request_key = Rewriter._request_key

    def checked_keys(self, cache, plan, func, signature, fixes, fixed):
        got = keys_of(self, cache, plan, func, signature, fixes, fixed)
        lkey = keys.lifted_key(self.image, func, signature, plan.lift)
        mkey = keys.module_key(
            lkey, "fixed" if fixed else "identity",
            keys.fixes_digest(fixes, self.image.memory),
            keys.options_digest(plan.o3))
        seen.append((plan.rung, got, (lkey, mkey)))
        return got

    def checked_rewrite_key(self):
        got = request_key(self)
        seen.append(("dbrew", got, self._cache_key(self._config())))
        return got

    monkeypatch.setattr(Pipeline, "_keys", checked_keys)
    monkeypatch.setattr(Rewriter, "_request_key", checked_rewrite_key)
    ws = StencilWorkspace(JacobiSetup(sz=17, sweeps=1))
    cache = SpecializationCache()
    state = cache.attach_image(ws.image)
    sizes = []
    for k in (0, 1, 0):
        _coefficients(ws, k)
        for _repeat in range(2):
            for code in M.CODES:
                for line in (False, True):
                    for mode in TRANSFORMS:
                        M.prepare_kernel(ws, code, mode, line=line,
                                         cache=cache, uid=f".k{k}")
            sizes.append(len(state.derived))
    assert all(got == want for _rung, got, want in seen), \
        [s for s in seen if s[1] != s[2]]
    # 24 cells, two passes each, three coefficient sets: each request
    # looks up one key pair or DBrew's key, and dbrew+llvm both
    assert len(seen) == 3 * 2 * (24 + 6)
    # (dbrew+llvm lifts DBrew's output as an ``llvm`` plan)
    assert {rung for rung, _got, _want in seen} == {"llvm", "llvm-fix",
                                                    "dbrew"}
    # a repeat derives nothing, and so does a coefficient set seen before
    assert sizes[0] == sizes[1] and sizes[2] == sizes[3] == sizes[4] \
        == sizes[5] > sizes[0]
