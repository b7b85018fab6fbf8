"""Cached IR copies share nothing.

The cache stores a detached ``Module.copy`` of each lifted and post-O3
module and serves a live copy of it on every hit; the caller transforms
what it is served.  For every module a ``warm_respec``-shaped round stores
and for a lifted module with a known callee, a served copy must pass the
verifier, print exactly as the stored entry, and share no value, block,
function, global or constant with the stored entry or with a second served
copy.  Mutating one served copy leaves the next one as it was.
"""

from __future__ import annotations

import pytest

from repro.bench import modes as M
from repro.cache import SpecializationCache
from repro.cc import compile_c
from repro.ir import instructions as I
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.values import Constant, ConstantVector, Value
from repro.ir.verifier import verify_module
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature, LiftOptions
from repro.stencil.data import FP_LAYOUT, FS_LAYOUT
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace

TRANSFORMS = ("llvm", "llvm-fix", "dbrew", "dbrew+llvm")


def _round_stores() -> SpecializationCache:
    """A cache holding what a ``warm_respec`` round stores: the 24 cells,
    then the flat cells that read the descriptor's coefficients under five
    other coefficient sets."""
    ws = StencilWorkspace(JacobiSetup(sz=17, sweeps=1))
    cache = SpecializationCache()
    base = ws.flat.addr + FS_LAYOUT.offset_of("p") + FP_LAYOUT.offset_of("f")
    for k in range(6):
        for j in range(4):
            ws.image.memory.write_f64(base + j * FP_LAYOUT.size,
                                      0.25 + k * (2 * j - 3) / 128)
        for code in M.CODES if k == 0 else ("flat",):
            for line in (False, True):
                for mode in TRANSFORMS:
                    if k and mode == "llvm":
                        continue
                    M.prepare_kernel(ws, code, mode, line=line, cache=cache,
                                     uid=f".v{k}")
    return cache


@pytest.fixture(scope="module")
def entries() -> dict[str, tuple[SpecializationCache, str, str]]:
    """``name -> (cache, stage, key)`` of every stored module."""
    out = {}
    cache = _round_stores()
    for stage, store in (("lifted", cache._lifted),
                         ("module", cache._modules)):
        for key in store.keys():
            out[f"{stage}:{key[:8]}"] = (cache, stage, key)
    # a lifted module whose entry calls a lifted known callee
    prog = compile_c("long helper(long x) { return x * 3; } "
                     "long f(long a, long b) { return helper(a) + b; }")
    own = SpecializationCache()
    helper = prog.image.symbol("helper")
    BinaryTransformer(prog.image, cache=own, lift_options=LiftOptions(
        known_functions={helper: ("helper", FunctionSignature(("i",), "i"))},
    )).llvm_identity("f", FunctionSignature(("i", "i"), "i"))
    (key,) = own._lifted.keys()
    out["known-callee"] = (own, "lifted", key)
    return out


def _stored(entry) -> Module:
    cache, stage, key = entry
    store = cache._lifted if stage == "lifted" else cache._modules
    return store.get(key)[0]


def _serve(entry) -> Module:
    cache, stage, key = entry
    module, name = getattr(cache, f"get_{stage}")(key)
    assert name in module.functions
    return module


def _objects(module: Module) -> dict[int, object]:
    """Every value, block, function, global and constant of ``module`` by
    id, a vector's elements included (types are interned and shared)."""
    out: dict[int, object] = {}

    def value(v: Value) -> None:
        out[id(v)] = v
        if isinstance(v, ConstantVector):
            for e in v.elements:
                value(e)

    for g in module.globals.values():
        value(g)
    for f in module.functions.values():
        value(f)
        for a in f.args:
            value(a)
        for blk in f.blocks:
            out[id(blk)] = blk
            for ins in blk.instructions:
                value(ins)
                for op in ins.operands:
                    value(op)
                if isinstance(ins, I.Call) and not ins.intrinsic:
                    value(ins.callee)
    return out


def test_a_round_stores_sixty_modules(entries):
    stages = [name.split(":")[0] for name in entries]
    assert (stages.count("lifted"), stages.count("module")) == (22, 38)


def test_a_copied_call_reaches_the_copied_callee(entries):
    served = _serve(entries["known-callee"])
    calls = [ins for f in served.functions.values()
             for ins in f.instructions() if isinstance(ins, I.Call)]
    assert [c.callee.name for c in calls] == ["helper"]
    assert calls[0].callee is served.functions["helper"]


def test_a_served_copy_verifies_and_prints_as_a_deepcopy(entries):
    """A served copy is deep: it prints exactly as the stored entry."""
    for name, entry in entries.items():
        served = _serve(entry)
        verify_module(served)
        assert print_module(served) == print_module(_stored(entry)), name


def test_copies_share_nothing(entries):
    for name, entry in entries.items():
        stored = _objects(_stored(entry))
        first, second = (_objects(_serve(entry)) for _ in range(2))
        assert not stored.keys() & first.keys(), name
        assert not stored.keys() & second.keys(), name
        assert not first.keys() & second.keys(), name
        # and every call reaches a function of its own module
        module = _serve(entry)
        for f in module.functions.values():
            for ins in f.instructions():
                if isinstance(ins, I.Call) and not ins.intrinsic:
                    assert module.functions[ins.callee.name] is ins.callee


def test_the_stored_copy_is_detached_and_a_served_copy_is_live(entries):
    for name, entry in entries.items():
        stored, served = _stored(entry), _serve(entry)
        for f in stored.functions.values():
            assert not any(a.uses for a in f.args), name
            assert all(i.operands.user is None and not i.uses
                       for i in f.instructions()), name
        assert all(i.operands.user is i for f in served.functions.values()
                   for i in f.instructions()), name


def _mutate(module: Module) -> None:
    """Erase an instruction, RAUW a constant, place every global."""
    for f in module.functions.values():
        body = [i for i in f.instructions()
                if not i.uses and not i.is_terminator
                and not isinstance(i, (I.Store, I.Call))]
        if body:
            body[0].erase()
        for ins in f.instructions():
            const = next((op for op in ins.operands
                          if isinstance(op, Constant)), None)
            if const is not None:
                f.replace_all_uses(const, Constant(const.type,
                                                   const.value ^ 1))
                break
    for i, g in enumerate(module.globals.values()):
        g.addr = 0x1000 * (i + 1)


def test_mutating_a_served_copy_leaves_the_next_serve_unchanged(entries):
    for name, entry in entries.items():
        want = print_module(_serve(entry))
        mutated = _serve(entry)
        _mutate(mutated)
        assert print_module(mutated) != want, name
        again = _serve(entry)
        assert print_module(again) == want, name
        verify_module(again)
        assert [g.addr for g in again.globals.values()] \
            == [g.addr for g in _stored(entry).globals.values()], name


def test_a_copy_keeps_block_and_value_names(entries):
    for name, entry in entries.items():
        stored, served = _stored(entry), _serve(entry)
        for f, twin in zip(stored.functions.values(),
                           served.functions.values()):
            assert (f.name, [a.name for a in f.args]) \
                == (twin.name, [a.name for a in twin.args]), name
            assert [b.name for b in f.blocks] \
                == [b.name for b in twin.blocks], name
            assert all(b.function is twin for b in twin.blocks), name
