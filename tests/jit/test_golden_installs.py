"""The one compile -> verify -> install pipeline against a golden fixture.

``golden_installs.json`` was captured at the commit *before*
``repro.jit.plan`` — when ``BinaryTransformer``, ``GuardedTransformer``,
``Instrumenter``, ``TieredEngine`` and a compile-farm worker each threaded
the sequence by hand — by running this file as a script::

    PYTHONPATH=<parent>/src python tests/jit/test_golden_installs.py --capture

It holds, for the 24 ``compile_cold`` cells and the 18 ``verified_install``
cells of the ledger plus one instrumented install and tiered T1 / T1-edges
/ T2 handles: every cache key a stage stored or looked up (lifted / module
/ machine / rewrite), the guard key, the rung that served, ``verified``,
the machine verdict, the cache stage cold and warm, the sha-256 of the
installed bytes, and the ``guard.*`` / ``tier.*`` / ``cache.*`` counters.
The tests recompute the same dict through today's front doors and demand
equality.

The ``guard.gate.reject`` key was dropped from every ``counters`` cell: it
counted the same event as ``guard.verification_rejections``, which stays;
every other key and value was re-captured unchanged.  When the JIT lost
its options, the key columns alone were re-captured: ``keys.machine`` (now
the module key) and ``guard_key``.  When the guard key took in DBrew's
entry, the ``guard_key`` column of every ``guard`` cell moved.  No
installed byte moved.  When a code digest took in the address the code
sits at (the same bytes elsewhere lift to other IR), the ``keys`` columns
(lifted, module, machine, rewrite) and ``guard_key`` were re-captured;
nothing else moved.  When the machine verifier learned that a block which
emits no bytes falls into the block laid out after it, the
``machine_verdict`` of the ``flat`` and ``sorted`` ``line.dbrew+llvm``
guard cells (cold, warm, uncached) moved from ``inconclusive`` to
``proved``; nothing else moved.  When DBrew began to count a fork only
against the loop it sits in, to emit a known source register as an
immediate and to pool each constant once per rewrite, the ``sha256`` of
the ``dbrew`` and ``dbrew+llvm`` cells of ``flat`` and ``sorted`` moved
with the ``lifted``/``module``/``machine`` keys of their ``dbrew+llvm``
cells (compile and guard), and so did the ``sha256`` of the
``flat.line.llvm-fix`` cells: the same instructions, reading their
constants at other rodata addresses, because fewer pool slots were
allocated before them.  Nothing else moved.  When the compile farm was
deleted, so were the fixture's ``farm`` section (worker jobs, the jobs the
engine shipped, the client-side install) and the four ``tier.farm.*``
counters, zero in every ``tiered`` cell; the fixture was edited, not
re-captured, and no other value moved.

Two entries differ from the parent on purpose (each has its own test):
an edge-profile T1 compile now runs under its job budget
(``tests/tier/test_tiered_engine.py``) and a T1 candidate the one-off gate
rejects is evicted and quarantined (same file); neither path is taken by a
golden scenario, so the fixture itself is reproduced without exception.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import FunctionSignature, compile_c
from repro.analysis import PassValidator
from repro.bench import modes as M
from repro.cache import SpecializationCache
from repro.guard import GateOptions, GuardedTransformer
from repro.instrument import Instrumenter, InstrumentOptions
from repro.obs.metrics import MetricsRegistry
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.tier import T1, T2, TieredEngine, TierPolicy

GOLDEN = Path(__file__).with_name("golden_installs.json")

SETUP = JacobiSetup(sz=17, sweeps=1)
TRANSFORMS = ("llvm", "llvm-fix", "dbrew", "dbrew+llvm")
LOOP_SRC = ("long f(long a, long b) { long s = 0; "
            "for (long i = 0; i < a; i++) s += i * b; return s; }")
SIG = FunctionSignature(("i", "i"), "i")


def recording(cache: SpecializationCache) -> SpecializationCache:
    """Make ``cache.seen`` remember, in order and without repeats, every
    key a stage of the pipeline stores under or looks up.  Wraps the
    instance, not the class."""
    cache.seen = {}

    def wrap(method: str, stage: str, key_at: int) -> None:
        inner = getattr(cache, method)

        def noting(*args):
            keys = cache.seen.setdefault(stage, [])
            if args[key_at] not in keys:
                keys.append(args[key_at])
            return inner(*args)

        setattr(cache, method, noting)

    for stage, per_image in (("machine", 1), ("module", 0), ("lifted", 0),
                             ("rewrite", 1)):
        wrap(f"get_{stage}", stage, per_image)
        wrap(f"put_{stage}", stage, per_image)
    return cache


def _sha(image, addr: int, name: str) -> str:
    return hashlib.sha256(
        image.memory.read(addr, image.func_sizes[name])).hexdigest()


def _counters(registry: MetricsRegistry) -> dict:
    """The registry's counters and families; wall-clock sums, histograms
    and views carry no behaviour and are left out."""
    out = {}
    for name, value in registry.snapshot().items():
        if "seconds" in name or "ewma" in name:
            continue
        if isinstance(value, dict):
            value = {str(k): v for k, v in value.items()}
        out[name] = value
    return out


def _negatives(cache: SpecializationCache) -> list[str]:
    return sorted(cache.negative._store.keys())


# -- the 24 compile_cold cells ---------------------------------------------------


def capture_compile() -> dict:
    ws = StencilWorkspace(SETUP)
    out: dict = {}
    for code in M.CODES:
        for line in (False, True):
            for mode in TRANSFORMS:
                cache = recording(SpecializationCache())
                cold = M.prepare_kernel(ws, code, mode, line=line,
                                        cache=cache, uid=".g")
                warm = M.prepare_kernel(ws, code, mode, line=line,
                                        cache=cache, uid=".g")
                assert warm.kernel_addr == cold.kernel_addr
                out[f"{code}.{'line' if line else 'elem'}.{mode}"] = {
                    "keys": cache.seen,
                    "cache_stage": [cold.cache_stage, warm.cache_stage],
                    "sha256": _sha(ws.image, cold.kernel_addr, cold.name),
                    "counters": _counters(cache.registry),
                }
    return out


# -- the 18 verified_install cells -------------------------------------------------


def _guard_row(ws, guard: GuardedTransformer, req: M.StencilRequest,
               mode: str, name: str) -> dict:
    """``prepare_kernel``'s guarded request, made directly so the full
    ``GuardResult`` can be read."""
    res = guard.transform(
        req.func, req.signature, req.fixes, mem_regions=req.mem_regions,
        name=name, ladder=M.GUARD_LADDERS[mode], dbrew_func=req.dbrew_func,
        probes=req.probes)
    tx = res.result
    return {"mode": res.mode, "verified": res.verified,
            "gate": None if res.gate is None else
            [res.gate.passed, res.gate.conclusive, res.gate.vacuous],
            "attempts": [[a.rung, a.ok, a.error_type, a.quarantined,
                          a.verified, a.context.get("stage")]
                         for a in res.attempts],
            "machine_verdict": tx.machine_verdict if tx else None,
            "cache_stage": tx.cache_stage if tx else None,
            "machine_gated": tx.machine_gated if tx else None,
            "sha256": _sha(ws.image, res.addr, res.name)}


def capture_guard() -> dict:
    ws = StencilWorkspace(SETUP)
    out: dict = {}
    for code in M.CODES:
        for line in (False, True):
            for mode in M.GUARD_LADDERS:
                cell = f"{code}.{'line' if line else 'elem'}.{mode}"
                req = M.request(ws, code, line)
                reg = MetricsRegistry()
                cache = recording(SpecializationCache(registry=reg))

                def guard(**kw):
                    return GuardedTransformer(
                        ws.image, validator=PassValidator(),
                        machine_verify=True,
                        gate_options=GateOptions(samples=2, seed=1), **kw)

                cached = guard(cache=cache, registry=reg)
                row = {
                    "guard_key": cached._guard_key(
                        ws.image.symbol(req.func), req.signature,
                        req.fixes, req.mem_regions,
                        ws.image.symbol(req.dbrew_func)),
                    "cold": _guard_row(ws, cached, req, mode, f"g.{cell}"),
                    "warm": _guard_row(ws, cached, req, mode, f"g.{cell}"),
                    "keys": cache.seen,
                    "negatives": _negatives(cache),
                    "counters": _counters(reg),
                }
                # the ledger's own configuration: no cache at all
                bare = guard()
                row["uncached"] = _guard_row(ws, bare, req, mode,
                                             f"u.{cell}")
                row["uncached_counters"] = _counters(bare.registry)
                out[cell] = row
    return out


# -- instrumented, tiered ------------------------------------------------------------


def capture_instrumented() -> dict:
    prog = compile_c(LOOP_SRC)
    res = Instrumenter(prog.image, gate_options=GateOptions(samples=1)) \
        .instrument("f", SIG, probes=((6, 3), (1, 9), (0, 5)),
                    options=InstrumentOptions(watch_returns=True))
    gate = res.gate_report
    return {"f.instr": {
        "machine_verdict": res.machine_verdict,
        "gate": [gate.passed, gate.conclusive, gate.vacuous],
        "sha256": _sha(prog.image, res.addr, res.name),
        "buffer": [res.buffer.addr, res.buffer.size],
        "blocks": list(res.plan.block_names),
        "stages": sorted(res.seconds),
    }}


def _drive(eng: TieredEngine, handle, tier: int) -> None:
    """Cross ``tier``'s threshold by exactly the calls it takes, then let
    the background compile finish — one job at a time, so every counter
    is the same on every run."""
    while handle.calls < handle.governor.thresholds[tier]:
        handle.address()
    assert eng.drain(120.0)


def _tier_row(image, eng: TieredEngine, handle, cache) -> dict:
    return {
        "codes": {str(t): [c.mode, c.verified, _sha(image, c.addr, c.name)]
                  for t, c in sorted(handle.codes.items()) if t},
        "pinned": [handle.governor.pinned_max, handle.governor.pin_reason],
        "profile": handle.governor.snapshot()["profile"].split("@")[0],
        "keys": cache.seen,
        "negatives": _negatives(cache),
        "counters": _counters(eng.registry),
    }


def _tiered(scenario: str) -> dict:
    prog = compile_c(LOOP_SRC)
    reg = MetricsRegistry()
    cache = recording(SpecializationCache(registry=reg))
    kw: dict = {"cache": cache, "registry": reg, "max_workers": 1,
                "machine_verify": True,
                "policy": TierPolicy(promote_calls=(2, 10**9))}
    reg_kw: dict = {}
    tiers = [T1]
    if scenario == "t1_edges":
        kw["profile"] = "edges"
    elif scenario == "t2":
        kw["policy"] = TierPolicy(promote_calls=(2, 6))
        reg_kw = {"fixes": {1: 3}, "probes": ((10,), (5,))}
        tiers = [T1, T2]
    with TieredEngine(prog.image, **kw) as eng:
        handle = eng.register("f", SIG, **reg_kw)
        for tier in tiers:
            _drive(eng, handle, tier)
        return _tier_row(prog.image, eng, handle, cache)


def capture_tiered() -> dict:
    return {s: _tiered(s) for s in ("t1", "t1_edges", "t2")}


# -- tests ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _assert_same(got: dict, want: dict) -> None:
    got = json.loads(json.dumps(got))  # tuples -> lists, int keys -> str
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


def test_compile_cold_cells_reproduce(golden):
    assert len(golden["compile"]) == 24
    _assert_same(capture_compile(), golden["compile"])


def test_verified_install_cells_reproduce(golden):
    assert len(golden["guard"]) == 18
    _assert_same(capture_guard(), golden["guard"])


def test_instrumented_install_reproduces(golden):
    _assert_same(capture_instrumented(), golden["instrumented"])


def test_tiered_installs_reproduce(golden):
    _assert_same(capture_tiered(), golden["tiered"])


def _dump(golden: dict) -> str:
    """JSON with one line per cell."""
    sections = []
    for name, cells in sorted(golden.items()):
        rows = ",\n".join(f"{json.dumps(key)}: "
                          f"{json.dumps(cell, sort_keys=True)}"
                          for key, cell in sorted(cells.items()))
        sections.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    if sys.argv[1:2] != ["--capture"]:
        sys.exit("usage: test_golden_installs.py --capture [OUT]")
    target = Path(sys.argv[2]) if len(sys.argv) > 2 else GOLDEN
    target.write_text(_dump({
        "compile": capture_compile(), "guard": capture_guard(),
        "instrumented": capture_instrumented(),
        "tiered": capture_tiered()}))
    print(f"wrote {target}")
