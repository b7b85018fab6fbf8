"""A farm install computes what the in-process install computes.

The farm splits one compile across two processes: the client runs DBrew,
ships the bytes the compile reads, and emits and gates the module the
worker returns.  These tests hold the split to the in-process pipeline on
the inputs where the two can differ: DBrew's constant pool (the stencil
kernels' coefficients live in rodata) and fixed memory rewritten between
two fixations of the same handle.
"""

from __future__ import annotations

import pytest

from repro import FarmClient, FarmPool, FunctionSignature, Simulator, \
    compile_c
from repro.bench import modes as M
from repro.cache import DiskStore, SpecializationCache
from repro.lift.fixation import FixedMemory
from repro.obs.metrics import MetricsRegistry
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace, \
    matrices_equal
from repro.tier import T1, T2, TieredEngine, TierPolicy


@pytest.fixture()
def farm(tmp_path):
    pool = FarmPool(workers=1, disk_dir=str(tmp_path / "farm"),
                    registry=MetricsRegistry())
    yield FarmClient(pool, registry=MetricsRegistry())
    pool.close()


def _drive(eng: TieredEngine, handle, tier: int) -> None:
    """Call until ``tier`` installs, one compile at a time."""
    for _ in range(100):
        if handle.tier >= tier:
            break
        handle.address()
        assert eng.drain(120.0)
    assert handle.tier == tier


def _stencil_engine(ws, req, **kw):
    eng = TieredEngine(ws.image, max_workers=1, farm_timeout=120.0,
                       policy=TierPolicy(promote_calls=(2, 6)), **kw)
    handle = eng.register(req.func, req.signature, fixes=req.fixes,
                          mem_regions=req.mem_regions, probes=req.probes,
                          dbrew_func=req.dbrew_func)
    return eng, handle


def _module_keys(cache: SpecializationCache) -> list[str]:
    """Every module key ``cache`` stores, in order."""
    keys: list[str] = []
    put = cache.put_module

    def record(mkey, module, main_name):
        keys.append(mkey)
        put(mkey, module, main_name)

    cache.put_module = record
    return keys


@pytest.mark.parametrize("line", [False, True], ids=["element", "line"])
@pytest.mark.parametrize("code", ["flat", "sorted"])
def test_farm_and_in_process_installs_agree_on_the_stencil(farm, code, line):
    setup = JacobiSetup(sz=9, sweeps=1)
    local = StencilWorkspace(setup)
    cache = SpecializationCache()
    local_keys = _module_keys(cache)
    eng, handle = _stencil_engine(local, M.request(local, code, line),
                                  cache=cache)
    with eng:
        for tier in (T1, T2):
            _drive(eng, handle, tier)
    assert len(local_keys) == 2  # llvm-fix, then dbrew+llvm

    ws = StencilWorkspace(setup)
    req = M.request(ws, code, line)
    eng, handle = _stencil_engine(ws, req, farm=farm)
    with eng:
        for tier, mode in ((T1, "llvm-fix"), (T2, "dbrew+llvm")):
            _drive(eng, handle, tier)
            assert handle.code.mode == mode
            assert handle.code.verified == (tier == T2)
            want = ws.reference_sweeps(1)
            ws.run_tiered_sweeps(handle, stencil_arg=req.descriptor,
                                 line=line, sweeps=1, observe=False)
            assert matrices_equal(ws.read_matrix(2), want), (tier, mode)
            ws.reset_matrices()
        assert eng.stats.farm.jobs == 2 and eng.stats.farm.fallbacks == 0
    # the worker published the module the in-process pipeline built
    store = DiskStore(farm.pool.disk_dir)
    assert [f"module-{k}" in store for k in local_keys] == [True] * 2


def test_fixed_bytes_are_read_when_the_job_is_built(farm):
    """Rewriting a fixed region and refixing with the same fixes makes a
    new job over the new bytes, served by a fresh compile."""
    prog = compile_c("long f(long *p, long x) { return p[0] * x + p[1]; }")
    img = prog.image
    cell = img.alloc_data(16)
    img.memory.write_u64(cell, 2)
    img.memory.write_u64(cell + 8, 5)
    fixes = {0: FixedMemory(cell, 16)}
    sim = Simulator(img)
    with TieredEngine(img, farm=farm, max_workers=1, farm_timeout=120.0,
                      policy=TierPolicy(promote_calls=(2, 10**9))) as eng:
        handle = eng.register("f", FunctionSignature(("i", "i"), "i"),
                              fixes=fixes)
        _drive(eng, handle, T1)
        assert sim.call_int(handle.address(), (cell, 10)) == 2 * 10 + 5
        img.memory.write_u64(cell, 7)
        img.memory.write_u64(cell + 8, 1)
        eng.refix(handle, fixes)
        _drive(eng, handle, T1)
        assert sim.call_int(handle.address(), (cell, 10)) == 7 * 10 + 1
        assert eng.stats.farm.jobs == 2 and eng.stats.farm.fallbacks == 0
        assert eng.stats.farm.cache_hits == 0
