"""Sec. VII future work, implemented: DBrew + a lightweight pass subset.

The paper hopes to "identify a small subset of optimizations we would like
to implement as lightweight post-processing for DBrew without the heavy
cost of LLVM".  This bench compares, for each stencil code's line kernel:

* raw DBrew output,
* DBrew + lightweight subset (``O3Options.lightweight()``),
* DBrew + full -O3,

in both result quality (simulated cycles/cell) and transformation cost.
"""

import time

import pytest

from conftest import record
from repro.bench.harness import stencil_arg
from repro.bench.modes import CODES, prepare_kernel
from repro.ir.passes import O3Options
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature
from repro.stencil.jacobi import matrices_equal
from repro.stencil.sources import LINE_SIGNATURE

_ROWS = {}


@pytest.mark.parametrize("code", CODES)
def test_lightweight_vs_full(benchmark, workspace, reference, code):
    ws = workspace
    sig = FunctionSignature(tuple(LINE_SIGNATURE), None)
    dbrew_addr = prepare_kernel(ws, code, "dbrew", line=True,
                                uid=".lw").kernel_addr

    t0 = time.perf_counter()
    light = BinaryTransformer(
        ws.image, o3_options=O3Options.lightweight()
    ).llvm_identity(dbrew_addr, sig, name=f"k.lw.{code}.light")
    t_light = time.perf_counter() - t0

    t0 = time.perf_counter()
    full = BinaryTransformer(ws.image).llvm_identity(
        dbrew_addr, sig, name=f"k.lw.{code}.full"
    )
    t_full = time.perf_counter() - t0

    sarg = stencil_arg(ws, code)

    def sweep():
        ws.reset_matrices()
        return ws.run_sweeps(light.addr, line=True, stencil_arg=sarg, sweeps=1)

    stats = benchmark.pedantic(sweep, rounds=2, iterations=1)
    m2 = ws.read_matrix(2)
    ws.reset_matrices()
    ws.run_sweeps("line_direct", line=True, stencil_arg=0, sweeps=1)
    assert matrices_equal(m2, ws.read_matrix(2))

    def cycles(addr):
        ws.reset_matrices()
        st = ws.run_sweeps(addr, line=True, stencil_arg=sarg, sweeps=1)
        return ws.cycles_per_cell(st, sweeps=1)

    c_dbrew = cycles(dbrew_addr)
    c_light = ws.cycles_per_cell(stats, sweeps=1)
    c_full = cycles(full.addr)
    benchmark.extra_info.update({
        "dbrew_cycles": round(c_dbrew, 1),
        "light_cycles": round(c_light, 1),
        "full_cycles": round(c_full, 1),
        "light_opt_ms": round(1000 * light.optimize_seconds, 2),
        "full_opt_ms": round(1000 * full.optimize_seconds, 2),
    })
    record(
        "Sec VII  DBrew + lightweight pass subset (line kernels)",
        f"{code:8s} dbrew={c_dbrew:7.1f}  +light={c_light:7.1f} "
        f"(opt {1000 * light.optimize_seconds:6.1f}ms)  "
        f"+full-O3={c_full:7.1f} (opt {1000 * full.optimize_seconds:6.1f}ms) "
        f"cycles/cell",
    )
    assert c_light <= c_dbrew * 1.02
    # the pass subset is measurably cheaper on complex inputs (generic
    # structures); on the trivial direct kernel both pipelines converge
    # after one iteration and the wall times coincide within noise, so no
    # timing assertion there
    if code != "direct":
        assert light.optimize_seconds < full.optimize_seconds
