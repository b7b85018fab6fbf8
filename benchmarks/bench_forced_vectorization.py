"""Sec. VI-B's closing experiment: forcing vectorization of the lifted loop.

The paper: specialized lifted loops are never auto-vectorized (missing
metadata), but with ``-force-vector-width=2`` the LLVM-vectorized loop is
"only 23% slower than the loop vectorized by GCC at compile-time", the
difference caused by unaligned memory accesses.
"""

import pytest

from conftest import record
from repro.bench.harness import stencil_arg
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory
from repro.stencil.jacobi import matrices_equal
from repro.stencil.sources import LINE_SIGNATURE

_CYCLES = {}


def _measure(ws, kernel_addr, reference):
    ws.reset_matrices()
    stats = ws.run_sweeps(kernel_addr, line=True, stencil_arg=ws.flat.addr,
                          sweeps=1)
    return stats


@pytest.mark.parametrize("variant", ["gcc-vectorized", "scalar-fix", "forced-vec"])
def test_forced_vectorization(benchmark, workspace, reference, variant):
    ws = workspace
    sig = FunctionSignature(tuple(LINE_SIGNATURE), None)
    if variant == "gcc-vectorized":
        addr = ws.image.symbol("line_direct")
    else:
        # Sec. VII's explicit API forces the vectorizer the metadata gate
        # would refuse; the scalar cell is the plain IR-level fixation
        tx = BinaryTransformer(ws.image)
        transform = tx.llvm_vectorized if variant == "forced-vec" \
            else tx.llvm_fixed
        addr = transform("line_flat", sig,
                         {0: FixedMemory(ws.flat.addr, ws.flat.size)},
                         name=f"k.fv.{variant}").addr

    def sweep():
        ws.reset_matrices()
        return ws.run_sweeps(addr, line=True,
                             stencil_arg=stencil_arg(ws, "flat"), sweeps=1)

    stats = benchmark.pedantic(sweep, rounds=2, iterations=1)
    per_cell = ws.cycles_per_cell(stats, sweeps=1)
    benchmark.extra_info["cycles_per_cell"] = round(per_cell, 2)
    _CYCLES[variant] = per_cell

    # correctness against the native direct kernel
    m2 = ws.read_matrix(2)
    ws.reset_matrices()
    ws.run_sweeps("line_direct", line=True, stencil_arg=0, sweeps=1)
    assert matrices_equal(m2, ws.read_matrix(2))

    if variant == "forced-vec":
        gcc = _CYCLES["gcc-vectorized"]
        scalar = _CYCLES["scalar-fix"]
        forced = _CYCLES["forced-vec"]
        slowdown = 100 * (forced / gcc - 1)
        record("Sec VI-B  forced vectorization of the lifted loop",
               f"gcc-vectorized={gcc:.1f}  scalar={scalar:.1f}  "
               f"forced={forced:.1f} cycles/cell -> forced is "
               f"{slowdown:+.1f}% vs GCC (paper: +23%)")
        assert forced < scalar            # forcing does vectorize profitably
        assert gcc < forced               # ... but unaligned accesses cost
        assert slowdown < 60              # same order as the paper's 23%
