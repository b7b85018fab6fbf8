"""Extensions implementing the paper's Sec. VII future-work items."""

import pytest

from repro.ir.passes import O3Options
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace, matrices_equal
from repro.stencil.sources import LINE_SIGNATURE


@pytest.fixture(scope="module")
def ws():
    return StencilWorkspace(JacobiSetup(sz=17, sweeps=2))


@pytest.fixture(scope="module")
def reference(ws):
    ws.reset_matrices()
    return ws.reference_sweeps(2)


def _run(ws, addr, reference):
    ws.reset_matrices()
    stats = ws.run_sweeps(addr, line=True, stencil_arg=ws.flat.addr)
    assert matrices_equal(ws.read_matrix(1), reference)
    return ws.cycles_per_cell(stats)


def test_explicit_vectorization_api(ws, reference):
    """llvm_vectorized: the first-class version of -force-vector-width=2."""
    sig = FunctionSignature(tuple(LINE_SIGNATURE), None)
    tx = BinaryTransformer(ws.image)
    scalar = tx.llvm_fixed("line_flat", sig,
                           {0: FixedMemory(ws.flat.addr, ws.flat.size)},
                           name="k.ext.scalar")
    vec = tx.llvm_vectorized("line_flat", sig,
                             {0: FixedMemory(ws.flat.addr, ws.flat.size)},
                             name="k.ext.vec")
    c_scalar = _run(ws, scalar.addr, reference)
    c_vec = _run(ws, vec.addr, reference)
    assert c_vec < c_scalar  # explicit vectorization pays off
    # and the o3 options of the transformer are restored
    assert tx.o3_options.force_vector_width == 0


def test_lightweight_pipeline_quality_vs_cost(ws, reference):
    """Sec. VII: a small pass subset as cheap DBrew post-processing.

    The lightweight pipeline must (a) be meaningfully cheaper to run than
    full -O3 and (b) recover most of the DBrew+LLVM quality.
    """
    from repro.bench.modes import prepare_kernel

    dbrew_addr = prepare_kernel(ws, "flat", "dbrew", line=True,
                                uid=".ext").kernel_addr
    sig = FunctionSignature(tuple(LINE_SIGNATURE), None)

    full_tx = BinaryTransformer(ws.image)
    full = full_tx.llvm_identity(dbrew_addr, sig, name="k.ext.full")

    light_tx = BinaryTransformer(ws.image, o3_options=O3Options.lightweight())
    light = light_tx.llvm_identity(dbrew_addr, sig, name="k.ext.light")

    c_dbrew = _run(ws, dbrew_addr, reference)
    c_full = _run(ws, full.addr, reference)
    c_light = _run(ws, light.addr, reference)

    # quality: lightweight beats raw DBrew and is within 40% of full -O3
    assert c_light < c_dbrew
    assert c_light <= 1.4 * c_full
    # cost: the optimize stage must not regress (strict comparisons are
    # left to the benchmarks, which average over rounds)
    assert light.optimize_seconds <= full.optimize_seconds * 1.25


def test_lightweight_options_shape():
    o = O3Options.lightweight()
    assert not o.enable_gvn and not o.enable_unroll and not o.enable_inline
    assert o.enable_mem2reg  # the essential pass stays
