"""Ablation: which optimization passes matter for lifted code quality?

The paper's stated follow-up goal (Sec. VII): "identify a small subset of
optimizations we would like to implement as lightweight post-processing for
DBrew without the heavy cost of LLVM".  This bench measures the LLVM
identity transformation of the flat line kernel with individual passes
disabled.  Disabling mem2reg also reproduces the *magnitude* of the paper's
observed identity-transform slowdown on multi-block kernels (their LLVM 3.7
pipeline did not see through the lifter's virtual stack as well as ours).
"""

import pytest

from conftest import record
from repro.bench.harness import stencil_arg
from repro.ir.passes import O3Options
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature
from repro.stencil.jacobi import matrices_equal
from repro.stencil.sources import LINE_SIGNATURE

_O3 = O3Options()

ABLATIONS = {
    "full-O3": _O3,
    "no-mem2reg": _O3.replace(enable_mem2reg=False),
    "no-gvn": _O3.replace(enable_gvn=False),
    "no-instcombine": _O3.replace(enable_instcombine=False),
    "no-unroll": _O3.replace(enable_unroll=False),
    "no-fastmath": _O3.replace(fast_math=False),
}

_CYCLES = {}


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
def test_pass_ablation(benchmark, workspace, reference, ablation):
    ws = workspace
    tx = BinaryTransformer(ws.image, o3_options=ABLATIONS[ablation])
    res = tx.llvm_identity("line_flat",
                           FunctionSignature(tuple(LINE_SIGNATURE), None),
                           name=f"k.ab.{ablation}")

    def sweep():
        ws.reset_matrices()
        return ws.run_sweeps(res.addr, line=True,
                             stencil_arg=stencil_arg(ws, "flat"), sweeps=1)

    stats = benchmark.pedantic(sweep, rounds=2, iterations=1)
    m2 = ws.read_matrix(2)
    ws.reset_matrices()
    ws.run_sweeps("line_flat", line=True, stencil_arg=ws.flat.addr, sweeps=1)
    assert matrices_equal(m2, ws.read_matrix(2)), f"{ablation} wrong result"

    per_cell = ws.cycles_per_cell(stats, sweeps=1)
    ir_size = sum(len(b.instructions) for b in res.function.blocks)
    benchmark.extra_info["cycles_per_cell"] = round(per_cell, 2)
    benchmark.extra_info["ir_instructions"] = ir_size
    _CYCLES[ablation] = (per_cell, ir_size)
    if len(_CYCLES) == len(ABLATIONS):
        base, base_ir = _CYCLES["full-O3"]
        for name in sorted(_CYCLES):
            c, n = _CYCLES[name]
            record("Ablation  pass subsets on LLVM-identity of line_flat",
                   f"{name:16s} {c:8.1f} cycles/cell  {n:5d} IR instrs "
                   f"({c / base:4.2f}x cycles, {n / base_ir:4.2f}x IR)")
        # without mem2reg the virtual-stack traffic survives in the IR
        assert _CYCLES["no-mem2reg"][1] > base_ir
        # notes toward the paper's "which passes are essential" question:
        # instcombine is NOT essential *when the facet cache is on* — the
        # per-block facet phis carry typed values, so the cast chains die in
        # ADCE rather than needing pattern rewrites; and runtime cycles are
        # robust to several ablations because the shared TAC back-end folds
        # residue into addressing modes.


@pytest.mark.parametrize("knob", ["facet_cache", "flag_cache"])
def test_lifter_cache_ablation(benchmark, workspace, reference, knob):
    """Sec. III-C/III-D: both lifter-side caches matter for IR quality."""
    from repro.lift import LiftOptions

    ws = workspace
    opts = LiftOptions(**{knob: False})
    tx = BinaryTransformer(ws.image, lift_options=opts)
    res = tx.llvm_identity("line_flat",
                           FunctionSignature(tuple(LINE_SIGNATURE), None),
                           name=f"k.abl.{knob}")

    def sweep():
        ws.reset_matrices()
        return ws.run_sweeps(res.addr, line=True,
                             stencil_arg=stencil_arg(ws, "flat"), sweeps=1)

    stats = benchmark.pedantic(sweep, rounds=2, iterations=1)
    m2 = ws.read_matrix(2)
    ws.reset_matrices()
    ws.run_sweeps("line_flat", line=True, stencil_arg=ws.flat.addr, sweeps=1)
    assert matrices_equal(m2, ws.read_matrix(2))
    per_cell = ws.cycles_per_cell(stats, sweeps=1)
    benchmark.extra_info["cycles_per_cell"] = round(per_cell, 2)
    record("Ablation  lifter caches (LLVM-identity of line_flat)",
           f"without {knob:12s}: {per_cell:8.1f} cycles/cell")
