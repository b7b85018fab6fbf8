"""Figure 10: transformation (compile) times of the line kernels.

This is the one figure where pytest-benchmark's wall-clock measurement *is*
the paper's quantity: the time to run each runtime transformation.  The
paper performs 1000 compiles per mode; pytest-benchmark's rounds do the
equivalent averaging.
"""

import pytest

from conftest import record
from repro.bench.modes import CODES, prepare_kernel
from repro.dbrew import Rewriter
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory
from repro.bench.modes import _dbrew_rewrite, _stencil_fix
from repro.stencil.sources import LINE_SIGNATURE

_TIMES: dict[tuple[str, str], float] = {}
_COUNTER = [0]


def _uid() -> str:
    _COUNTER[0] += 1
    return f".f10.{_COUNTER[0]}"


@pytest.mark.parametrize("code", CODES)
def test_fig10_llvm(benchmark, workspace, code):
    ws = workspace
    sig = FunctionSignature(tuple(LINE_SIGNATURE), None)

    def transform():
        tx = BinaryTransformer(ws.image)
        return tx.llvm_identity(f"line_{code}", sig, name=f"k{_uid()}")

    res = benchmark.pedantic(transform, rounds=5, iterations=1)
    _TIMES[(code, "llvm")] = benchmark.stats.stats.mean
    benchmark.extra_info["stage_seconds"] = {
        "lift": round(res.lift_seconds, 4),
        "optimize": round(res.optimize_seconds, 4),
        "codegen": round(res.codegen_seconds, 4),
    }


@pytest.mark.parametrize("code", CODES)
def test_fig10_llvm_fixation(benchmark, workspace, code):
    ws = workspace
    sig = FunctionSignature(tuple(LINE_SIGNATURE), None)
    fix = _stencil_fix(ws, code)

    def transform():
        tx = BinaryTransformer(ws.image)
        fixes = {0: fix["fix_memory"]} if fix["fix_memory"] is not None else {}
        return tx.llvm_fixed(f"line_{code}", sig, fixes, name=f"k{_uid()}")

    benchmark.pedantic(transform, rounds=5, iterations=1)
    _TIMES[(code, "llvm-fix")] = benchmark.stats.stats.mean


@pytest.mark.parametrize("code", CODES)
def test_fig10_dbrew(benchmark, workspace, code):
    ws = workspace

    def transform():
        return _dbrew_rewrite(ws, code, True, f"k{_uid()}")

    benchmark.pedantic(transform, rounds=5, iterations=1)
    _TIMES[(code, "dbrew")] = benchmark.stats.stats.mean


@pytest.mark.parametrize("code", CODES)
def test_fig10_dbrew_llvm(benchmark, workspace, code):
    ws = workspace
    sig = FunctionSignature(tuple(LINE_SIGNATURE), None)

    def transform():
        addr = _dbrew_rewrite(ws, code, True, f"k{_uid()}")
        tx = BinaryTransformer(ws.image)
        return tx.llvm_identity(addr, sig, name=f"k{_uid()}")

    benchmark.pedantic(transform, rounds=3, iterations=1)
    _TIMES[(code, "dbrew+llvm")] = benchmark.stats.stats.mean
    modes = ("llvm", "llvm-fix", "dbrew", "dbrew+llvm")
    cells = "  ".join(
        f"{m}={1000 * _TIMES.get((code, m), float('nan')):9.2f}ms" for m in modes
    )
    record("Fig 10  transformation times of the line kernels", f"{code:8s} {cells}")

