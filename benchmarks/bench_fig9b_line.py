"""Figure 9b: running times of the line kernel, 3 codes x 5 modes."""

import pytest

from conftest import record
from repro.bench.harness import stencil_arg
from repro.bench.modes import CODES, MODES, prepare_kernel
from repro.stencil.jacobi import matrices_equal

_RESULTS: dict[tuple[str, str], float] = {}


@pytest.mark.parametrize("code", CODES)
@pytest.mark.parametrize("mode", MODES)
def test_fig9b(benchmark, workspace, reference, code, mode):
    ws = workspace
    res = prepare_kernel(ws, code, mode, line=True, uid=".9b")
    sarg = stencil_arg(ws, code)

    def sweep():
        ws.reset_matrices()
        return ws.run_sweeps(res.kernel_addr, line=True, stencil_arg=sarg,
                             sweeps=1)

    stats = benchmark.pedantic(sweep, rounds=2, iterations=1)
    ws.reset_matrices()
    ws.run_sweeps(res.kernel_addr, line=True, stencil_arg=sarg, sweeps=1)
    m2 = ws.read_matrix(2)
    ws.reset_matrices()
    ws.run_sweeps("apply_direct", line=False, stencil_arg=0, sweeps=1)
    assert matrices_equal(m2, ws.read_matrix(2)), f"{code}/{mode} wrong result"

    per_cell = ws.cycles_per_cell(stats, sweeps=1)
    benchmark.extra_info["cycles_per_cell"] = round(per_cell, 2)
    benchmark.extra_info["paper_scale_seconds"] = round(
        ws.extrapolated_seconds(stats, sweeps=1), 2
    )
    _RESULTS[(code, mode)] = per_cell
    if mode == MODES[-1]:
        cells = "  ".join(
            f"{m}={_RESULTS.get((code, m), float('nan')):8.1f}" for m in MODES
        )
        record("Fig 9b  line kernel (simulated cycles/cell)",
               f"{code:8s} {cells}")
