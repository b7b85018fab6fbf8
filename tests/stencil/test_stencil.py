"""Stencil case-study tests: data builders, kernels, Jacobi workspace."""

import struct

import pytest

from repro.cpu import Image
from repro.stencil.data import (
    FOUR_POINT, FP_LAYOUT, FS_LAYOUT, SG_LAYOUT, SS_LAYOUT,
    build_flat, build_sorted,
)
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace, matrices_equal


def test_fs_layout_matches_fig7():
    assert FS_LAYOUT.offset_of("ps") == 0
    assert FS_LAYOUT.offset_of("p") == 8
    assert FP_LAYOUT.size == 16


def test_build_flat_bytes():
    img = Image()
    st = build_flat(img)
    mem = img.memory
    assert mem.read_u32(st.addr) == 4  # ps
    for i, (dx, dy, f) in enumerate(FOUR_POINT):
        base = st.addr + 8 + 16 * i
        assert mem.read_f64(base) == f
        assert struct.unpack("<i", mem.read(base + 8, 4))[0] == dx
        assert struct.unpack("<i", mem.read(base + 12, 4))[0] == dy


def test_build_sorted_structure():
    img = Image()
    st = build_sorted(img)
    mem = img.memory
    assert mem.read_u32(st.addr) == 1  # one group (all coefficients 0.25)
    sg = mem.read_u64(st.addr + SS_LAYOUT.offset_of("g"))
    assert mem.read_f64(sg) == 0.25
    assert mem.read_u32(sg + 8) == 4
    sp = mem.read_u64(sg + SG_LAYOUT.offset_of("p"))
    assert struct.unpack("<i", mem.read(sp, 4))[0] == -1  # first dx
    # every region is recorded for set_mem
    assert len(st.regions) == 3


def test_build_sorted_groups_by_coefficient():
    img = Image()
    points = ((-1, 0, 0.25), (1, 0, 0.25), (0, 0, 0.5))
    st = build_sorted(img, points)
    assert img.memory.read_u32(st.addr) == 2  # two coefficient groups


@pytest.fixture(scope="module")
def ws():
    return StencilWorkspace(JacobiSetup(sz=17, sweeps=2))


def test_all_native_kernels_agree_with_reference(ws):
    ws.reset_matrices()
    ref = ws.reference_sweeps(2)
    for kernel, line, sarg in [
        ("apply_direct", False, 0),
        ("apply_flat", False, ws.flat.addr),
        ("apply_sorted", False, ws.sorted.addr),
        ("line_direct", True, 0),
        ("line_flat", True, ws.flat.addr),
        ("line_sorted", True, ws.sorted.addr),
        ("line_call_direct", True, 0),
        ("line_call_flat", True, ws.flat.addr),
        ("line_call_sorted", True, ws.sorted.addr),
    ]:
        ws.reset_matrices()
        ws.run_sweeps(kernel, line=line, stencil_arg=sarg)
        assert matrices_equal(ws.read_matrix(1), ref), kernel


def test_boundary_preserved(ws):
    ws.reset_matrices()
    ws.run_sweeps("apply_direct", line=False, stencil_arg=0)
    m = ws.read_matrix(1)
    sz = ws.setup.sz
    for k in range(sz):
        assert m[0][k] == 1.0 and m[sz - 1][k] == 1.0
        assert m[k][0] == 1.0 and m[k][sz - 1] == 1.0


def test_direct_line_kernel_is_vectorized(ws):
    assert "line_direct" in ws.program.vectorized


def test_cycles_accounting_scale_free(ws):
    ws.reset_matrices()
    s1 = ws.run_sweeps("apply_direct", line=False, stencil_arg=0, sweeps=1)
    ws.reset_matrices()
    s2 = ws.run_sweeps("apply_direct", line=False, stencil_arg=0, sweeps=2)
    c1 = ws.cycles_per_cell(s1, sweeps=1)
    c2 = ws.cycles_per_cell(s2, sweeps=2)
    assert c1 == pytest.approx(c2, rel=0.01)


def test_extrapolation_formula(ws):
    ws.reset_matrices()
    stats = ws.run_sweeps("apply_direct", line=False, stencil_arg=0, sweeps=1)
    per_cell = ws.cycles_per_cell(stats, sweeps=1)
    secs = ws.extrapolated_seconds(stats, sweeps=1)
    paper_cells = (649 - 2) ** 2 * 50_000
    assert secs == pytest.approx(
        per_cell * paper_cells
        / (ws.costs.clock_ghz * 1e9 * ws.costs.effective_parallelism)
    )


@pytest.mark.parametrize("sweeps", [1, 2, 3])
def test_run_experiment_checks_the_matrix_the_last_sweep_wrote(sweeps):
    from repro.bench.harness import run_experiment
    ws3 = StencilWorkspace(JacobiSetup(sz=9, sweeps=sweeps))
    row = run_experiment(ws3, "direct", line=False, modes=("native",))
    assert row.correct == {"native": True}
    # and a wrong result is still caught: compare against one more sweep
    ws3.reset_matrices()
    ws3.run_sweeps("apply_direct", line=False, stencil_arg=0)
    last = ws3.read_matrix(2 if sweeps % 2 else 1)
    ws3.reset_matrices()
    assert not matrices_equal(last, ws3.reference_sweeps(sweeps + 1))


def test_jacobi_converges_towards_boundary():
    ws2 = StencilWorkspace(JacobiSetup(sz=9, sweeps=1))
    ws2.reset_matrices()
    # even sweep count: the ping-pong result lands back in m1
    ws2.run_sweeps("apply_direct", line=False, stencil_arg=0, sweeps=200)
    m = ws2.read_matrix(1)
    # after many sweeps the interior approaches the boundary value 1.0
    assert m[4][4] > 0.9


def test_tiered_sweeps_run_what_the_handle_serves():
    """``run_tiered_sweeps`` binds a driver to the kernel the handle
    serves — T0 here, the original — and reports each sweep's cycles per
    cell to the governor: the same sweeps as ``run_sweeps`` on it."""
    from repro.bench.modes import register_tiered
    from repro.tier import TieredEngine, TierPolicy

    ws = StencilWorkspace(JacobiSetup(sz=9, sweeps=2))
    want = ws.run_sweeps("apply_flat", line=False, stencil_arg=ws.flat.addr)
    want_matrix = ws.read_matrix(1)
    ws.reset_matrices()
    never = TierPolicy(promote_calls=(10**9, 10**9))
    with TieredEngine(ws.image, policy=never, max_workers=1) as eng:
        handle = register_tiered(ws, "flat", eng, line=False)
        got = ws.run_tiered_sweeps(handle, stencil_arg=ws.flat.addr,
                                   line=False)
    assert handle.tier == 0 and handle.calls == 2
    assert got.cycles == want.cycles
    assert ws.read_matrix(1) == want_matrix
    assert set(handle.governor.cycles) == {0}
