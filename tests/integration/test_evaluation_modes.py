"""Integration: the paper's full evaluation matrix (Sec. VI) at small scale.

Every (code, kernel-type, mode) cell must compute the same matrices as the
pure-Python Jacobi reference, and the qualitative orderings the paper's
prose asserts must hold.
"""

import pytest

from repro.bench.harness import run_experiment
from repro.bench.modes import CODES, MODES
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace


@pytest.fixture(scope="module")
def ws():
    return StencilWorkspace(JacobiSetup(sz=17, sweeps=2))


@pytest.fixture(scope="module")
def element_rows(ws):
    return {code: run_experiment(ws, code, line=False, uid=".it") for code in CODES}


@pytest.fixture(scope="module")
def line_rows(ws):
    return {code: run_experiment(ws, code, line=True, uid=".it") for code in CODES}


def test_all_element_cells_correct(element_rows):
    for code, row in element_rows.items():
        assert all(row.correct.values()), (code, row.correct)


def test_all_line_cells_correct(line_rows):
    for code, row in line_rows.items():
        assert all(row.correct.values()), (code, row.correct)


# -- Fig. 9a prose assertions ---------------------------------------------------


def test_9a_direct_no_major_differences(element_rows):
    row = element_rows["direct"]
    for mode in MODES:
        assert row.relative_to_native(mode) < 1.25, (mode, row.cycles_per_cell)


def test_9a_flat_fixation_reaches_hardcoded(element_rows):
    direct = element_rows["direct"].cycles_per_cell["native"]
    fix = element_rows["flat"].cycles_per_cell["llvm-fix"]
    assert fix / direct < 1.2  # "same performance as the hard-coded stencil"


def test_9a_flat_dbrew_overhead(element_rows):
    # DBrew ~2x the hard-coded stencil (21.74 vs 10.54 in the paper)
    direct = element_rows["direct"].cycles_per_cell["native"]
    dbrew = element_rows["flat"].cycles_per_cell["dbrew"]
    assert 1.4 < dbrew / direct < 2.6


def test_9a_dbrew_llvm_improves_on_dbrew(element_rows):
    for code in ("flat", "sorted"):
        row = element_rows[code]
        assert row.cycles_per_cell["dbrew+llvm"] <= row.cycles_per_cell["dbrew"]


def test_9a_sorted_dbrew_lower_overhead_than_flat(element_rows):
    # "the DBrew specialization has a lower overhead as for the flat
    # structure because the redundant multiplications are eliminated"
    assert element_rows["sorted"].cycles_per_cell["dbrew"] <= \
        element_rows["flat"].cycles_per_cell["dbrew"]


def test_9a_sorted_dbrew_llvm_near_hardcoded(element_rows):
    direct = element_rows["direct"].cycles_per_cell["native"]
    got = element_rows["sorted"].cycles_per_cell["dbrew+llvm"]
    assert got / direct < 1.35


def test_9a_sorted_fixation_does_not_specialize(element_rows):
    # nested pointers are not followed: fixation stays near native, far from
    # the flat structure's fixation win
    row = element_rows["sorted"]
    assert row.cycles_per_cell["llvm-fix"] > 2 * element_rows["direct"].cycles_per_cell["native"]


def test_9a_generic_structures_slower_than_direct(element_rows):
    direct = element_rows["direct"].cycles_per_cell["native"]
    assert element_rows["flat"].cycles_per_cell["native"] > 2.3 * direct
    assert element_rows["sorted"].cycles_per_cell["native"] > 2.3 * direct


# -- Fig. 9b prose assertions -----------------------------------------------------


def test_9b_direct_llvm_similar(line_rows):
    row = line_rows["direct"]
    assert row.relative_to_native("llvm") < 1.2  # vectorization preserved


def test_9b_direct_dbrew_loses_vectorization(line_rows):
    row = line_rows["direct"]
    assert row.relative_to_native("dbrew") > 1.7  # scalar + extra moves


def test_9b_direct_dbrew_llvm_between(line_rows):
    row = line_rows["direct"]
    assert row.cycles_per_cell["llvm"] < row.cycles_per_cell["dbrew+llvm"] \
        < row.cycles_per_cell["dbrew"]


def test_9b_flat_fixation_beats_native_but_not_direct(line_rows):
    flat = line_rows["flat"]
    direct_native = line_rows["direct"].cycles_per_cell["native"]
    assert flat.cycles_per_cell["llvm-fix"] < flat.cycles_per_cell["native"]
    assert flat.cycles_per_cell["llvm-fix"] > direct_native  # not vectorized


def test_9b_flat_dbrew_llvm_between_dbrew_and_fix(line_rows):
    flat = line_rows["flat"]
    assert flat.cycles_per_cell["llvm-fix"] < flat.cycles_per_cell["dbrew+llvm"] \
        <= flat.cycles_per_cell["dbrew"]


def test_9b_sorted_dbrew_llvm_fast(line_rows):
    row = line_rows["sorted"]
    assert row.cycles_per_cell["dbrew+llvm"] <= row.cycles_per_cell["dbrew"]


# -- Fig. 10 prose assertions -------------------------------------------------------


def test_fig10_native_costs_nothing(line_rows):
    for code in CODES:
        assert line_rows[code].transform_seconds["native"] == 0.0
