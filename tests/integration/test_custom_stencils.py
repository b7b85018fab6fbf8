"""Generality check: the whole pipeline on stencils other than the paper's.

The paper's point is that the *generic* code covers arbitrary 2d stencils
(Fig. 7: "generic 2d stencil computation code with the stencil given as a
data structure").  These tests run a 5-point stencil with two distinct
coefficients — which exercises multi-group sorted descriptors, DBrew's
nested-pointer specialization across groups, and IR fixation on a larger
constant region — through every mode.
"""

import pytest

from repro.dbrew import Rewriter
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory
from repro.stencil.data import build_flat, build_sorted
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace, matrices_equal
from repro.stencil.sources import ELEMENT_SIGNATURE

#: 5-point stencil: heavy center, light neighbours (two coefficient groups)
FIVE_POINT = (
    (0, 0, 0.5),
    (-1, 0, 0.125), (1, 0, 0.125), (0, -1, 0.125), (0, 1, 0.125),
)


@pytest.fixture(scope="module")
def ws():
    w = StencilWorkspace(JacobiSetup(sz=13, sweeps=2))
    w.flat5 = build_flat(w.image, FIVE_POINT)
    w.sorted5 = build_sorted(w.image, FIVE_POINT)
    return w


@pytest.fixture(scope="module")
def reference(ws):
    ws.reset_matrices()
    return ws.reference_sweeps(2, FIVE_POINT)


def check(ws, kernel_addr, sarg, reference):
    ws.reset_matrices()
    ws.run_sweeps(kernel_addr, line=False, stencil_arg=sarg)
    assert matrices_equal(ws.read_matrix(1), reference)


def test_native_flat_five_point(ws, reference):
    check(ws, ws.image.symbol("apply_flat"), ws.flat5.addr, reference)


def test_native_sorted_five_point(ws, reference):
    assert ws.image.memory.read_u32(ws.sorted5.addr) == 2  # two groups
    check(ws, ws.image.symbol("apply_sorted"), ws.sorted5.addr, reference)


def test_dbrew_flat_five_point(ws, reference):
    r = Rewriter(ws.image, "apply_flat") \
        .set_signature(tuple(ELEMENT_SIGNATURE), None) \
        .set_par(0, ws.flat5.addr) \
        .set_mem(ws.flat5.addr, ws.flat5.addr + ws.flat5.size)
    addr = r.rewrite(name="k5.flat.dbrew")
    assert addr != ws.image.symbol("apply_flat")
    check(ws, addr, ws.flat5.addr, reference)
    # 5 points fully unrolled: no branches left
    stats = ws.sim.call(addr, (0, ws.m1, ws.m2, 14))
    assert stats.stats.taken_branches == 0


def test_dbrew_sorted_five_point_two_groups(ws, reference):
    r = Rewriter(ws.image, "apply_sorted") \
        .set_signature(tuple(ELEMENT_SIGNATURE), None) \
        .set_par(0, ws.sorted5.addr)
    for start, size in ws.sorted5.regions:
        r.set_mem(start, start + size)
    addr = r.rewrite(name="k5.sorted.dbrew")
    check(ws, addr, ws.sorted5.addr, reference)
    # both group loops and both point loops unroll away
    stats = ws.sim.call(addr, (0, ws.m1, ws.m2, 14))
    assert stats.stats.taken_branches == 0
    # exactly two multiplies: one per coefficient group
    assert stats.stats.per_mnemonic.get("mulsd", 0) == 2


def test_llvm_fix_flat_five_point(ws, reference):
    tx = BinaryTransformer(ws.image)
    res = tx.llvm_fixed(
        "apply_flat", FunctionSignature(tuple(ELEMENT_SIGNATURE), None),
        {0: FixedMemory(ws.flat5.addr, ws.flat5.size)}, name="k5.flat.fix",
    )
    check(ws, res.addr, ws.flat5.addr, reference)
    # fully specialized: no loads from the descriptor, loop unrolled
    assert not any(
        ins.opcode == "br" and len(ins.successors()) == 2
        for ins in res.function.instructions()
    )


def test_dbrew_plus_llvm_five_point(ws, reference):
    r = Rewriter(ws.image, "apply_flat") \
        .set_signature(tuple(ELEMENT_SIGNATURE), None) \
        .set_par(0, ws.flat5.addr) \
        .set_mem(ws.flat5.addr, ws.flat5.addr + ws.flat5.size)
    dbrew_addr = r.rewrite(name="k5.flat.db2")
    tx = BinaryTransformer(ws.image)
    res = tx.llvm_identity(
        dbrew_addr, FunctionSignature(tuple(ELEMENT_SIGNATURE), None),
        name="k5.flat.both",
    )
    check(ws, res.addr, ws.flat5.addr, reference)


def test_asymmetric_stencil_correctness(ws):
    """A deliberately asymmetric stencil (advection-like) end to end."""
    points = ((-1, 0, 0.75), (0, -1, 0.25))
    flat = build_flat(ws.image, points)
    ws.reset_matrices()
    ref = ws.reference_sweeps(2, points)
    r = Rewriter(ws.image, "apply_flat") \
        .set_signature(tuple(ELEMENT_SIGNATURE), None) \
        .set_par(0, flat.addr).set_mem(flat.addr, flat.addr + flat.size)
    addr = r.rewrite(name="k5.asym.dbrew")
    check(ws, addr, flat.addr, ref)
