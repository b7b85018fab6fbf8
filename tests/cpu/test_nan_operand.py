"""The NaN an SSE add, sub, mul or div returns, run after run.

SDM Vol. 1, Table 4-7: an operation with a NaN operand returns the first
source if it is a NaN, else the second, quieted.  A Python float operator
does not decide this the same way twice: CPython's generic float methods
and its specialised instructions return different NaN operands, and a
function switches from one to the other after its first few runs.
:func:`repro.arith.nan_operand` decides instead, in the closures'
``_FP_OPS`` and in the generated scalar statements.

Every pair of a quiet NaN, a signalling NaN and a number, one set per
operand, runs through each op's closure and a freshly generated function
20 times.  The closures' code objects are warm in any test session, so the
check also runs in a fresh interpreter, where their first runs are cold.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from repro import arith
from repro.cpu import blockgen
from repro.cpu.state import MASK64, CPUState
from repro.mem.memory import Memory
from tests.cpu.test_held_regions import _block

_ROOT = Path(__file__).resolve().parents[2]

#: a quiet NaN with a payload, a signalling NaN and a number, for each
#: operand; the first operand's come first, so a fresh function's first
#: runs see two NaNs
FIRST = (0x7FF8_DEAD_0000_0000, 0xFFF4_0000_0000_0000, arith.f64_to_bits(1.5))
SECOND = (0xFFF8_0000_BEEF_0000, 0x7FF0_0000_0000_0001,
          arith.f64_to_bits(-0.25))
OPS = {"addsd": lambda a, b: a + b, "subsd": lambda a, b: a - b,
       "mulsd": lambda a, b: a * b, "divsd": arith.fdiv}
RUNS = 20


def _is_nan(bits: int) -> bool:
    return bits & 0x7FF0_0000_0000_0000 == 0x7FF0_0000_0000_0000 \
        and bits & 0x000F_FFFF_FFFF_FFFF != 0


def _rule(op: str, a: int, b: int) -> int:
    """The SDM's result, from the bits alone."""
    for nan in (a, b):
        if _is_nan(nan):
            return nan | 1 << 51
    return arith.f64_to_bits(OPS[op](arith.bits_to_f64(a),
                                     arith.bits_to_f64(b)))


def mismatches() -> list[tuple]:
    """``(op, closure or generated, a, b, run, bits)`` of every run that
    breaks the rule."""
    out = []
    for op, (a, b) in itertools.product(OPS, itertools.product(FIRST,
                                                               SECOND)):
        run, flags, closures = _block(f"{op} xmm1, xmm2")
        fns = {"closure": closures[0],
               "generated": blockgen.generate(run, flags, closures)}
        for k, (name, fn) in itertools.product(range(RUNS), fns.items()):
            st = CPUState()
            st.xmm[1], st.xmm[2] = a, b
            fn(st, Memory())
            if st.xmm[1] & MASK64 != _rule(op, a, b):
                out.append((op, name, hex(a), hex(b), k,
                            hex(st.xmm[1] & MASK64)))
    return out


def test_every_run_returns_the_first_nan_operand():
    assert mismatches() == []


def test_cold_runs_too():
    """The closures' shared code objects are cold in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", "from tests.cpu.test_nan_operand import "
         "mismatches; print(len(mismatches()))"],
        capture_output=True, text=True, cwd=_ROOT,
        env={"PYTHONPATH": f"{_ROOT / 'src'}:{_ROOT}", "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


@pytest.mark.parametrize("a, b, want", [
    (1.0, 2.0, 3.0),                                  # no NaN operand
    (arith.bits_to_f64(0x7FF0_0000_0000_0001), 1.0,   # signalling: quieted
     arith.bits_to_f64(0x7FF8_0000_0000_0001)),
    (1.0, arith.bits_to_f64(0xFFF8_0000_0000_0002),   # the second operand
     arith.bits_to_f64(0xFFF8_0000_0000_0002)),
])
def test_nan_operand(a, b, want):
    r = arith.nan_operand(a, b, 3.0)
    assert arith.f64_to_bits(r) == arith.f64_to_bits(want)
