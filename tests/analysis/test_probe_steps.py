"""Step accounting of the block-lazy trace compiler, against the eager one.

``golden_probe_steps.json`` was captured at the last commit whose
interpreter compiled every block of a body before running it, by running
this file as a script::

    PYTHONPATH=<parent>/src python tests/analysis/test_probe_steps.py --capture

For each of the 18 ``verified_install`` cells of the ledger it holds, per
function handed to ``run_o3`` (lifted callees, then the main function),
``Interpreter.steps`` after each of the pass validator's probe vectors on
the lifted body and on the post-O3 body — faulting probes included, where
the count says how far the run got.  A block's ``n_steps`` is now filled in
on its first entry; one block counted late, twice or not at all moves a
number here.

The ``post_o3`` counts of the four ``dbrew+llvm`` cells of ``flat`` and
``sorted`` were re-captured when DBrew began to count a fork only against
the loop it sits in and to emit known source registers as immediates:
they run a shorter body.  No other count moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis import PassValidator
from repro.analysis import validate as validate_mod
from repro.bench import modes as M
from repro.ir.interp import Interpreter
from repro.jit import plan
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace

GOLDEN = Path(__file__).with_name("golden_probe_steps.json")
SETUP = JacobiSetup(sz=17, sweeps=1)
CELLS18 = tuple((code, line, mode) for code in M.CODES
                for line in (False, True) for mode in M.GUARD_LADDERS)


def _probe_steps(func) -> list[int]:
    """``interp.steps`` after each validator probe of ``func``'s body."""
    steps: list[int] = []

    class Counting(Interpreter):
        def run(self, f, args):
            try:
                return super().run(f, args)
            finally:
                steps.append(self.steps)

    validator = PassValidator()
    globals_ = func.module.globals.values()
    placed = [g.addr for g in globals_]
    real, validate_mod.Interpreter = validate_mod.Interpreter, Counting
    try:
        for probe in validator._probes(func):
            validator._probe_run(func, probe)
    finally:
        validate_mod.Interpreter = real
        for g, addr in zip(globals_, placed):
            g.addr = addr
    return steps


def capture_cell(code: str, line: bool, mode: str) -> dict:
    out: dict = {}
    real = plan.run_o3

    def recording(func, *args, **kwargs):
        lifted = _probe_steps(func)
        report = real(func, *args, **kwargs)
        out[func.name] = {"lifted": lifted, "post_o3": _probe_steps(func)}
        return report

    plan.run_o3 = recording
    try:
        M.prepare_kernel(StencilWorkspace(SETUP), code, mode, line=line)
    finally:
        plan.run_o3 = real
    return out


def _name(cell) -> str:
    code, line, mode = cell
    return f"{code}.{'line' if line else 'elem'}.{mode}"


@pytest.mark.parametrize("cell", CELLS18, ids=_name)
def test_probe_steps_match_the_eager_compiler(cell):
    want = json.loads(GOLDEN.read_text())[_name(cell)]
    got = capture_cell(*cell)
    assert got == want
    # the fixture is not vacuous: some probe ran a body to its end
    assert any(n > 0 for body in got.values() for n in body["post_o3"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(
        {_name(cell): capture_cell(*cell) for cell in CELLS18},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
