"""``run_o3``'s output on the ledger's ``compile_cold`` cells, pinned.

``golden_o3.json`` holds, for every ``run_o3`` call the 24 ``compile_cold``
cells make (one per lifted function: an ``llvm-fix`` cell optimises the
lifted body and its fixation wrapper), the sha-256 of ``print_function``
after the call and ``O3Report.iterations``.  The cells run in table order
in one fresh ``StencilWorkspace``, the shape of one ledger round.  It was
captured at the commit before O3's passes learnt to walk only what
changed, by running this file as a script::

    PYTHONPATH=<parent>/src python tests/ir/test_golden_o3.py --capture

At that commit ``mem2reg`` named its phis in the iteration order of a set
of blocks, which hashes by address, so three ``line.dbrew+llvm`` cells
printed different names from run to run; it now places them in block
order, and the fixture is the parent capture whose names agree with that
order (the first of several hash seeds tried).  The test recomputes the same dict and demands equality: a pass that walks
less must still produce the same IR, name for name.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.bench.modes import CODES, prepare_kernel
from repro.ir.printer import print_function
from repro.jit import plan
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace

GOLDEN = Path(__file__).with_name("golden_o3.json")
SETUP = JacobiSetup(sz=17, sweeps=1)
CELLS = tuple((code, line, mode) for code in CODES for line in (False, True)
              for mode in ("llvm", "llvm-fix", "dbrew", "dbrew+llvm"))


def capture() -> dict[str, dict[str, object]]:
    """Every ``run_o3`` call of the 24 cells: printed-IR hash, iterations."""
    out: dict[str, dict[str, object]] = {}
    real = plan.run_o3
    cell = ""

    def recording(func, *args, **kwargs):
        report = real(func, *args, **kwargs)
        digest = hashlib.sha256(print_function(func).encode()).hexdigest()
        out[f"{cell}:{func.name}"] = {"sha256": digest,
                                      "iterations": report.iterations}
        return report

    ws = StencilWorkspace(SETUP)
    plan.run_o3 = recording
    try:
        for code, line, mode in CELLS:
            cell = f"{code}.{'line' if line else 'elem'}.{mode}"
            prepare_kernel(ws, code, mode, line=line)
    finally:
        plan.run_o3 = real
    return out


def test_o3_output_equals_the_golden():
    assert capture() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":  # pragma: no cover - fixture capture
    if "--capture" not in sys.argv:
        sys.exit("usage: test_golden_o3.py --capture")
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
