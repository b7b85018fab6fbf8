"""``run_o3``'s output on the ledger's ``compile_cold`` cells, pinned.

``golden_o3.json`` holds, for every ``run_o3`` call the 24 ``compile_cold``
cells make (one per lifted function: an ``llvm-fix`` cell optimises the
lifted body and its fixation wrapper), the sha-256 of ``print_function``
after the call (``sha256``), the sha-256 of the same function printed by
:func:`renamed` — blocks and values renamed in order of definition, so
that only the code counts (``renamed_sha256``) — and
``O3Report.iterations``.  The cells run in table order in one fresh
``StencilWorkspace``, the shape of one ledger round.  It was captured at
the commit before O3's passes learnt to walk only what changed, by running
this file as a script::

    PYTHONPATH=<parent>/src python tests/ir/test_golden_o3.py --capture

At that commit ``mem2reg`` named its phis in the iteration order of a set
of blocks, which hashes by address, so three ``line.dbrew+llvm`` cells
printed different names from run to run; it now places them in block
order, and the fixture is the parent capture whose names agree with that
order (the first of several hash seeds tried).  The test recomputes the
same dict and demands equality: a pass that walks less must still produce
the same IR, name for name.

``renamed_sha256`` was added, captured at the parent, when ``unroll``
began to make all of a loop's peels before one cleanup.  That moves the
name counter, so four entries print other value and block names —
``flat.elem.llvm-fix``, ``flat.line.llvm-fix`` and the lifted bodies of
``flat.line.dbrew+llvm`` and ``sorted.line.dbrew+llvm`` — and their
``sha256`` was re-captured; each kept its ``renamed_sha256`` and
``iterations``, as did every other entry.

The lifted bodies of the four ``dbrew+llvm`` cells of ``flat`` and
``sorted`` were re-captured, all three columns, when DBrew began to count
a fork only against the loop it sits in and to emit known source
registers as immediates: their input is other code.  No other entry
moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.bench.modes import CODES, prepare_kernel
from repro.ir import Function
from repro.ir.printer import print_function
from repro.jit import plan
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace

GOLDEN = Path(__file__).with_name("golden_o3.json")
SETUP = JacobiSetup(sz=17, sweeps=1)
CELLS = tuple((code, line, mode) for code in CODES for line in (False, True)
              for mode in ("llvm", "llvm-fix", "dbrew", "dbrew+llvm"))


def renamed(func: Function) -> str:
    """``print_function`` with the blocks named ``b0``, ``b1``, ... and
    the named values ``v0``, ``v1``, ... in order of definition (arguments
    keep theirs): two bodies print the same iff they are the same code."""
    saved = [(blk, blk.name) for blk in func.blocks]
    saved += [(ins, ins.name) for ins in func.instructions() if ins.name]
    try:
        for n, blk in enumerate(func.blocks):
            blk.name = f"b{n}"
        for n, (ins, _name) in enumerate(saved[len(func.blocks):]):
            ins.name = f"v{n}"
        return print_function(func)
    finally:
        for obj, name in saved:
            obj.name = name


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def capture() -> dict[str, dict[str, object]]:
    """Every ``run_o3`` call of the 24 cells: printed-IR hashes (names as
    printed, then renamed), iterations."""
    out: dict[str, dict[str, object]] = {}
    real = plan.run_o3
    cell = ""

    def recording(func, *args, **kwargs):
        report = real(func, *args, **kwargs)
        out[f"{cell}:{func.name}"] = {
            "sha256": _sha(print_function(func)),
            "renamed_sha256": _sha(renamed(func)),
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
