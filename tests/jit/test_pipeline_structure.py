"""The compile -> verify -> install sequence is written once.

Each stage of the pipeline has one entry point; inside the front-door
packages every one of them may be *called* from exactly one module — the
runner, ``repro.jit.plan``.  A second caller means a front door has started
threading the sequence by hand again (the parent of this test had 2, 1, 2,
3, 2, 1, 1, 3, 1, 1 calling modules for the names below; ``Rewriter`` had
two once ``bench`` counted, the evaluation modes configuring DBrew beside
the pipeline's own DBrew stage).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

STAGE_ENTRY_POINTS = (
    "Rewriter", "lift_function", "build_fixation_wrapper", "run_o3",
    "replay_o3", "JITEngine", "verify_emitted", "run_checkers",
    "check_probe_ops", "DifferentialGate", "mark_machine_gated",
    "evict_machine", "evict_module",
)
FRONT_DOORS = ("jit", "guard", "tier", "instrument", "bench")


def _callers() -> dict[str, set[str]]:
    root = Path(repro.__file__).parent
    callers: dict[str, set[str]] = {name: set() for name in STAGE_ENTRY_POINTS}
    for package in FRONT_DOORS:
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else \
                    fn.attr if isinstance(fn, ast.Attribute) else None
                if name in callers:
                    callers[name].add(str(path.relative_to(root)))
    return callers


def test_every_stage_is_called_from_the_runner_only():
    assert _callers() == {name: {"jit/plan.py"}
                          for name in STAGE_ENTRY_POINTS}
