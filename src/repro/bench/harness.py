"""Experiment runner: produce the rows behind Figures 9a, 9b and 10.

``run_experiment`` measures one (code, kernel-type) row across all five
modes — simulated cycles per cell update, extrapolated paper-scale seconds,
and transformation times — and validates every mode against the pure-Python
Jacobi reference before trusting its numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.modes import MODES, ModeResult, prepare_kernel
from repro.stencil.jacobi import StencilWorkspace, matrices_equal


@dataclass
class ExperimentRow:
    """One (code, kernel-type) row of Fig. 9a/9b."""

    code: str
    line: bool
    cycles_per_cell: dict[str, float] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    transform_seconds: dict[str, float] = field(default_factory=dict)
    stages: dict[str, dict[str, float]] = field(default_factory=dict)
    correct: dict[str, bool] = field(default_factory=dict)

    def relative_to_native(self, mode: str) -> float:
        return self.cycles_per_cell[mode] / self.cycles_per_cell["native"]


def stencil_arg(ws: StencilWorkspace, code: str) -> int:
    if code == "flat":
        return ws.flat.addr
    if code == "sorted":
        return ws.sorted.addr
    return 0


def run_experiment(ws: StencilWorkspace, code: str, *, line: bool,
                   modes: tuple[str, ...] = MODES,
                   uid: str = "") -> ExperimentRow:
    """Measure one figure row; validates results against the reference."""
    row = ExperimentRow(code, line)
    ws.reset_matrices()
    ref = ws.reference_sweeps(ws.setup.sweeps)
    sarg = stencil_arg(ws, code)
    for mode in modes:
        res: ModeResult = prepare_kernel(ws, code, mode, line=line, uid=uid)
        ws.reset_matrices()
        stats = ws.run_sweeps(res.kernel_addr, line=line, stencil_arg=sarg)
        # the sweeps ping-pong m1 -> m2 -> m1: an odd count ends in m2
        last = 2 if ws.setup.sweeps % 2 else 1
        row.correct[mode] = matrices_equal(ws.read_matrix(last), ref)
        row.cycles_per_cell[mode] = ws.cycles_per_cell(stats)
        row.seconds[mode] = ws.extrapolated_seconds(stats)
        row.transform_seconds[mode] = res.transform_seconds
        row.stages[mode] = dict(res.stages)
    return row


def format_figure(rows: list[ExperimentRow], *, title: str) -> str:
    """Render rows as the text analogue of a Fig. 9 bar chart."""
    lines = [title, "=" * len(title)]
    header = f"{'code':10s}" + "".join(f"{m:>12s}" for m in MODES)
    lines.append(header + f"{'(seconds, paper scale)':>28s}")
    for row in rows:
        cells = "".join(
            f"{row.seconds.get(m, float('nan')):12.2f}" for m in MODES
        )
        ok = all(row.correct.values())
        lines.append(f"{row.code:10s}{cells}   {'ok' if ok else 'WRONG'}")
    return "\n".join(lines)


def format_compile_times(rows: list[ExperimentRow], *, title: str) -> str:
    """Render Fig. 10-style transformation times (milliseconds)."""
    modes = [m for m in MODES if m != "native"]
    lines = [title, "=" * len(title)]
    lines.append(f"{'code':10s}" + "".join(f"{m:>12s}" for m in modes) + "   (ms)")
    for row in rows:
        cells = "".join(
            f"{row.transform_seconds.get(m, float('nan')) * 1000:12.3f}"
            for m in modes
        )
        lines.append(f"{row.code:10s}{cells}")
    return "\n".join(lines)
