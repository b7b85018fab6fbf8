"""Jacobi iteration workspace: matrices + compiled kernels + sweep drivers.

The paper measures 50 000 Jacobi iterations on a 649x649 matrix; simulating
that in Python is infeasible, but cycles-per-cell-update is scale-free for
a stencil, so the harness simulates a small matrix for a couple of sweeps
and extrapolates (documented in DESIGN.md §2).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from repro.cc import compile_c
from repro.cc.compiler import CompiledProgram, CompilerOptions
from repro.cpu import CostModel, HASWELL, Image, Simulator
from repro.cpu.simulator import RunStats
from repro.stencil import sources
from repro.stencil.data import FlatStencil, SortedStencil, build_flat, build_sorted


@dataclass(frozen=True)
class JacobiSetup:
    """Experiment scale parameters."""

    sz: int = 49  # simulated matrix side length
    sweeps: int = 2
    paper_sz: int = 649
    paper_iterations: int = 50_000


class StencilWorkspace:
    """One image with kernels, stencil descriptors and matrices."""

    def __init__(self, setup: JacobiSetup | None = None,
                 costs: CostModel = HASWELL, *, vectorize: bool = True) -> None:
        self.setup = setup or JacobiSetup()
        self.costs = costs
        sz = self.setup.sz
        self.program: CompiledProgram = compile_c(
            sources.kernel_source(sz),
            options=CompilerOptions(vectorize=vectorize),
        )
        self.image: Image = self.program.image
        self.sim = Simulator(self.image, costs)
        self.flat: FlatStencil = build_flat(self.image)
        self.sorted: SortedStencil = build_sorted(self.image)
        cells = sz * sz
        self.m1 = self.image.alloc_data(8 * cells, align=16)
        self.m2 = self.image.alloc_data(8 * cells, align=16)
        self._init_matrices()
        self._drivers: dict[tuple[str, int], int] = {}

    # -- matrices -----------------------------------------------------------------

    def _init_matrices(self) -> None:
        sz = self.setup.sz
        mem = self.image.memory
        for y in range(sz):
            for x in range(sz):
                on_edge = x == 0 or y == 0 or x == sz - 1 or y == sz - 1
                v = 1.0 if on_edge else 0.0
                mem.write_f64(self.m1 + 8 * (y * sz + x), v)
                mem.write_f64(self.m2 + 8 * (y * sz + x), v)

    def reset_matrices(self) -> None:
        self._init_matrices()

    def read_matrix(self, which: int = 1) -> list[list[float]]:
        sz = self.setup.sz
        base = self.m1 if which == 1 else self.m2
        mem = self.image.memory
        return [
            [mem.read_f64(base + 8 * (y * sz + x)) for x in range(sz)]
            for y in range(sz)
        ]

    # -- drivers -------------------------------------------------------------------

    def driver_for(self, kernel_addr: int, *, line: bool) -> int:
        """Compile (and cache) a sweep driver bound to ``kernel_addr``."""
        key = ("line" if line else "element", kernel_addr)
        addr = self._drivers.get(key)
        if addr is None:
            src = (sources.line_driver_source(self.setup.sz) if line
                   else sources.element_driver_source(self.setup.sz))
            prog = compile_c(
                src, image=self.image,
                options=CompilerOptions(vectorize=False),
                extra_symbols={"kernel": kernel_addr},
            )
            addr = prog.functions["sweep"]
            # keep driver symbols distinct per kernel
            name = f"sweep.{kernel_addr:x}.{key[0]}"
            self.image.symbols[name] = addr
            self._drivers[key] = addr
        return addr

    # -- measurement ----------------------------------------------------------------

    def run_sweeps(self, kernel: str | int, *, line: bool,
                   stencil_arg: int, sweeps: int | None = None) -> RunStats:
        """Run Jacobi sweeps through the compiled driver; returns stats.

        Each sweep computes m2 from m1 over the interior and then swaps the
        roles, like the paper's two-matrix Jacobi iteration.
        """
        kernel_addr = self.image.symbol(kernel) if isinstance(kernel, str) else kernel
        driver = self.driver_for(kernel_addr, line=line)
        sz = self.setup.sz
        n_sweeps = sweeps if sweeps is not None else self.setup.sweeps
        stats = RunStats()
        src, dst = self.m1, self.m2
        for _ in range(n_sweeps):
            self.sim.call(
                driver, (stencil_arg, src, dst),
                stats=stats, max_steps=500_000_000,
            )
            src, dst = dst, src
        return stats

    def cycles_per_cell(self, stats: RunStats, sweeps: int | None = None) -> float:
        sz = self.setup.sz
        n_sweeps = sweeps if sweeps is not None else self.setup.sweeps
        cells = (sz - 2) * (sz - 2) * n_sweeps
        return stats.cycles / cells

    def extrapolated_seconds(self, stats: RunStats, sweeps: int | None = None) -> float:
        """Scale simulated cycles/cell to the paper's workload size."""
        per_cell = self.cycles_per_cell(stats, sweeps)
        paper_cells = (self.setup.paper_sz - 2) ** 2 * self.setup.paper_iterations
        return self.costs.cycles_to_seconds(per_cell * paper_cells)

    # -- correctness reference -----------------------------------------------------

    def reference_sweeps(
        self, n_sweeps: int,
        points: tuple[tuple[int, int, float], ...] | None = None,
    ) -> list[list[float]]:
        """Pure-Python Jacobi for validating every kernel/mode."""
        from repro.stencil.data import FOUR_POINT

        pts = points if points is not None else FOUR_POINT
        sz = self.setup.sz
        a = self.read_matrix(1)
        b = self.read_matrix(2)
        for _ in range(n_sweeps):
            for y in range(1, sz - 1):
                for x in range(1, sz - 1):
                    b[y][x] = sum(f * a[y + dy][x + dx] for dx, dy, f in pts)
            a, b = b, a
        return a


def matrices_equal(a: list[list[float]], b: list[list[float]],
                   tol: float = 0.0) -> bool:
    """Exact (or tolerance) comparison of two matrices."""
    for ra, rb in zip(a, b):
        for va, vb in zip(ra, rb):
            if math.isnan(va) or math.isnan(vb):
                return False
            if abs(va - vb) > tol:
                return False
    return True
