"""The ledger's five workloads.

A workload is a list of *rounds*; a round is a fixed list of *operations*,
each timed on its own (``clock.Clock``), so everything between two
operations (fresh workspaces, matrix resets, coefficient writes, output
checks) is outside the timer.  The first three workloads start every round from a fresh
``StencilWorkspace`` so the image never grows across rounds.

Every workload checks its outputs against ``StencilWorkspace.
reference_sweeps`` (pure-Python Jacobi) or the corpus' own five-engine
comparison — never against the compiler under test.  A failed operation is
counted, not fatal.

The workload seed only orders or selects inputs; ``repro`` never sees it
(except as the gate's sample-rotation seed on ``verified_install``).
"""

from __future__ import annotations

import gc
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis import PassValidator
from repro.bench.harness import stencil_arg
from repro.bench.modes import CODES, GUARD_LADDERS, ModeResult, prepare_kernel
from repro.cache import SpecializationCache
from repro.guard import GateOptions, GuardedTransformer
from repro.stencil.data import FOUR_POINT, FP_LAYOUT, FS_LAYOUT
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace, matrices_equal
from repro.testing import diffcorpus

from clock import Clock, Op

SETUP = JacobiSetup(sz=17, sweeps=1)
TRANSFORMS = ("llvm", "llvm-fix", "dbrew", "dbrew+llvm")

Cell = tuple[str, bool, str]  # (code, line kernel?, mode)

#: Fig. 10 extended to both kernel shapes: every transforming cell
CELLS24: tuple[Cell, ...] = tuple(
    (code, line, mode) for code in CODES for line in (False, True)
    for mode in TRANSFORMS)
#: Fig. 9a/9b: the transformed cells plus the six native kernels
CELLS30: tuple[Cell, ...] = CELLS24 + tuple(
    (code, line, "native") for code in CODES for line in (False, True))
#: the cells the guard ladder can serve
CELLS18: tuple[Cell, ...] = tuple(c for c in CELLS24 if c[2] in GUARD_LADDERS)
#: cells whose emitted code depends on the flat descriptor's coefficients
VARIANT_CELLS: tuple[Cell, ...] = tuple(
    c for c in CELLS24 if c[0] == "flat" and c[2] != "llvm")

#: coefficient variants of the flat descriptor.  Variant 0 is the paper's
#: 4-point stencil; all values are small dyadic fractions, so with the 0/1
#: start matrices every product and sum is exact in any evaluation order
VARIANTS: tuple[tuple[float, ...], ...] = tuple(
    tuple(0.25 + k * (2 * j - 3) / 128 for j in range(4)) for k in range(6))


def cell_name(cell: Cell) -> str:
    code, line, mode = cell
    return f"{code}.{'line' if line else 'elem'}.{mode}"


def quartiles(values: list[float]) -> dict[str, float]:
    """Median with the quartiles and sample count printed beside it."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"p50": statistics.median(values), "p25": q1, "p75": q3,
            "n": len(values)}


@dataclass
class Summary:
    """What a workload adds to the common metrics."""

    #: ``{name: (value, unit, note)}``
    metrics: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    rows: list[dict[str, Any]] = field(default_factory=list)
    #: geometric means over the rows, same shape as ``metrics``
    aggregates: dict[str, tuple[float, str, str]] = field(default_factory=dict)


class Workload:
    """Set-up (preparation plus a discarded warm-up round), timed rounds,
    then the oracle and the per-cell rows."""

    name: str
    why: str
    #: rounds of the full ledger run, and their cost on the seed commit;
    #: a ``--seconds`` budget is converted to rounds through the latter so
    #: the work — and with it every count — is the same on every run
    ledger_rounds: int
    nominal_round_s: float

    def __init__(self, seed: int, clock: Clock) -> None:
        self.seed = seed
        self.clock = clock

    def setup(self) -> None:
        self.round(-1)

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def finish(self, rounds: list[list[Op]]) -> Summary:
        raise NotImplementedError

    def _shuffled(self, cells: tuple[Cell, ...]) -> list[Cell]:
        out = list(cells)
        random.Random(self.seed).shuffle(out)
        return out


def _check_kernels(ws: StencilWorkspace, ops: list[Op],
                   points: Callable[[Op], Any] = lambda op: None) -> None:
    """One sweep of every emitted kernel must equal the reference exactly."""
    ws.sim.invalidate_code()
    for op in ops:
        if not op.ok:
            continue
        code, line, _mode = op.key[0]
        ws.reset_matrices()
        want = ws.reference_sweeps(1, points=points(op))
        try:
            ws.run_sweeps(op.result.kernel_addr, line=line,
                          stencil_arg=stencil_arg(ws, code), sweeps=1)
        except Exception as exc:
            op.error = f"oracle sweep raised {type(exc).__name__}: {exc}"
            continue
        if not matrices_equal(ws.read_matrix(2), want):
            op.error = "sweep output differs from reference_sweeps"


def _per_cell(rounds: list[list[Op]]) -> dict[str, list[Op]]:
    by_cell: dict[str, list[Op]] = {}
    for ops in rounds:
        for op in ops:
            by_cell.setdefault(op.cell, []).append(op)
    return by_cell


class CompileCold(Workload):
    name = "compile_cold"
    why = ("The paper's Fig. 10 on both kernel shapes: dbrew, lift, "
           "ir.passes, ir.codegen and x86 do all the work; no verification, "
           "no cache and no simulation inside the timer.")
    ledger_rounds = 31
    nominal_round_s = 0.55

    def __init__(self, seed: int, clock: Clock) -> None:
        super().__init__(seed, clock)
        self.cells = self._shuffled(CELLS24)

    def round(self, index: int) -> list[Op]:
        ws = self.ws = StencilWorkspace(SETUP)
        return [
            self.clock.run(
                cell_name(cell),
                lambda c=cell: prepare_kernel(ws, c[0], c[2], line=c[1]),
                key=(cell,))
            for cell in self.cells
        ]

    def finish(self, rounds: list[list[Op]]) -> Summary:
        _check_kernels(self.ws, rounds[-1])
        sizes = self.ws.image.func_sizes
        code_bytes = sum(sizes.get(f"k.{op.cell}", 0) for op in rounds[-1])
        out = Summary({"code_bytes_total": (
            code_bytes, "bytes", f"{len(rounds[-1])} kernels, last round")})
        for cell, ops in sorted(_per_cell(rounds).items()):
            done = [op for op in ops if op.result is not None]
            row = {"cell": cell,
                   "transform_ms": 1e3 * statistics.median(
                       op.seconds for op in ops),
                   "clock": "host", "ok": all(op.ok for op in ops)}
            for stage in ("rewrite", "lift", "opt", "codegen"):
                # prepare_kernel's own stage timers, at the op's speed factor
                laps = [op.result.stages[stage] * op.seconds / op.raw_s
                        for op in done if stage in op.result.stages]
                if laps:
                    row[f"{stage}_ms"] = 1e3 * statistics.median(laps)
            out.rows.append(row)
        out.aggregates["transform_ms_gmean"] = (
            statistics.geometric_mean([r["transform_ms"] for r in out.rows]), "ms",
            f"geometric mean over {len(out.rows)} cells")
        return out


class _RecordingGuard(GuardedTransformer):
    """``prepare_kernel`` returns a ``ModeResult`` without the machine
    verdict; keep the guard's own result so the verdict can be read."""

    last = None

    def transform(self, *args: Any, **kwargs: Any):
        self.last = super().transform(*args, **kwargs)
        return self.last


class VerifiedInstall(Workload):
    name = "verified_install"
    why = ("Same inputs as compile_cold, but most of the time is the "
           "verification stack (pass validator, IR interpreter, checkers, "
           "machine verifier, differential gate, memory snapshots).")
    ledger_rounds = 9
    nominal_round_s = 3.0

    def __init__(self, seed: int, clock: Clock) -> None:
        super().__init__(seed, clock)
        self.cells = self._shuffled(CELLS18)

    def round(self, index: int) -> list[Op]:
        ws = self.ws = StencilWorkspace(SETUP)
        ops = []
        for cell in self.cells:
            code, line, mode = cell
            guard = _RecordingGuard(
                ws.image, validator=PassValidator(), machine_verify=True,
                gate_options=GateOptions(samples=2, seed=self.seed))
            op = self.clock.run(
                cell_name(cell),
                lambda: prepare_kernel(ws, code, mode, line=line, guard=guard),
                key=(cell,))
            res: ModeResult | None = op.result
            if res is not None:
                tx = guard.last.result if guard.last is not None else None
                op.info = (res.guard_mode, res.verified,
                           tx.machine_verdict if tx is not None else None)
                if res.guard_mode != mode:
                    op.error = (f"served by rung {res.guard_mode!r}, "
                                f"requested {mode!r}")
            ops.append(op)
        return ops

    def finish(self, rounds: list[list[Op]]) -> Summary:
        _check_kernels(self.ws, rounds[-1])
        installs = [op for ops in rounds for op in ops]
        proved = sum(1 for op in installs if op.info is not None
                     and op.info[1] and op.info[2] == "proved")
        out = Summary({"verified_share": (
            proved / len(installs), "share",
            f"{proved}/{len(installs)} installs gate-verified and proved")})
        for cell, ops in sorted(_per_cell(rounds).items()):
            last = ops[-1]
            row = {"cell": cell,
                   "install_ms": 1e3 * statistics.median(
                       op.seconds for op in ops),
                   "clock": "host", "ok": all(op.ok for op in ops)}
            if last.info is not None:
                row.update(zip(("guard_mode", "verified", "machine_verdict"),
                               last.info))
            out.rows.append(row)
        out.aggregates["install_ms_gmean"] = (
            statistics.geometric_mean([r["install_ms"] for r in out.rows]), "ms",
            f"geometric mean over {len(out.rows)} cells")
        return out


class WarmRespec(Workload):
    name = "warm_respec"
    why = ("The compile layers behind the specialization cache: 54 first "
           "sights use its write side, 3946 repeats its read side; a stale "
           "hit after a coefficient write shows only here.")
    ledger_rounds = 9
    nominal_round_s = 2.5
    requests = 4000

    def __init__(self, seed: int, clock: Clock) -> None:
        super().__init__(seed, clock)
        keys: list[tuple[Cell, int | None]] = [
            (cell, v) for cell in VARIANT_CELLS for v in range(len(VARIANTS))]
        keys += [(cell, None) for cell in CELLS24 if cell not in VARIANT_CELLS]
        rng = random.Random(seed)
        # every key is first seen in the first tenth of the stream
        head = keys + rng.choices(keys, k=self.requests // 10 - len(keys))
        rng.shuffle(head)
        # dbrew and dbrew+llvm of one cell share the rewrite stage: keep the
        # plain rewrite first, so every first sight is a miss on every seed
        first: dict[Any, int] = {}
        for i, key in enumerate(head):
            first.setdefault(key, i)
        for ((code, line, mode), v), i in first.items():
            j = first.get(((code, line, "dbrew"), v), i)
            if mode == "dbrew+llvm" and i < j:
                head[i], head[j] = head[j], head[i]
        self.keys = keys
        self.stream = head + rng.choices(
            keys, k=self.requests - len(head))

    def _set_variant(self, variant: int) -> None:
        if variant == self.variant:
            return
        ws = self.ws
        base = ws.flat.addr + FS_LAYOUT.offset_of("p") \
            + FP_LAYOUT.offset_of("f")
        for j, f in enumerate(VARIANTS[variant]):
            ws.image.memory.write_f64(base + j * FP_LAYOUT.size, f)
        self.variant = variant

    def _request(self, key: tuple[Cell, int | None]) -> Op:
        (code, line, mode), variant = key
        if variant is not None:
            self._set_variant(variant)
        ws, cache = self.ws, self.cache
        # one output name per variant: a name re-pointed at another
        # variant's code leaves a stale func_sizes entry behind, which
        # function_extent then digests (a spurious miss, see README)
        uid = "" if variant is None else f".v{variant}"
        return self.clock.run(
            cell_name(key[0]) + uid,
            lambda: prepare_kernel(ws, code, mode, line=line, uid=uid,
                                   cache=cache),
            key=key)

    def round(self, index: int) -> list[Op]:
        self.ws = StencilWorkspace(SETUP)
        self.cache = SpecializationCache()
        self.variant = 0
        return [self._request(key) for key in self.stream]

    @staticmethod
    def _hit(op: Op) -> bool:
        return op.result is not None \
            and op.result.cache_stage in ("machine", "rewrite")

    def finish(self, rounds: list[list[Op]]) -> Summary:
        served = [op for ops in rounds for op in ops]
        hits = [op for op in served if self._hit(op)]
        misses = [op for op in served if op.ok and not self._hit(op)]
        hit_us = quartiles([1e6 * op.seconds for op in hits])
        miss_ms = quartiles([1e3 * op.seconds for op in misses])
        out = Summary({
            "hit_share": (len(hits) / len(served), "share",
                          f"{len(hits)}/{len(served)} requests"),
            "hit_us_p50": (hit_us["p50"], "us", _note(hit_us)),
            "miss_ms_p50": (miss_ms["p50"], "ms", _note(miss_ms)),
        })

        # the stale-hit check: every variant-dependent install, requested
        # again under its own coefficients, must be served from the cache
        # and compute that variant's sweep; a failure is booked on the
        # last round's first sight of that key
        again = [self._request(key) for key in self.keys if key[1] is not None]
        for op in again:
            if op.ok and not self._hit(op):
                op.error = "re-request of an installed key missed the cache"

        def points(op: Op):
            self._set_variant(op.key[1])
            return tuple((dx, dy, f) for (dx, dy, _), f
                         in zip(FOUR_POINT, VARIANTS[op.key[1]]))

        _check_kernels(self.ws, again, points)
        first_sight = {}
        for op in rounds[-1]:
            first_sight.setdefault(op.key, op)
        for op in again:
            if not op.ok:
                first_sight[op.key].error = f"stale-hit check: {op.error}"

        for cell, ops in sorted(_per_cell(rounds).items()):
            firsts = [op for op in ops if op.ok and not self._hit(op)]
            repeats = [op for op in ops if self._hit(op)]
            row: dict[str, Any] = {
                "cell": cell, "requests": len(ops), "clock": "host",
                "ok": all(op.ok for op in ops)}
            if firsts:
                row["first_sight_ms"] = 1e3 * statistics.median(
                    op.seconds for op in firsts)
                row["first_sight_stage"] = \
                    firsts[0].result.cache_stage or "full-compile"
            if repeats:
                row["hit_us"] = 1e6 * statistics.median(
                    op.seconds for op in repeats)
            out.rows.append(row)
        return out


class SimSweeps(Workload):
    name = "sim_sweeps"
    why = ("The paper's Fig. 9 and the instrument every figure rests on: "
           "Simulator.call is most of the time with a hot decode cache and "
           "the compile layers do nothing inside the timer.")
    ledger_rounds = 12
    nominal_round_s = 2.2

    def setup(self) -> None:
        ws = self.ws = StencilWorkspace(SETUP)
        self.kernels: list[tuple[Cell, int]] = []
        for cell in self._shuffled(CELLS30):
            code, line, mode = cell
            addr = prepare_kernel(ws, code, mode, line=line).kernel_addr
            ws.driver_for(addr, line=line)
            self.kernels.append((cell, addr))
        ws.reset_matrices()
        self.want = ws.reference_sweeps(1)
        self.round(-1)

    def round(self, index: int) -> list[Op]:
        ws = self.ws
        ops = []
        for cell, addr in self.kernels:
            code, line, _mode = cell
            sarg = stencil_arg(ws, code)
            ws.reset_matrices()
            op = self.clock.run(
                cell_name(cell),
                lambda: ws.run_sweeps(addr, line=line, stencil_arg=sarg,
                                      sweeps=1),
                key=(cell,))
            if op.ok and not matrices_equal(ws.read_matrix(2), self.want):
                op.error = "sweep output differs from reference_sweeps"
            ops.append(op)
        return ops

    def finish(self, rounds: list[list[Op]]) -> Summary:
        ws = self.ws
        done = [op for ops in rounds for op in ops if op.result is not None]
        insns = sum(op.result.instructions for op in done)
        wall = sum(op.seconds for op in done)
        out = Summary()
        for cell, ops in sorted(_per_cell(rounds).items()):
            row: dict[str, Any] = {
                "cell": cell, "ok": all(op.ok for op in ops),
                "sweep_ms": 1e3 * statistics.median(op.seconds for op in ops),
                "sweep_ms_clock": "host"}
            stats = ops[-1].result
            if stats is not None:
                row.update(
                    cycles_per_cell=ws.cycles_per_cell(stats, 1),
                    paper_scale_s=ws.extrapolated_seconds(stats, 1),
                    cycles_clock="simulated",
                    sim_insns=stats.instructions)
            out.rows.append(row)
        per_cell = [r["cycles_per_cell"] for r in out.rows
                    if "cycles_per_cell" in r]
        out.metrics["sim_cycles_per_cell_gmean"] = (
            statistics.geometric_mean(per_cell), "cycles/cell",
            f"simulated; geometric mean over {len(per_cell)} cells")
        out.metrics["sim_insns_per_s"] = (
            insns / wall, "1/s",
            f"{insns} simulated instructions / {wall:.3f} s host")
        # Fig. 9's bars: each mode against the native kernel of its row
        cycles = {r["cell"]: r["cycles_per_cell"] for r in out.rows
                  if "cycles_per_cell" in r}
        native = {c.rsplit(".", 1)[0]: v for c, v in cycles.items()
                  if c.endswith(".native")}
        for mode in TRANSFORMS:
            ratios = [v / native[c.rsplit(".", 1)[0]]
                      for c, v in cycles.items() if c.endswith("." + mode)]
            if ratios and native:
                out.aggregates[f"cycles_vs_native.{mode}"] = (
                    statistics.geometric_mean(ratios), "x",
                    f"simulated; geometric mean over {len(ratios)} rows; "
                    f"base: native at {statistics.geometric_mean(list(native.values())):.2f} "
                    f"cycles/cell")
        return out


class CorpusSweep(Workload):
    name = "corpus_sweep"
    why = ("Opposite input shape: hundreds of tiny functions through five "
           "engines with a fresh Image, Simulator and Instrumenter per "
           "case, so per-function fixed costs dominate instead of loops.")
    ledger_rounds = 6
    nominal_round_s = 4.0
    seeds_per_round = 10

    def _cases(self, first: int, count: int) -> list[tuple[str, int]]:
        return [(kind, s) for s in range(first, first + count)
                for kind in diffcorpus.KINDS]

    def _run(self, cases: list[tuple[str, int]]) -> list[Op]:
        ops = []
        for kind, s in cases:
            # every case leaves a few MB of cyclic garbage (image, shadow
            # images, IR); left to the collector's own schedule, peak RSS
            # moved by 13% between seeds.  Collect between cases, outside
            # the timer, so each case starts from a clean heap
            gc.collect()
            ops.append(self.clock.run(f"{kind}:{s}",
                                      lambda: diffcorpus.run_case(kind, s),
                                      key=(kind, s)))
        return ops

    def setup(self) -> None:
        # four untimed cases fill the process-wide decode and trace memos
        self._run(self._cases(self.seed - 2, 2))

    def round(self, index: int) -> list[Op]:
        n = self.seeds_per_round
        return self._run(self._cases(self.seed + n * index, n))

    def finish(self, rounds: list[list[Op]]) -> Summary:
        out = Summary()
        for ops in rounds:
            for op in ops:
                out.rows.append({"cell": op.cell, "kind": op.key[0],
                                 "seed": op.key[1], "ok": op.ok,
                                 "case_ms": 1e3 * op.seconds,
                                 "clock": "host"})
        out.aggregates["case_ms_gmean"] = (
            statistics.geometric_mean([r["case_ms"] for r in out.rows]), "ms",
            f"geometric mean over {len(out.rows)} cases")
        return out


def _note(q: dict[str, float]) -> str:
    return f"p25={q['p25']:.4g} p75={q['p75']:.4g} n={q['n']}"


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CompileCold, VerifiedInstall, WarmRespec, SimSweeps,
                        CorpusSweep)
}
