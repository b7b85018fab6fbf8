"""Instrumentation-as-a-workload benchmarks: overhead, drain, admission.

Three claims of the ``repro.instrument`` subsystem, each measured and
asserted on the Jacobi line kernel (the paper's hot stencil code):

1. **Steady-state overhead** — the default probe load (call + edge
   counters) must cost at most 2x the plain lifted kernel in simulated
   cycles.  Probes are straight-line load/add/store chains, so the
   overhead is a constant per block, not per-workload chaos.
2. **Counter drain** — reading every per-block counter *and* draining the
   event ring must stay under 1 ms: a caller that polls block heat to
   decide when a rewrite pays off pays this per poll.
3. **Admission cost** — one fully-verified instrumented install (lift,
   O3, inject, probe-ops pregate, codegen, machine proof, effects-
   whitelist gate) must finish within the install budget, and the
   gate/verify share is reported per stage.

Standalone (CI smoke): ``python bench_instrument.py --quick --json
BENCH_instrument.json``.
"""

import argparse
import json
import time

from repro import FunctionSignature
from repro.cpu.simulator import RunStats
from repro.guard.verify import GateOptions
from repro.instrument import Instrumenter
from repro.jit import BinaryTransformer
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace

MAX_STEADY_OVERHEAD = 2.0    # instrumented vs plain, simulated cycles
MAX_DRAIN_US = 1_000.0       # counters + event-ring drain, per poll
MAX_INSTALL_SECONDS = 2.0    # full verified instrumented install

SIG = FunctionSignature(("i",) * 6, None)


def _workspace() -> tuple[StencilWorkspace, tuple]:
    ws = StencilWorkspace(JacobiSetup(sz=9, sweeps=1))
    sz = ws.setup.sz
    args = (ws.flat.addr, ws.m1, ws.m2, 1, 1, sz - 1)
    return ws, args


# -- overhead / drain / admission ------------------------------------------


def bench_probe_costs(calls: int = 5, polls: int = 1_000) -> dict:
    ws, args = _workspace()
    out = {}

    plain = BinaryTransformer(ws.image).llvm_identity("line_flat", SIG,
                                                      name="lf.plain")

    t0 = time.perf_counter()
    res = Instrumenter(ws.image, gate_options=GateOptions(samples=1)) \
        .instrument("line_flat", SIG, probes=(args,), name="lf.instr")
    out["install_seconds"] = time.perf_counter() - t0
    out["install_stage_seconds"] = {k: round(v, 5)
                                    for k, v in res.seconds.items()}
    gate_s = res.seconds.get("gate", 0.0) + res.seconds.get(
        "machine_verify", 0.0)
    out["gate_verify_share"] = gate_s / out["install_seconds"]
    assert res.machine_verdict in ("proved", "inconclusive")
    assert res.gate_report is not None and res.gate_report.passed

    res.buffer.reset()

    def cycles_per_call(addr: int) -> float:
        st = RunStats()
        for _ in range(calls):
            ws.sim.call(addr, args, stats=st)
        return st.cycles / calls

    out["plain_cycles"] = cycles_per_call(plain.addr)
    out["instr_cycles"] = cycles_per_call(res.addr)
    out["steady_overhead"] = out["instr_cycles"] / out["plain_cycles"]
    out["heat_per_call"] = res.buffer.hotness() / res.buffer.call_count()

    t0 = time.perf_counter()
    for _ in range(polls):
        res.buffer.block_counts()
        res.buffer.drain()
    out["drain_us"] = (time.perf_counter() - t0) * 1e6 / polls
    return out


# -- harness ----------------------------------------------------------------


def run_all(*, quick: bool = False) -> dict:
    report = {
        "probes": bench_probe_costs(polls=200 if quick else 1_000),
        "quick": quick,
    }
    p = report["probes"]
    report["pass"] = {
        "steady_overhead_under_2x":
            p["steady_overhead"] <= MAX_STEADY_OVERHEAD,
        "drain_under_1ms": p["drain_us"] <= MAX_DRAIN_US,
        "install_within_budget":
            p["install_seconds"] <= MAX_INSTALL_SECONDS,
    }
    return report


def _report_lines(r: dict) -> list[str]:
    p = r["probes"]
    return [
        f"steady state {p['instr_cycles']:8.1f} cyc instrumented vs "
        f"{p['plain_cycles']:8.1f} plain   {p['steady_overhead']:.2f}x "
        f"(heat {p['heat_per_call']:.0f}/call)",
        f"drain        {p['drain_us']:8.2f} us per counters+ring poll",
        f"install      {p['install_seconds'] * 1e3:8.1f} ms total   "
        f"gate+verify share {p['gate_verify_share']:.0%}   "
        f"stages {p['install_stage_seconds']}",
    ]


def test_instrument_targets():
    from conftest import record

    r = run_all(quick=True)
    for line in _report_lines(r):
        record("Instrumentation workload (jacobi line kernel, sz=9)", line)
    assert all(r["pass"].values()), r["pass"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="fewer drain polls (CI smoke)")
    ap.add_argument("--json", metavar="PATH",
                    help="write the full metric report as JSON")
    args = ap.parse_args(argv)

    r = run_all(quick=args.quick)
    for line in _report_lines(r):
        print(line)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(r, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    failed = [k for k, ok in r["pass"].items() if not ok]
    if failed:
        print(f"FAIL: {', '.join(failed)}")
        return 1
    print("OK: " + ", ".join(sorted(r["pass"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
