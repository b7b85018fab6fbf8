"""Tiered-execution benchmarks: dispatch latency, zero-stall, steady state.

Four claims of the tiered engine, each measured and asserted:

1. **Dispatch overhead** — ``DispatchHandle.address()`` is a counter bump
   plus an attribute read; p50 must stay under 1 µs (it measures ~0.3 µs
   including the timer).
2. **Zero stall** — the first tiered call runs the original code: its
   simulated cost must be within 1.1x of calling T0 directly (it is
   exactly 1.0x — same address), and no dispatch ever waits on a compile.
3. **Steady state** — once T2 is installed, cycles/cell must be within 2%
   of the eager ``dbrew+llvm`` kernel (it is identical code, built by the
   same pipeline from the same fixation key).
4. **Time-to-T2** — for a hot function the governor promotes straight to
   the top tier, and delivering it in the background must take at most
   1.5x a *synchronous* guarded dbrew+llvm compile (the median of the
   per-pair ratios over interleaved pairs): the queueing, budget
   checkpoints and waiter wakeups are cheap.  The gradual T0 > T1 > T2
   path costs more in total compile work (both rungs run) and is
   reported alongside.

Plus a compile-queue scaling measurement: 64 functions registered at
once, drained through the background workers, then re-registered on a
fresh engine sharing the cache to measure the warm-hit rate.

Standalone (CI smoke): ``python bench_tiering.py --quick --json BENCH_tiering.json``.
"""

import argparse
import gc
import json
import statistics
import time
from dataclasses import asdict

from repro import FunctionSignature, Simulator, compile_c
from repro.bench.modes import prepare_kernel, register_tiered
from repro.cache import SpecializationCache
from repro.guard import GuardedTransformer
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.tier import T1, T2, TieredEngine, TierPolicy

MAX_DISPATCH_P50_NS = 1_000  # satellite: dispatch overhead < 1 µs
MAX_FIRST_CALL_RATIO = 1.10  # first tiered call vs direct T0
MAX_STEADY_DELTA = 0.02      # steady-state T2 vs eager dbrew+llvm
MAX_TIME_TO_T2_RATIO = 1.5   # background vs synchronous compile
TIME_TO_T2_PAIRS = 20        # interleaved sync/background pairs


# -- 1. dispatch latency ----------------------------------------------------


def bench_dispatch_latency(samples: int = 50_000) -> dict:
    prog = compile_c("long f(long a, long b) { return a + b; }")
    # thresholds out of reach: measure the pure hot path, no reviews
    with TieredEngine(prog.image,
                      policy=TierPolicy(promote_calls=(10**9, 10**9))) as eng:
        h = eng.register("f", FunctionSignature(("i", "i"), "i"))
        for _ in range(1_000):
            h.address()  # warm the attribute caches
        lat = []
        for _ in range(samples):
            t0 = time.perf_counter_ns()
            h.address()
            lat.append(time.perf_counter_ns() - t0)
    lat.sort()
    return {
        "samples": samples,
        "p50_ns": lat[len(lat) // 2],
        "p99_ns": lat[int(len(lat) * 0.99)],
    }


# -- 2+3+4. the jacobi promotion story --------------------------------------


def bench_stencil_tiering(sz: int = 9) -> dict:
    out = {}

    # eager baseline: synchronous *guarded* dbrew+llvm (gate included —
    # that is what the tiered T2 admission runs too)
    ws = StencilWorkspace(JacobiSetup(sz=sz, sweeps=1))
    guard = GuardedTransformer(ws.image, cache=SpecializationCache())
    t0 = time.perf_counter()
    eager = prepare_kernel(ws, "flat", "dbrew+llvm", line=False, uid=".sync",
                           guard=guard)
    out["sync_t2_cold_seconds"] = time.perf_counter() - t0
    assert eager.guard_mode == "dbrew+llvm" and eager.verified
    st = ws.run_sweeps(eager.kernel_addr, line=False,
                       stencil_arg=ws.flat.addr, sweeps=2)
    out["eager_cycles_per_cell"] = ws.cycles_per_cell(st, 2)
    st0 = ws.run_sweeps("apply_flat", line=False, stencil_arg=ws.flat.addr,
                        sweeps=1)
    out["t0_cycles_per_cell"] = ws.cycles_per_cell(st0, 1)

    # tiered: fresh workspace, background promotion
    ws2 = StencilWorkspace(JacobiSetup(sz=sz, sweeps=1))
    with TieredEngine(ws2.image,
                      policy=TierPolicy(promote_calls=(2, 4))) as eng:
        h = register_tiered(ws2, "flat", eng, line=False, uid=".bg")

        # zero-stall: the very first tiered sweep runs T0 at T0's price
        first = ws2.run_tiered_sweeps(h, stencil_arg=ws2.flat.addr,
                                      line=False, sweeps=1)
        out["first_call_cycles_per_cell"] = ws2.cycles_per_cell(first, 1)
        out["first_call_ratio"] = (out["first_call_cycles_per_cell"]
                                   / out["t0_cycles_per_cell"])

        # keep dispatching until T2 lands; this path pays the T1 detour
        # on top of the T2 compile, so its total is informational — the
        # asserted delivery latency is measured without the detour below
        # (10 ms poll so the compile workers actually get the GIL; a
        # 0.5 ms spin convoys it)
        t0 = time.perf_counter()
        deadline = t0 + 120.0
        while not h.wait_for_tier(T2, timeout=0.01):
            h.address()
            assert time.perf_counter() < deadline, h.snapshot()
        out["time_to_t2_with_detour_seconds"] = time.perf_counter() - t0
        assert h.code.mode == "dbrew+llvm" and h.code.verified

        # steady state: identical code, identical cycles
        steady = ws2.run_tiered_sweeps(h, stencil_arg=ws2.flat.addr,
                                       line=False, sweeps=2)
        out["steady_cycles_per_cell"] = ws2.cycles_per_cell(steady, 2)
        out["steady_delta"] = abs(
            out["steady_cycles_per_cell"] / out["eager_cycles_per_cell"] - 1.0)
        out["tier_path"] = [c for c in sorted(h.codes)]
        eng.drain(60.0)
        out["compile_seconds"] = dict(eng.stats.compile_seconds)

    # time-to-T2 delivery: background vs synchronous.  For a function this
    # hot the governor promotes straight to the top tier (T1's threshold is
    # out of reach here), isolating the background machinery's overhead —
    # queueing, budget checkpoints, waiter wakeups — from the detour.
    # Each compile arm is noisy (gen-2 GC pauses and the host's other load
    # land inside it; one pair's ratio can read 3x), so the arms run in
    # interleaved pairs, alternating which goes first, and the median of
    # the per-pair ratios is held to the bound.
    sync_times, bg_times, ratios = [], [], []
    for rep in range(TIME_TO_T2_PAIRS):
        if rep % 2 == 0:
            sync = _sync_t2_seconds(sz, rep)
            bg = _bg_t2_seconds(sz, rep)
        else:
            bg = _bg_t2_seconds(sz, rep)
            sync = _sync_t2_seconds(sz, rep)
        sync_times.append(sync)
        bg_times.append(bg)
        ratios.append(bg / sync)
    out["sync_t2_seconds"] = statistics.median(sync_times)
    out["time_to_t2_seconds"] = statistics.median(bg_times)
    out["time_to_t2_pair_ratios"] = ratios
    out["time_to_t2_ratio"] = statistics.median(ratios)
    out["time_to_t2_min_ratio"] = min(bg_times) / min(sync_times)
    return out


def _sync_t2_seconds(sz: int, rep: int) -> float:
    """One synchronous guarded dbrew+llvm compile on a fresh workspace."""
    gc.collect()
    ws = StencilWorkspace(JacobiSetup(sz=sz, sweeps=1))
    guard = GuardedTransformer(ws.image, cache=SpecializationCache())
    t0 = time.perf_counter()
    prepare_kernel(ws, "flat", "dbrew+llvm", line=False, uid=f".sync{rep}",
                   guard=guard)
    return time.perf_counter() - t0


def _bg_t2_seconds(sz: int, rep: int) -> float:
    """First dispatch of an already-hot handle until its T2 code lands."""
    gc.collect()
    ws = StencilWorkspace(JacobiSetup(sz=sz, sweeps=1))
    with TieredEngine(ws.image,
                      policy=TierPolicy(promote_calls=(10**9, 1))) as eng:
        h = register_tiered(ws, "flat", eng, line=False, uid=f".hot{rep}")
        t0 = time.perf_counter()
        deadline = t0 + 120.0
        h.address()  # already hot: the first dispatch submits the T2 job
        while not h.wait_for_tier(T2, timeout=0.01):
            h.address()
            assert time.perf_counter() < deadline, h.snapshot()
        dt = time.perf_counter() - t0
        assert h.code.mode == "dbrew+llvm" and h.code.verified
        assert T1 not in h.codes  # promoted straight past the detour
    return dt


# -- 5. compile-queue scaling ----------------------------------------------


def bench_compile_queue(n_funcs: int = 64) -> dict:
    src = "\n".join(
        f"long f{i}(long a, long b) {{ return (a + {i}) * b; }}"
        for i in range(n_funcs))
    prog = compile_c(src)
    sig = FunctionSignature(("i", "i"), "i")
    cache = SpecializationCache()
    # promote on the first call; T2 out of reach (the queue measures T1
    # pipeline throughput, not the gate)
    policy = TierPolicy(promote_calls=(1, 10**9))

    def round_trip(uid: str) -> tuple[float, dict, list[int]]:
        with TieredEngine(prog.image, cache=cache, policy=policy,
                          max_workers=4) as eng:
            handles = [eng.register(f"f{i}", sig, name=f"f{i}.{uid}")
                       for i in range(n_funcs)]
            t0 = time.perf_counter()
            for h in handles:
                h.address()
            ok = eng.drain(300.0)
            dt = time.perf_counter() - t0
            assert ok, "compile queue did not drain"
            assert sum(eng.stats.installs.values()) == n_funcs, \
                asdict(eng.stats)
            for h in handles:
                assert h.tier == T1
            addrs = [h.address() for h in handles]
            stats = asdict(eng.stats)
        return dt, stats, addrs

    cold_dt, cold_stats, addrs = round_trip("r1")
    warm_dt, warm_stats, _ = round_trip("r2")

    # spot-check a few installed T1 kernels
    sim = Simulator(prog.image)
    for i in (0, n_funcs // 2, n_funcs - 1):
        assert sim.call(addrs[i], (5, 3)).rax == (5 + i) * 3

    warm_hits = warm_stats["cache_served"].get("machine", 0)
    return {
        "functions": n_funcs,
        "cold_drain_seconds": cold_dt,
        "cold_throughput_per_s": n_funcs / cold_dt,
        "warm_drain_seconds": warm_dt,
        "warm_hit_rate": warm_hits / n_funcs,
    }


# -- harness ----------------------------------------------------------------


def run_all(*, quick: bool = False) -> dict:
    report = {
        "dispatch": bench_dispatch_latency(20_000 if quick else 50_000),
        "stencil": bench_stencil_tiering(sz=9),
        "queue": bench_compile_queue(16 if quick else 64),
        "quick": quick,
    }
    report["pass"] = {
        "dispatch_p50_under_1us":
            report["dispatch"]["p50_ns"] < MAX_DISPATCH_P50_NS,
        "first_call_zero_stall":
            report["stencil"]["first_call_ratio"] <= MAX_FIRST_CALL_RATIO,
        "steady_state_within_2pct":
            report["stencil"]["steady_delta"] <= MAX_STEADY_DELTA,
        "time_to_t2_within_1_5x":
            report["stencil"]["time_to_t2_ratio"] <= MAX_TIME_TO_T2_RATIO,
        "warm_hit_rate_full":
            report["queue"]["warm_hit_rate"] == 1.0,
    }
    return report


def _report_lines(r: dict) -> list[str]:
    d, s, q = r["dispatch"], r["stencil"], r["queue"]
    return [
        f"dispatch     p50 {d['p50_ns']:5d} ns   p99 {d['p99_ns']:5d} ns   "
        f"({d['samples']} samples, timer included)",
        f"first call   {s['first_call_cycles_per_cell']:8.2f} cyc/cell   "
        f"{s['first_call_ratio']:.3f}x T0 (zero-stall)",
        f"steady T2    {s['steady_cycles_per_cell']:8.2f} cyc/cell   "
        f"delta {s['steady_delta']:.2%} vs eager dbrew+llvm",
        f"time-to-T2   {s['time_to_t2_seconds'] * 1e3:8.1f} ms bg   "
        f"{s['sync_t2_seconds'] * 1e3:8.1f} ms sync (medians)   "
        f"ratio {s['time_to_t2_ratio']:.2f}x median of "
        f"{len(s['time_to_t2_pair_ratios'])} pairs, "
        f"{s['time_to_t2_min_ratio']:.2f}x min/min   "
        f"(T0>T1>T2 detour total {s['time_to_t2_with_detour_seconds'] * 1e3:.0f} ms)",
        f"queue        {q['functions']} funcs: "
        f"{q['cold_throughput_per_s']:6.1f} compiles/s cold, "
        f"warm-hit rate {q['warm_hit_rate']:.0%} "
        f"({q['warm_drain_seconds'] * 1e3:.0f} ms warm drain)",
    ]


def test_tiering_targets():
    from conftest import record

    r = run_all(quick=True)
    for line in _report_lines(r):
        record("Tiered execution engine (flat element kernel, sz=9)", line)
    assert all(r["pass"].values()), r["pass"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="fewer samples / smaller queue (CI smoke)")
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
