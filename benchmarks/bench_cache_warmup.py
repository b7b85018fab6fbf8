"""Specialization-cache warm-path benchmark: cold vs warm latency.

The paper pays the full decode -> lift -> -O3 -> codegen cost on every
rewrite request (Fig. 10).  With the :class:`SpecializationCache` attached,
only the *first* request for a given specialization compiles; repeats are
served from the installed-code (machine) stage.  This bench measures the
request latency over consecutive identical ``llvm-fix`` requests and the
cumulative hit rate — the warm path must be at least 50x faster than the
cold path, and every post-warmup request must be a cache hit.

Also runnable standalone (CI smoke): ``python bench_cache_warmup.py --quick``.
"""

import argparse
import statistics
import time

from repro.bench.harness import stencil_arg
from repro.bench.modes import prepare_kernel
from repro.cache import SpecializationCache
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace, matrices_equal

MIN_SPEEDUP = 50.0


def run_warmup(sz: int = 17, warm_rounds: int = 10):
    """1 cold + ``warm_rounds`` identical llvm-fix requests on a fresh
    workspace/cache; returns (ws, cache, per-request seconds, ModeResults)."""
    ws = StencilWorkspace(JacobiSetup(sz=sz, sweeps=1))
    cache = SpecializationCache()
    laps: list[float] = []
    results = []
    for i in range(1 + warm_rounds):
        t0 = time.perf_counter()
        res = prepare_kernel(ws, "flat", "llvm-fix", line=False,
                             uid=f".w{i}", cache=cache)
        laps.append(time.perf_counter() - t0)
        results.append(res)
    return ws, cache, laps, results


def check_kernel_correct(ws, res) -> bool:
    ws.reset_matrices()
    want = ws.reference_sweeps(1)
    ws.run_sweeps(res.kernel_addr, line=False,
                  stencil_arg=stencil_arg(ws, "flat"), sweeps=1)
    return matrices_equal(ws.read_matrix(2), want)


def _curve_lines(laps, results, cache):
    lines = []
    hits = 0
    for i, (dt, res) in enumerate(zip(laps, results)):
        if res.cache_stage is not None:
            hits += 1
        lines.append(
            f"request {i:2d}  {dt * 1e3:9.3f} ms   "
            f"stage={res.cache_stage or 'full-compile':12s} "
            f"hit-rate={hits / (i + 1):5.1%}")
    lines.append(
        f"stats: {cache.stats.transform_hits}/{cache.stats.transforms} "
        f"transform hits, {cache.stats.stores} stores, "
        f"{cache.stats.invalidations} invalidations")
    return lines


def test_cache_warmup_speedup_and_hit_rate():
    from conftest import record

    ws, cache, laps, results = run_warmup(sz=17, warm_rounds=8)
    cold, warm = laps[0], laps[1:]

    assert results[0].cache_stage is None
    # every repeat is served without compiling: 100% warm hit rate,
    # reported both per transform and by the aggregate counters
    assert all(r.cache_stage == "machine" for r in results[1:])
    assert cache.stats.transforms == len(results)
    assert cache.stats.transform_hits == len(warm)
    assert cache.stats.hit_rate == len(warm) / len(results)

    speedup = cold / statistics.median(warm)
    assert speedup >= MIN_SPEEDUP, (cold, warm)
    assert check_kernel_correct(ws, results[-1])

    for line in _curve_lines(laps, results, cache):
        record("Cache  warm-path latency (llvm-fix of apply_flat, sz=17)",
               line)
    record("Cache  warm-path latency (llvm-fix of apply_flat, sz=17)",
           f"cold {cold * 1e3:.2f} ms  /  warm median "
           f"{statistics.median(warm) * 1e3:.4f} ms  =  {speedup:.0f}x")


def test_warm_transform_latency(benchmark, workspace):
    """pytest-benchmark stats for the steady-state (machine-hit) request."""
    ws = workspace
    cache = SpecializationCache()
    prepare_kernel(ws, "flat", "llvm-fix", line=False, uid=".bw", cache=cache)

    def warm():
        return prepare_kernel(ws, "flat", "llvm-fix", line=False,
                              uid=".bw", cache=cache)

    res = benchmark(warm)
    assert res.cache_stage == "machine"
    benchmark.extra_info["hit_rate"] = round(cache.stats.hit_rate, 4)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small workspace + few rounds (CI smoke)")
    ap.add_argument("--rounds", type=int, default=None)
    args = ap.parse_args(argv)
    sz = 9 if args.quick else 17
    rounds = args.rounds if args.rounds is not None else (3 if args.quick else 10)
    if rounds < 1:
        ap.error("--rounds must be >= 1 (need at least one warm request)")

    ws, cache, laps, results = run_warmup(sz=sz, warm_rounds=rounds)
    for line in _curve_lines(laps, results, cache):
        print(line)

    cold, warm = laps[0], laps[1:]
    speedup = cold / statistics.median(warm)
    ok = True
    if results[0].cache_stage is not None:
        print("FAIL: first request unexpectedly hit the cache")
        ok = False
    if not all(r.cache_stage == "machine" for r in results[1:]):
        print("FAIL: a warm request missed the machine stage")
        ok = False
    if cache.stats.transform_hits != len(warm):
        print("FAIL: hit counters disagree with per-transform stages")
        ok = False
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: warm path only {speedup:.1f}x faster "
              f"(need >= {MIN_SPEEDUP:.0f}x)")
        ok = False
    if not check_kernel_correct(ws, results[-1]):
        print("FAIL: cached kernel computes a wrong matrix")
        ok = False
    print(f"{'OK' if ok else 'FAIL'}: cold {cold * 1e3:.2f} ms, warm median "
          f"{statistics.median(warm) * 1e3:.4f} ms ({speedup:.0f}x), "
          f"hit rate {cache.stats.hit_rate:.1%}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
