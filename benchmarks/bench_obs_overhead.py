"""Observability overhead: disabled tracing must be free, enabled cheap.

The DESIGN §10 cost contract: with tracing disabled every instrumentation
site is one attribute check, so the hottest path of the pipeline — a
warm ``GuardedTransformer.transform`` (machine-stage cache hit) — must run
within 5% of its untraced baseline.  The
enabled-mode cost is measured alongside for the record (it pays for span
allocation and a lock per finish, and is expected to be visible).

The two arms are timed in pairs of laps of a few calls each, each pair
alternating which arm runs first, and the bar bounds the median of the
per-pair ratios: one lap can read far off (a GC pause or the host's
other load lands inside it), and whichever arm always runs second pays
for the first's garbage.

Also runnable standalone (CI smoke):
``python bench_obs_overhead.py --quick --json BENCH_obs.json``.
"""

import argparse
import json
import statistics
import time

from repro.cache import SpecializationCache
from repro.cc import compile_c
from repro.guard import GuardedTransformer
from repro.lift import FunctionSignature
from repro.obs.trace import TRACER

MAX_DISABLED_OVERHEAD = 0.05
#: a warm hit takes about 20 µs, short enough for one interrupt to double
#: a single-call lap
CALLS_PER_LAP = 8


def _pair(bare, wrapped, i: int) -> tuple[float, float]:
    """One lap of each arm; odd pairs run the wrapped arm first."""
    if i % 2:
        w = _lap(wrapped)
        return _lap(bare), w
    b = _lap(bare)
    return b, _lap(wrapped)


def run_warm_guard(rounds: int = 60) -> dict:
    """Warm guarded transform: untraced impl vs wrapper, off and on."""
    assert not TRACER.enabled
    prog = compile_c("long f(long a, long b) { return a * b + 3; }")
    guard = GuardedTransformer(prog.image, cache=SpecializationCache())
    sig = FunctionSignature(("i", "i"), "i")
    kwargs = dict(name="f.obs", ladder=("llvm",))
    out = guard.transform("f", sig, **kwargs)  # cold: warms the cache
    assert not out.degraded
    assert guard.transform("f", sig, **kwargs).result.cache_stage is not None

    def bare():
        guard._transform_impl("f", sig, None, mem_regions=(), probes=(),
                              dbrew_func=None, **kwargs)

    def wrapped():
        guard.transform("f", sig, **kwargs)

    pairs = [_pair(bare, wrapped, i) for i in range(rounds)]
    ratios = [w / b for b, w in pairs]
    base = statistics.median(b for b, _ in pairs)
    off = statistics.median(w for _, w in pairs)

    TRACER.clear()
    TRACER.enable()
    try:
        on = statistics.median(_lap(wrapped) for _ in range(rounds))
    finally:
        TRACER.disable()
        TRACER.clear()
    return {"warm_bare_us": base * 1e6,
            "warm_disabled_us": off * 1e6,
            "warm_enabled_us": on * 1e6,
            "warm_pair_ratios": ratios,
            "warm_overhead": statistics.median(ratios) - 1.0,
            "warm_enabled_overhead": on / base - 1.0}


def _lap(fn) -> float:
    """Seconds per call of ``fn``, timed over :data:`CALLS_PER_LAP` calls."""
    t0 = time.perf_counter()
    for _ in range(CALLS_PER_LAP):
        fn()
    return (time.perf_counter() - t0) / CALLS_PER_LAP


def _report_lines(r) -> list[str]:
    return [
        f"warm tx   bare {r['warm_bare_us']:7.1f} us   "
        f"disabled-trace {r['warm_disabled_us']:7.1f} us   "
        f"(median pair {r['warm_overhead']:+.1%})",
        f"warm tx   enabled-trace {r['warm_enabled_us']:7.1f} us   "
        f"({r['warm_enabled_overhead']:+.1%}, pays span alloc + lock)",
    ]


def test_disabled_tracing_overhead_within_budget():
    from conftest import record

    r = run_warm_guard()
    for line in _report_lines(r):
        record("Observability: disabled-tracing overhead on hot paths", line)
    assert r["warm_overhead"] < MAX_DISABLED_OVERHEAD, r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="fewer rounds (CI smoke)")
    ap.add_argument("--json", metavar="PATH",
                    help="write the measured numbers as JSON")
    args = ap.parse_args(argv)
    r = run_warm_guard(rounds=20 if args.quick else 60)
    for line in _report_lines(r):
        print(line)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(r, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if r["warm_overhead"] >= MAX_DISABLED_OVERHEAD:
        print(f"FAIL: disabled tracing exceeds "
              f"{MAX_DISABLED_OVERHEAD:.0%} on the warm transform")
        return 1
    print(f"OK: disabled-tracing overhead within "
          f"{MAX_DISABLED_OVERHEAD:.0%} on the warm transform")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
