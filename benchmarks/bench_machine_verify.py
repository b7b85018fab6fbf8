"""Machine-verification cost: cold proof bounded, warm proof free.

The static verifier (DESIGN §13) rides the production install path, so its
cost contract has two legs, each measured and asserted here:

1. **Cold overhead** — proving a fresh emission (decode, CFG
   reconstruction, dual symbolic execution) may add at most 25% to the
   cold guarded compile it rides on.
2. **Warm is free** — a machine-stage cache hit serves the recorded
   verdict; the request must report ``machine_verify_seconds == 0`` and
   stay within a small factor of the unverified warm request (the only
   delta is copying one field).

Both legs time the two arms in pairs, alternate which arm runs first in
each pair, and bound the median of the per-pair ratios: one lap can read
far off (a gen-2 GC pause or the host's other load lands inside it), and
whichever arm always runs second pays for the first's garbage.

Standalone (CI smoke): ``python bench_machine_verify.py --quick --json
BENCH_machine_verify.json``.
"""

import argparse
import json
import statistics
import time

from repro import FunctionSignature, compile_c
from repro.cache import SpecializationCache
from repro.guard import GuardedTransformer
from repro.guard.verify import GateOptions

MAX_COLD_OVERHEAD = 0.25   # verified cold compile vs bare cold compile
MAX_WARM_OVERHEAD = 0.15   # verified warm hit vs bare warm hit

SRC = ("long f(long a, long b) "
       "{ long s = 0; for (long i = 0; i < a; i++) s += i * b; return s; }")
SIG = FunctionSignature(("i", "i"), "i")


def _lap(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _pair(bare, verified, i: int) -> tuple[float, float]:
    """One lap of each arm (each returns its seconds); odd pairs run the
    verified arm first."""
    if i % 2:
        v = verified()
        return bare(), v
    b = bare()
    return b, verified()


def _pair_stats(pairs: list[tuple[float, float]]) -> tuple[float, float,
                                                           list[float]]:
    """Median bare lap, median verified lap, every pair's ratio."""
    return (statistics.median(b for b, _ in pairs),
            statistics.median(v for _, v in pairs),
            [v / b for b, v in pairs])


def _cold_lap(prog, machine_verify: bool) -> float:
    """One cold guarded compile: fresh cache, nothing memoized."""
    guard = GuardedTransformer(prog.image, cache=SpecializationCache(),
                               machine_verify=machine_verify,
                               gate_options=GateOptions(samples=2))
    uid = _cold_lap.n = getattr(_cold_lap, "n", 0) + 1
    t = _lap(lambda: guard.transform("f", SIG, name=f"f.c{uid}",
                                     ladder=("llvm",)))
    return t


def run_cold(rounds: int = 20) -> dict:
    prog = compile_c(SRC)
    bare, verified, ratios = _pair_stats([
        _pair(lambda: _cold_lap(prog, False), lambda: _cold_lap(prog, True),
              i)
        for i in range(rounds)])
    return {"cold_bare_ms": bare * 1e3,
            "cold_verified_ms": verified * 1e3,
            "cold_pair_ratios": ratios,
            "cold_overhead": statistics.median(ratios) - 1.0}


def run_warm(rounds: int = 60) -> dict:
    prog = compile_c(SRC)
    bare = GuardedTransformer(prog.image, cache=SpecializationCache(),
                              gate_options=GateOptions(samples=2))
    verified = GuardedTransformer(prog.image, cache=SpecializationCache(),
                                  machine_verify=True,
                                  gate_options=GateOptions(samples=2))
    kwargs = dict(name="f.w", ladder=("llvm",))
    bare.transform("f", SIG, **kwargs)
    cold = verified.transform("f", SIG, **kwargs)
    assert cold.result.machine_verdict == "proved"
    assert cold.result.machine_verify_seconds > 0.0

    warm = verified.transform("f", SIG, **kwargs)
    assert warm.result.cache_stage == "machine"
    assert warm.result.machine_verdict == "proved"
    assert warm.result.machine_verify_seconds == 0.0  # verdict served, not re-proved

    b, v, ratios = _pair_stats([
        _pair(lambda: _lap(lambda: bare.transform("f", SIG, **kwargs)),
              lambda: _lap(lambda: verified.transform("f", SIG, **kwargs)),
              i)
        for i in range(rounds)])
    return {"warm_bare_us": b * 1e6,
            "warm_verified_us": v * 1e6,
            "warm_pair_ratios": ratios,
            "warm_overhead": statistics.median(ratios) - 1.0}


def run_all(rounds_cold: int = 20, rounds_warm: int = 60) -> dict:
    out = run_cold(rounds=rounds_cold)
    out.update(run_warm(rounds=rounds_warm))
    return out


def _report_lines(r) -> list[str]:
    return [
        f"cold     bare {r['cold_bare_ms']:7.2f} ms   "
        f"verified {r['cold_verified_ms']:7.2f} ms   "
        f"(median pair {r['cold_overhead']:+.1%}, "
        f"budget {MAX_COLD_OVERHEAD:.0%})",
        f"warm hit bare {r['warm_bare_us']:7.1f} us   "
        f"verified {r['warm_verified_us']:7.1f} us   "
        f"(median pair {r['warm_overhead']:+.1%}, "
        f"verdict served from cache)",
    ]


def test_machine_verify_cost_contract():
    from conftest import record

    r = run_all()
    for line in _report_lines(r):
        record("Machine verification: proof cost contract", line)
    assert r["cold_overhead"] <= MAX_COLD_OVERHEAD, r
    assert r["warm_overhead"] <= MAX_WARM_OVERHEAD, r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="fewer rounds (CI smoke)")
    ap.add_argument("--json", metavar="PATH",
                    help="write the measured numbers as JSON")
    args = ap.parse_args(argv)
    rc, rw = (8, 20) if args.quick else (20, 60)

    r = run_all(rounds_cold=rc, rounds_warm=rw)
    for line in _report_lines(r):
        print(line)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(r, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if r["cold_overhead"] > MAX_COLD_OVERHEAD:
        print(f"FAIL: cold proof overhead {r['cold_overhead']:.1%} exceeds "
              f"{MAX_COLD_OVERHEAD:.0%} of the cold compile")
        return 1
    if r["warm_overhead"] > MAX_WARM_OVERHEAD:
        print("FAIL: warm verdict serving out of contract")
        return 1
    print(f"OK: cold {r['cold_overhead']:+.1%} (budget "
          f"{MAX_COLD_OVERHEAD:.0%}), warm {r['warm_overhead']:+.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
