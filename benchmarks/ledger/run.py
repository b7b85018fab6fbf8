"""One performance ledger: five workloads, two clocks, per-layer spans.

    PYTHONPATH=src python benchmarks/ledger/run.py \\
        [--workload W] [--seed S] [--traced] [--json OUT] [--quick]

runs each workload in its own fresh single-threaded subprocess, prints
every metric by name with its unit and checks every output against a
reference that is not the compiler under test.  End-to-end numbers come
from an untraced pass with no wrapper installed; ``--traced`` adds a
second pass under :mod:`spans` for the per-layer numbers, and the
difference between the two is the tracing overhead.  *Host* numbers are
Python wall clock of the toolchain; *simulated* numbers are cycles of the
emitted code on the modelled CPU.  See README.md next to this file.

Self-checks: ``--check-determinism`` (exact metrics and counters repeat
across processes) and ``--repeat N`` (run-to-run spread of every metric).

The benchmark driver calls ``run.py --workload W --seed N --seconds T
--trace 0|1`` and reads the JSON object on the last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any

import spans  # needs nothing of repro until tracing() is entered

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

WORKLOAD_NAMES = ("compile_cold", "verified_install", "warm_respec",
                  "sim_sweeps", "corpus_sweep")

#: name -> (unit, better, regression bound, workloads reporting it or None
#: for all, clock).  The first four are what the benchmark driver compares;
#: ``failed_share`` reaches it as ``failed``/``attempted``.
END_TO_END: dict[str, tuple[str, str, float, tuple[str, ...] | None, str]] = {
    "setup_s": ("s", "lower", 0.25, None, "host"),
    "round_s_p50": ("s", "lower", 0.20, None, "host"),
    "ops_per_s": ("1/s", "higher", 0.20, None, "host"),
    "peak_rss_mb": ("MB", "lower", 0.10, None, "host"),
    "failed_share": ("share", "lower", 0.0, None, "-"),
    "code_bytes_total": ("bytes", "lower", 0.0, ("compile_cold",), "-"),
    "sim_cycles_per_cell_gmean": ("cycles/cell", "lower", 0.0,
                                  ("sim_sweeps",), "simulated"),
    "sim_insns_per_s": ("1/s", "higher", 0.08, ("sim_sweeps",), "host"),
    "verified_share": ("share", "higher", 0.0, ("verified_install",), "-"),
    "hit_share": ("share", "higher", 0.0, ("warm_respec",), "-"),
    "hit_us_p50": ("us", "lower", 0.10, ("warm_respec",), "host"),
    "miss_ms_p50": ("ms", "lower", 0.10, ("warm_respec",), "host"),
}
#: what every workload reports: the driver's ``end_to_end`` set
COMMON = ("setup_s", "round_s_p50", "ops_per_s", "peak_rss_mb")
#: metrics and counters that must repeat exactly
EXACT = tuple(n for n, spec in END_TO_END.items() if spec[2] == 0.0)


#: per-layer metrics where more is better (everything else: less)
HIGHER_IS_BETTER = frozenset({
    "cache.machine_hits", "cache.lifted_hits", "cache.rewrite_hits",
    "ir.passes.pass_skips", "guard.gate.conclusive",
    "analysis.machine.proved", "trace.coverage_share",
})


def per_layer_names() -> list[str]:
    """Everything a ``--trace 1`` run reports, in BENCHMARK.json order."""
    names = [f"{layer}.{field}" for layer in spans.LAYERS
             for field in ("self_s", "calls")]
    names += spans.COUNTERS
    names += ["setup.cc_self_s", "setup.stencil_self_s",
              "trace.coverage_share", "trace.overhead_share"]
    return names + [n for n in END_TO_END if n not in COMMON]


def _unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    return "s" if name.endswith("_s") else \
        "share" if name.endswith("_share") else "count"


def benchmark_json(run_seconds: int = 12) -> dict[str, Any]:
    """The driver's contract file, from the tables above
    (``run.py --benchmark-json > BENCHMARK.json`` regenerates it)."""
    from workloads import WORKLOADS

    def better(name: str) -> str:
        if name in END_TO_END:
            return END_TO_END[name][1]
        return "higher" if name in HIGHER_IS_BETTER else "lower"

    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": WORKLOADS[n].why}
                      for n in WORKLOAD_NAMES],
        "end_to_end": [
            {"name": n, "unit": END_TO_END[n][0], "better": END_TO_END[n][1],
             "bound": END_TO_END[n][2]} for n in COMMON],
        "per_layer": [{"name": n, "unit": _unit_of(n), "better": better(n)}
                      for n in per_layer_names()],
    }


# -- the worker: one workload, one process ---------------------------------------


def worker(args: argparse.Namespace) -> int:
    t0 = perf_counter()
    from clock import REF_CAL_S, Clock
    from workloads import WORKLOADS, quartiles
    import_raw = perf_counter() - t0

    rec = spans.Recorder() if args.traced else None
    clock = Clock(rec)
    import_s = import_raw * REF_CAL_S / clock.samples[0]
    with spans.tracing(rec) if rec is not None else nullcontext():
        setups = []
        for _ in range(args.setup_reps):
            gc.collect()
            clock.sync()
            first, spent, t = len(clock.samples) - 1, clock.spent_s, perf_counter()
            wl = WORKLOADS[args.workload](args.seed, clock)
            wl.setup()
            raw = perf_counter() - t
            clock.sync()
            speed = REF_CAL_S / statistics.median(clock.samples[first:])
            setups.append((raw - (clock.spent_s - spent)) * speed)
        setup_end = len(rec.spans) if rec is not None else 0
        rounds = []
        for index in range(args.rounds):
            gc.collect()
            if rec is not None:
                rec.begin_round(index)
            rounds.append(wl.round(index))
            clock.sync()
            if rec is not None:
                rec.end_round()
        summary = wl.finish(rounds)
        clock.sync()

    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if not op.ok]
    round_s = [sum(op.seconds for op in r) for r in rounds]
    raw_s = sum(op.raw_s for op in ops)
    rq = quartiles(round_s)
    metrics: dict[str, dict[str, Any]] = {
        "setup_s": _metric(
            import_s + statistics.median(setups), "s",
            f"import {import_s:.3f} + median of {len(setups)} set-ups "
            f"(first {setups[0]:.3f})"),
        "round_s_p50": _metric(
            rq["p50"], "s",
            f"p25={rq['p25']:.4f} p75={rq['p75']:.4f} n={rq['n']}"),
        "ops_per_s": _metric(
            (len(ops) - len(failed)) / sum(round_s), "1/s",
            f"{len(ops) - len(failed)} correct ops / {sum(round_s):.3f} s "
            f"({raw_s:.3f} s raw wall)"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
            "ru_maxrss at exit"),
        "failed_share": _metric(len(failed) / len(ops), "share",
                                f"{len(failed)}/{len(ops)} ops"),
    }
    for name, (value, unit, note) in summary.metrics.items():
        metrics[name] = _metric(value, unit, note)

    cal = quartiles(clock.samples)
    result: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "rounds": args.rounds,
        "traced": args.traced, "attempted": len(ops), "failed": len(failed),
        "errors": [f"{op.cell}: {op.error}" for op in failed[:5]],
        "metrics": metrics,
        "aggregates": summary.aggregates, "rows": summary.rows,
        "host_speed": {
            "ref_cal_ms": 1e3 * REF_CAL_S, "cal_ms_p50": 1e3 * cal["p50"],
            "cal_ms_p25": 1e3 * cal["p25"], "cal_ms_p75": 1e3 * cal["p75"],
            "samples": cal["n"], "timed_raw_s": raw_s,
            "timed_s": sum(round_s)},
    }
    if rec is not None:
        result["layers"] = _layer_metrics(rec, setup_end, round_s,
                                          clock.factors)
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"fields": ["layer", "parent", "op", "t0", "t1"],
                 "ops": rec.ops, "op_speed_factors": clock.factors,
                 "spans": rec.spans}))
    print(json.dumps(result))
    return 0


def _metric(value: float, unit: str, note: str = "") -> dict[str, Any]:
    return {"value": value, "unit": unit, "note": note}


def _layer_metrics(rec: Any, setup_end: int, round_s: list[float],
                   factors: list[float]) -> dict[str, dict[str, Any]]:
    totals = spans.layer_totals(rec, setup_end, factors)
    timed = [totals.get(r, {}) for r in range(len(round_s))]
    out: dict[str, dict[str, Any]] = {}
    covered = 0.0
    for layer in spans.LAYERS:
        selfs = [t.get(layer, (0.0, 0))[0] for t in timed]
        calls = [t.get(layer, (0.0, 0))[1] for t in timed]
        covered += sum(selfs)
        out[f"{layer}.self_s"] = _metric(statistics.median(selfs), "s")
        out[f"{layer}.calls"] = _metric(statistics.median(calls), "count")
    for name in spans.COUNTERS:
        per_round = [rec.counters.get(r, {}).get(name, 0)
                     for r in range(len(round_s))]
        out[name] = _metric(statistics.median(per_round), "count")
    in_setup = totals.get(spans.SETUP_SCOPE, {})
    for layer in ("cc", "stencil"):
        out[f"setup.{layer}_self_s"] = _metric(
            in_setup.get(layer, (0.0, 0))[0], "s")
    out["trace.coverage_share"] = _metric(
        covered / sum(round_s), "share",
        f"{covered:.3f} s in layers / {sum(round_s):.3f} s traced rounds")
    return out


# -- the parent: orchestration and printing ----------------------------------------


def run_worker(workload: str, seed: int, rounds: int, *, traced: bool,
               setup_reps: int, spans_out: str | None = None) -> dict[str, Any]:
    cmd = [sys.executable, str(HERE / "run.py"), "--worker",
           "--workload", workload, "--seed", str(seed),
           "--rounds", str(rounds), "--setup-reps", str(setup_reps)]
    if traced:
        cmd.append("--traced")
    if spans_out:
        cmd += ["--spans", spans_out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one thread, and set/dict iteration that repeats across processes
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"ledger: worker for {workload} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, rounds: int, *, traced: bool,
            setup_reps: int = 2, traced_rounds: int | None = None,
            spans_dir: str | None = None) -> dict[str, Any]:
    """The untraced pass, then (``traced``) the traced one; returns the
    untraced result with ``layers`` and the overhead added."""
    result = run_worker(workload, seed, rounds, traced=False,
                        setup_reps=setup_reps)
    if traced:
        spans_out = None
        if spans_dir:
            Path(spans_dir).mkdir(parents=True, exist_ok=True)
            spans_out = str(Path(spans_dir) / f"{workload}.spans.json")
        n = traced_rounds if traced_rounds is not None else math.ceil(rounds / 3)
        tr = run_worker(workload, seed, n, traced=True, setup_reps=1,
                        spans_out=spans_out)
        layers = tr["layers"]
        base = result["metrics"]["round_s_p50"]["value"]
        with_trace = tr["metrics"]["round_s_p50"]["value"]
        layers["trace.overhead_share"] = _metric(
            with_trace / base - 1, "share",
            f"traced {with_trace:.4f} s / untraced {base:.4f} s - 1")
        result["layers"] = layers
        result["traced_rounds"] = n
        result["traced_round_s_p50"] = with_trace
        result["traced_failed"] = tr["failed"]
        result["traced_exact"] = {name: m["value"]
                                  for name, m in tr["metrics"].items()
                                  if name in EXACT}
    return result


def print_result(res: dict[str, Any]) -> None:
    print(f"\n== {res['workload']}  seed {res['seed']}, {res['rounds']} timed "
          f"rounds, {res['attempted']} ops, {res['failed']} failed")
    for name, (unit, better, bound, _on, clock) in END_TO_END.items():
        m = res["metrics"].get(name)
        if m is None:
            continue
        print(f"  {name:27s}{m['value']:>14.6g} {unit:12s}"
              f"[{clock}; {better} is better; bound {bound:.0%}]  {m['note']}")
    hs = res["host_speed"]
    print(f"  host speed: calibration kernel {hs['cal_ms_p50']:.3f} ms "
          f"(p25 {hs['cal_ms_p25']:.3f}, p75 {hs['cal_ms_p75']:.3f}, "
          f"n={hs['samples']}) against the reference {hs['ref_cal_ms']:.3f} "
          f"ms; timed ops took {hs['timed_raw_s']:.3f} s raw wall = "
          f"{hs['timed_s']:.3f} s at reference speed")
    for err in res["errors"]:
        print(f"  FAILED {err}")
    for name, (value, unit, note) in res["aggregates"].items():
        print(f"  ~ {name:25s}{value:>14.6g} {unit:12s}{note}")
    layers = res.get("layers")
    if not layers:
        return
    wall = res["traced_round_s_p50"]
    print(f"  -- traced pass: {res['traced_rounds']} rounds, host clock, "
          f"median round {wall:.4f} s")
    ranked = sorted(spans.LAYERS, key=lambda l: -layers[f"{l}.self_s"]["value"])
    for layer in ranked:
        self_s = layers[f"{layer}.self_s"]["value"]
        calls = layers[f"{layer}.calls"]["value"]
        if not calls:
            continue
        print(f"  {layer + '.self_s':27s}{self_s:>14.6f} s  "
              f"{self_s / wall:6.1%} of the round  {calls:>10.0f} calls")
    idle = [l for l in ranked if not layers[f"{l}.calls"]["value"]]
    print(f"  0 calls: {', '.join(idle) or '-'}")
    for name in spans.COUNTERS:
        if layers[name]["value"]:
            print(f"  {name:27s}{layers[name]['value']:>14.6g} count")
    for name in ("setup.cc_self_s", "setup.stencil_self_s",
                 "trace.coverage_share", "trace.overhead_share"):
        m = layers[name]
        print(f"  {name:27s}{m['value']:>14.6g} {m['unit']:6s}{m['note']}")


def failures(res: dict[str, Any]) -> int:
    return res["failed"] + res.get("traced_failed", 0)


def driver_line(res: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The contract's result object: the common end-to-end metrics, or with
    tracing every per-layer one (0 where a workload does not report it)."""
    if not trace:
        metrics = {n: res["metrics"][n] for n in COMMON}
    else:
        have = {**res["metrics"], **res["layers"]}
        metrics = {n: have.get(n, _metric(0, _unit_of(n)))
                   for n in per_layer_names()}
    return {
        "correct": failures(res) == 0,
        "attempted": res["attempted"], "failed": failures(res),
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    }


def check_determinism(names: list[str], seed: int) -> int:
    """Each workload's first timed round, twice, in separate processes."""
    def exact(res: dict[str, Any]) -> dict[str, float]:
        return {
            **{n: m["value"] for n, m in res["metrics"].items() if n in EXACT},
            **{n: m["value"] for n, m in res["layers"].items()
               if m["unit"] == "count"}}

    bad = 0
    for name in names:
        ea, eb = (exact(run_worker(name, seed, 1, traced=True, setup_reps=1))
                  for _ in range(2))
        diff = sorted(n for n in ea if ea[n] != eb[n])
        print(f"{name}: {len(ea)} exact metrics and counters, "
              f"{len(diff)} differ")
        for n in diff:
            print(f"  {n}: {ea[n]!r} != {eb[n]!r}")
        bad += len(diff)
    return 1 if bad else 0


def print_spread(runs: list[dict[str, dict[str, Any]]]) -> None:
    print(f"\n== spread over {len(runs)} repeats: (max - min) / median")
    for workload in runs[0]:
        for name in END_TO_END:
            values = [r[workload]["metrics"][name]["value"] for r in runs
                      if name in r[workload]["metrics"]]
            if not values:
                continue
            med = statistics.median(values)
            spread = (max(values) - min(values)) / med if med else 0.0
            print(f"  {workload:17s}{name:27s}median {med:>12.6g}  "
                  f"spread {spread:7.2%}  bound {END_TO_END[name][2]:.0%}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                    help="run only this workload (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true",
                    help="add the traced pass (per-layer metrics)")
    ap.add_argument("--json", metavar="OUT", help="write the ledger as JSON")
    ap.add_argument("--spans", metavar="DIR",
                    help="with --traced: write the raw spans per workload")
    ap.add_argument("--quick", action="store_true",
                    help="one timed round per workload (smoke)")
    ap.add_argument("--check-determinism", action="store_true")
    ap.add_argument("--repeat", type=int, default=1, metavar="N")
    ap.add_argument("--benchmark-json", action="store_true",
                    help="print the BENCHMARK.json these tables declare")
    ap.add_argument("--seconds", type=float,
                    help="driver: measure about this long (one workload)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="driver: 1 reports the per-layer metrics")
    # internal: the per-workload subprocess
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--setup-reps", type=int, default=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        args.workload = args.workload[0]
        return worker(args)
    if not (SRC / "repro").is_dir():
        print(f"ledger: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOAD_NAMES)
    if args.benchmark_json:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if args.check_determinism:
        return check_determinism(names, args.seed)

    if args.seconds is not None:
        if len(names) != 1:
            ap.error("--seconds takes exactly one --workload")
        cls = WORKLOADS[names[0]]
        # a fixed number of rounds, not a deadline: the same work, and so
        # the same counts, on every run of one --seconds value
        rounds = max(2, int(args.seconds / cls.nominal_round_s))
        if args.trace:
            half = max(1, rounds // 2)
            res = measure(names[0], args.seed, half, traced=True,
                          setup_reps=1, traced_rounds=half)
        else:
            res = measure(names[0], args.seed, rounds, traced=False)
        print_result(res)
        print(json.dumps(driver_line(res, bool(args.trace))))
        return 1 if failures(res) else 0

    runs = []
    for _ in range(args.repeat):
        ledger = {}
        for name in names:
            rounds = 1 if args.quick else WORKLOADS[name].ledger_rounds
            ledger[name] = measure(name, args.seed, rounds, traced=args.traced,
                                   spans_dir=args.spans)
            print_result(ledger[name])
        runs.append(ledger)
    if args.repeat > 1:
        print_spread(runs)
    if args.json:
        Path(args.json).write_text(json.dumps({
            "seed": args.seed,
            "end_to_end": {n: dict(zip(
                ("unit", "better", "bound", "workloads", "clock"), spec))
                for n, spec in END_TO_END.items()},
            "workloads": {n: dict(r, why=WORKLOADS[n].why)
                          for n, r in runs[-1].items()},
            "claim": None,
        }, indent=1))
    return 1 if any(failures(r) for ledger in runs
                    for r in ledger.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
