"""Per-stage time breakdown for a traced run.

Usage::

    python -m repro.obs.report trace.json [--metrics metrics.json]

Reads a Chrome trace-event JSON file produced by
``repro.obs.write_chrome_trace``, rebuilds the span tree from the
``span_id``/``parent_id`` args, computes per-span *self* times (duration
minus direct children) so nothing is double-counted, and buckets them
into the paper's four pipeline stages (Fig. 9/10): decode, lift, O3,
encode.  Time not attributable to a stage (cache glue, span roots) is
reported as "other" so the stage coverage of the wall-clock transform
time is explicit.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["build_breakdown", "format_breakdown", "main"]

#: span-name -> stage.  Prefix match for families like ``o3.pass.*``.
_STAGE_OF = {
    "rewrite.decode": "decode",
    "lift.discover": "decode",
    "lift": "lift",
    "lift.block": "lift",
    "lift.connect": "lift",
    "fixation": "lift",
    "rewrite": "lift",          # worklist/emulation driver self-time
    "rewrite.emulate": "lift",
    "opt": "o3",
    "guard.rung.dbrew+llvm": "other",
    "rewrite.encode": "encode",
    "codegen": "encode",
    "jit.compile": "encode",
    "jit.lower": "encode",
    "jit.install": "encode",
}
_STAGE_PREFIXES = (
    ("o3.pass.", "o3"),
    ("jit.", "encode"),
    ("lift.", "lift"),
    ("instrument.", "instr"),
    ("guard.", "other"),
)
STAGES = ("decode", "lift", "o3", "encode", "instr")

#: top-level spans whose durations define the transform wall-clock.
_ROOTS = ("transform", "rewrite", "guard.transform")


def _stage_of(name: str) -> str:
    stage = _STAGE_OF.get(name)
    if stage is not None:
        return stage
    for prefix, stage in _STAGE_PREFIXES:
        if name.startswith(prefix):
            return stage
    return "other"


def build_breakdown(trace: dict) -> dict:
    """Compute the per-stage self-time breakdown from a trace dict."""
    spans = []  # (span_id, parent_id, name, dur_us)
    for ev in trace.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        sid = args.get("span_id")
        if sid is None:
            continue
        spans.append((sid, args.get("parent_id"), ev["name"],
                      float(ev.get("dur", 0.0))))

    known = {sid for sid, _p, _n, _d in spans}
    child_total: dict[int, float] = {}
    for sid, pid, _name, dur in spans:
        if pid is not None and pid in known:
            child_total[pid] = child_total.get(pid, 0.0) + dur

    stage_us = {s: 0.0 for s in STAGES}
    stage_us["other"] = 0.0
    span_counts: dict[str, int] = {}
    wall_us = 0.0
    for sid, pid, name, dur in spans:
        self_us = max(0.0, dur - child_total.get(sid, 0.0))
        stage_us[_stage_of(name)] += self_us
        span_counts[name] = span_counts.get(name, 0) + 1
        if (pid is None or pid not in known) and (
                name in _ROOTS or name.startswith("guard.transform")):
            wall_us += dur
    if wall_us == 0.0:  # no designated roots: fall back to all top-levels
        wall_us = sum(d for sid, pid, _n, d in spans
                      if pid is None or pid not in known)

    staged_us = sum(stage_us[s] for s in STAGES)
    return {
        "stages_us": stage_us,
        "staged_total_us": staged_us,
        "wall_us": wall_us,
        "coverage": (staged_us / wall_us) if wall_us else 0.0,
        "span_counts": span_counts,
        "n_spans": len(spans),
    }


def format_breakdown(b: dict) -> str:
    lines = []
    wall = b["wall_us"]
    lines.append(f"{'stage':<8} {'time':>12} {'share':>8}")
    for stage in (*STAGES, "other"):
        us = b["stages_us"][stage]
        share = (us / wall * 100.0) if wall else 0.0
        lines.append(f"{stage:<8} {us / 1e3:>10.3f}ms {share:>7.1f}%")
    lines.append("-" * 30)
    lines.append(f"{'staged':<8} {b['staged_total_us'] / 1e3:>10.3f}ms "
                 f"{b['coverage'] * 100.0:>7.1f}%")
    lines.append(f"{'wall':<8} {wall / 1e3:>10.3f}ms   100.0%")
    lines.append(f"\nspans: {b['n_spans']} total")
    for name in sorted(b["span_counts"]):
        lines.append(f"  {name:<24} x{b['span_counts'][name]}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Per-stage time breakdown of a traced pipeline run.")
    ap.add_argument("trace", help="Chrome trace JSON from write_chrome_trace")
    ap.add_argument("--metrics", help="optional metrics snapshot JSON")
    args = ap.parse_args(argv)

    with open(args.trace) as fh:
        trace = json.load(fh)
    print(format_breakdown(build_breakdown(trace)))

    if args.metrics:
        with open(args.metrics) as fh:
            metrics = json.load(fh)
        instr = {n: metrics[n] for n in metrics if n.startswith("instrument.")}
        if instr:
            print("\ninstrumentation:")
            for name in sorted(instr):
                print(f"  {name:<32} {instr[name]}")
        print("\nmetrics:")
        for name in sorted(metrics):
            if name in instr:
                continue
            print(f"  {name:<32} {metrics[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
