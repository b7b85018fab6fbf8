"""Tests of the ledger itself (not on the tier-1 path):

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_every_entry_point_binds_and_unbinds():
    import repro.lift
    from repro.cpu import Simulator
    from repro.jit import engine

    lift_function, call = repro.lift.lift_function, Simulator.call
    with spans.tracing(spans.Recorder()) as bound:
        assert repro.lift.lift_function is not lift_function
        # ``from repro.lift import lift_function`` call sites are covered
        assert engine.lift_function is repro.lift.lift_function
        assert Simulator.call is not call
    assert all(n >= 1 for n in bound.values()), bound
    assert len(bound) == len(spans.ENTRY_POINTS)
    assert repro.lift.lift_function is lift_function
    assert engine.lift_function is lift_function
    assert Simulator.call is call


def test_wrappers_are_removed_when_the_traced_block_raises():
    import repro.lift

    original = repro.lift.lift_function
    with pytest.raises(RuntimeError):
        with spans.tracing(spans.Recorder()):
            raise RuntimeError("boom")
    assert repro.lift.lift_function is original


def test_self_time_on_a_three_level_tree():
    # op [0, 10] > a [1, 9] > b [2, 4], b [5, 8]; plus a sibling c [9, 10]
    rec = spans.Recorder()
    rec.ops.append((0, "cell"))
    rec.spans = [
        [spans.OP_LAYER, -1, 0, 0.0, 10.0],
        ["a", 0, 0, 1.0, 9.0],
        ["b", 1, 0, 2.0, 4.0],
        ["b", 1, 0, 5.0, 8.0],
        ["c", 0, 0, 9.0, 10.0],
    ]
    assert spans.self_times(rec.spans) == [1.0, 3.0, 2.0, 3.0, 1.0]
    totals = spans.layer_totals(rec)[0]
    assert totals == {spans.OP_LAYER: [1.0, 1], "a": [3.0, 1],
                      "b": [5.0, 2], "c": [1.0, 1]}
    # self times partition the root span
    assert sum(t[0] for t in totals.values()) == 10.0
    # the same spans before the first timed round are set-up
    assert set(spans.layer_totals(rec, setup_end=5)) == {spans.SETUP_SCOPE}


def test_wrapper_records_nesting_counters_and_survives_exceptions():
    rec = spans.Recorder()
    inner = spans._wrap(rec, spans.Entry("inner", "-", lambda r, *_: {"inner.n": r}),
                        lambda x: x + 1)

    def outer_fn(x):
        if x < 0:
            raise ValueError(x)
        return inner(x)

    outer = spans._wrap(rec, spans.Entry("outer", "-"), outer_fn)
    rec.begin_round(0)
    assert outer(1) == 2
    with pytest.raises(ValueError):
        outer(-1)
    assert [(s[spans.LAYER], s[spans.PARENT]) for s in rec.spans] == [
        ("outer", -1), ("inner", 0), ("outer", -1)]
    assert all(s[spans.T1] >= s[spans.T0] > 0 for s in rec.spans)
    assert rec.counters[0] == {"inner.n": 2}
    assert rec._stack == []


def test_benchmark_json_is_what_the_tables_declare():
    assert BENCHMARK == run.benchmark_json(BENCHMARK["run_seconds"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.COMMON)
    # 21 layers x 2 + 29 counters + 2 set-up scopes + 2 run diagnostics,
    # plus the eight end-to-end metrics only some workloads report
    assert len(spans.LAYERS) == 21 and len(spans.COUNTERS) == 29
    assert len(BENCHMARK["per_layer"]) == 21 * 2 + 29 + 2 + 2 + 8


def test_clock_scales_by_the_calibrations_around_an_operation(monkeypatch):
    import clock

    samples = iter([2e-3, 1e-3, 4e-3])
    monkeypatch.setattr(clock, "calibrate", lambda: next(samples))
    c = clock.Clock()
    op = c.run("cell", lambda: 7)
    assert op.ok and op.result == 7 and op.seconds == 0.0
    # mean kernel time around the op is 1.5 ms: 1.5x slower than reference
    assert c.sync() == pytest.approx(clock.REF_CAL_S / 1.5e-3)
    assert op.seconds == pytest.approx(op.raw_s / 1.5)
    failed = c.run("cell", lambda: 1 / 0)
    assert not failed.ok and "ZeroDivisionError" in failed.error
    c.sync()
    assert len(c.factors) == 2 and c.factors[1] == pytest.approx(1 / 2.5)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_quick_run_emits_exactly_the_declared_metrics(workload):
    res = run.measure(workload, 1, 1, traced=True, setup_reps=1)
    assert res["failed"] == 0 and res["traced_failed"] == 0, res["errors"]

    line = run.driver_line(res, trace=False)
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in line["metrics"].values())

    traced = run.driver_line(res, trace=True)["metrics"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in traced.items()} == declared

    # every end-to-end metric the ledger declares for this workload is there
    for name, (_unit, _better, _bound, on, _clock) in run.END_TO_END.items():
        assert (name in res["metrics"]) == (on is None or workload in on)
    # exact metrics repeat between the untraced and the traced pass
    assert res["traced_exact"] == {
        n: res["metrics"][n]["value"] for n in res["traced_exact"]}
    assert traced["trace.coverage_share"]["value"] >= 0.85
    assert res["rows"] and all("cell" in row for row in res["rows"])
