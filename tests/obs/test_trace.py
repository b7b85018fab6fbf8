"""Tracer unit tests: nesting, export, report."""

from __future__ import annotations

import json

from repro.obs import Tracer, trace_to_chrome
from repro.obs.export import metrics_to_json, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_breakdown, format_breakdown, main


class FakeClock:
    """Deterministic clock: each read advances by ``tick`` seconds."""

    def __init__(self, tick: float = 1e-3) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


def test_disabled_tracer_records_nothing():
    tr = Tracer()
    assert not tr.enabled
    with tr.span("x") as s:
        assert s is None
    tr.instant("ev")
    assert tr.spans == [] and tr.events == []


def test_span_nesting_and_parent_ids():
    tr = Tracer()
    tr.enable()
    with tr.span("outer") as outer:
        assert tr.current() is outer
        with tr.span("inner") as inner:
            assert inner.parent_id == outer.span_id
        with tr.span("inner2") as inner2:
            assert inner2.parent_id == outer.span_id
    assert outer.parent_id is None
    assert tr.current() is None
    assert [s.name for s in tr.spans] == ["inner", "inner2", "outer"]
    assert all(s.duration > 0 for s in tr.spans)


def test_start_finish_attrs_and_clear():
    tr = Tracer()
    tr.enable()
    s = tr.start("work", {"k": 7})
    tr.finish(s)
    assert tr.spans[0].attrs == {"k": 7}
    tr.clear()
    assert tr.spans == [] and tr.events == []
    s2 = tr.start("again")
    tr.finish(s2)
    assert s2.span_id == 1, "clear() restarts span ids"


def test_max_spans_cap():
    tr = Tracer(max_spans=2)
    tr.enable()
    for i in range(5):
        tr.finish(tr.start(f"s{i}"))
    assert len(tr.spans) == 2


def test_instant_events_recorded_only_when_enabled():
    tr = Tracer()
    tr.instant("off")
    tr.enable()
    tr.instant("on", {"tier": 2})
    assert [e[0] for e in tr.events] == ["on"]
    assert tr.events[0][3] == {"tier": 2}


# -- export -----------------------------------------------------------------


def test_chrome_export_shape(tmp_path):
    tr = Tracer(clock=FakeClock())
    tr.enable()
    with tr.span("outer", {"addr": 1}):
        with tr.span("inner"):
            pass
        tr.instant("mark", {"x": 1})
    open_span = tr.start("never-finished")  # still open at export time
    doc = trace_to_chrome(tr)
    tr.finish(open_span)  # close it afterwards: the context var is global
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["name"] for e in complete} == {"outer", "inner"}
    assert [e["name"] for e in instants] == ["mark"]
    for e in complete:
        assert e["dur"] > 0 and e["ts"] >= 0
        assert "span_id" in e["args"]
    outer = next(e for e in complete if e["name"] == "outer")
    inner = next(e for e in complete if e["name"] == "inner")
    assert inner["args"]["parent_id"] == outer["args"]["span_id"]
    assert "never-finished" not in {e["name"] for e in events}
    # round-trips through json and the file writer
    path = tmp_path / "trace.json"
    write_chrome_trace(path, tr)
    assert json.loads(path.read_text())["traceEvents"]


def test_metrics_to_json_uses_registry():
    r = MetricsRegistry()
    r.counter("a").inc(3)
    assert metrics_to_json(r)["a"] == 3


# -- report -----------------------------------------------------------------


def _synthetic_trace() -> dict:
    """transform(10 ticks of children + overhead) with staged children."""
    tr = Tracer(clock=FakeClock(tick=1.0))
    tr.enable()
    with tr.span("transform"):
        with tr.span("lift"):
            with tr.span("lift.block"):
                pass
        with tr.span("o3.pass.gvn"):
            pass
        with tr.span("jit.compile"):
            with tr.span("jit.lower"):
                pass
    return trace_to_chrome(tr)


def test_build_breakdown_buckets_and_coverage():
    b = build_breakdown(_synthetic_trace())
    assert set(b["stages_us"]) >= {"lift", "o3", "encode"}
    # every staged span's self-time lands in exactly one bucket and the
    # totals never exceed the wall clock of the root span
    assert b["staged_total_us"] <= b["wall_us"] + 1e-6
    assert 0.0 < b["coverage"] <= 1.0
    assert b["stages_us"]["o3"] > 0
    assert b["stages_us"]["encode"] > 0
    assert b["span_counts"]["o3.pass.gvn"] == 1


def test_format_breakdown_mentions_stages():
    text = format_breakdown(build_breakdown(_synthetic_trace()))
    for word in ("decode", "lift", "o3", "encode", "wall"):
        assert word in text


def test_report_cli(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(_synthetic_trace()))
    mpath = tmp_path / "metrics.json"
    mpath.write_text(json.dumps({"cache.stores": 2}))
    assert main([str(path), "--metrics", str(mpath)]) == 0
    out = capsys.readouterr().out
    assert "o3" in out and "cache.stores" in out
