"""Span-context propagation across the process boundary (satellite 2).

Unit level: ``export_records``/``merge_records`` remap ids, re-root
orphans, stamp the origin pid and translate clock domains through the
shared wall clock.  End to end: a traced engine run over the farm yields
ONE client-side trace in which the worker's ``farm.job`` span nests under
the dispatch-site ``tier.compile`` span.
"""

from __future__ import annotations

import os
import time

from repro import FarmClient, FarmPool, FunctionSignature, TieredEngine, \
    compile_c
from repro.obs import trace_to_chrome
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACER, Tracer
from repro.tier import T1, TierPolicy
from tests.farm.conftest import SRC


def test_merge_remaps_ids_and_reroots():
    remote = Tracer()
    remote.enable()
    parent = remote.start("remote.outer")
    child = remote.start("remote.inner")
    remote.finish(child)
    remote.finish(parent)
    batch = remote.export_records()

    local = Tracer()
    local.enable()
    root = local.start("local.dispatch")
    local.finish(root)
    idmap = local.merge_records(batch, root_parent=root.span_id)

    by_name = {s.name: s for s in local.spans}
    outer, inner = by_name["remote.outer"], by_name["remote.inner"]
    # fresh local ids (both tracers count from 1: raw ids would collide)
    assert outer.span_id != parent.span_id or root.span_id != parent.span_id
    assert {outer.span_id, inner.span_id}.isdisjoint({root.span_id})
    # batch-internal edges survive the remap; orphans hang off root_parent
    assert inner.parent_id == outer.span_id
    assert outer.parent_id == root.span_id
    assert idmap[parent.span_id] == outer.span_id
    # the batch's origin pid is stamped on every imported span
    assert outer.attrs["pid"] == os.getpid()
    assert inner.attrs["pid"] == os.getpid()


def test_merge_translates_clock_domains():
    # two deliberately unrelated clock epochs sharing one wall clock —
    # exactly the perf_counter situation across processes
    remote = Tracer(clock=lambda: time.time() - 1000.0)
    remote.enable()
    span = remote.start("work")
    remote.finish(span)
    batch = remote.export_records()

    local = Tracer(clock=lambda: time.time() - 5.0)
    local.enable()
    local.merge_records(batch)
    merged = local.spans[0]
    # the span maps to the same wall instant, expressed in local clock
    # units: local_t = remote_t + (1000 - 5), up to wall-sampling skew
    assert abs((merged.t0 - span.t0) - 995.0) < 0.5
    assert abs(merged.duration - span.duration) < 0.5


def test_export_window_and_open_span_skip():
    tr = Tracer()
    tr.enable()
    old = tr.start("before-mark")
    tr.finish(old)
    mark = tr.mark()
    still_open = tr.start("open")
    done = tr.start("after-mark")
    tr.finish(done)
    tr.instant("tick", {"n": 1})
    batch = tr.export_records(mark)
    names = [rec[0] for rec in batch["spans"]]
    assert names == ["after-mark"]  # windowed, and the open span skipped
    assert [e[0] for e in batch["events"]] == ["tick"]
    tr.finish(still_open)


def test_farm_trace_nests_worker_spans_under_dispatch(tmp_path):
    prog = compile_c(SRC)
    pool = FarmPool(workers=1, disk_dir=str(tmp_path / "farm"),
                    registry=MetricsRegistry())
    client = FarmClient(pool, registry=MetricsRegistry())
    TRACER.clear()
    TRACER.enable()
    try:
        with TieredEngine(prog.image, farm=client,
                          policy=TierPolicy(promote_calls=(4, 12)),
                          farm_timeout=120.0) as eng:
            h = eng.register("f", FunctionSignature(("i", "i"), "i"),
                             fixes={1: 3})
            deadline = time.monotonic() + 120
            while h.tier < T1 and time.monotonic() < deadline:
                h.address()
                time.sleep(0.005)
            eng.drain(timeout=120)
            assert eng.stats.farm.jobs >= 1
            assert eng.stats.installs[T1] == 1
    finally:
        TRACER.disable()
        pool.close()

    spans = {s.span_id: s for s in TRACER.spans}
    farm_jobs = [s for s in TRACER.spans if s.name == "farm.job"]
    assert farm_jobs, [s.name for s in TRACER.spans]
    job_span = farm_jobs[0]
    # the worker runs in another process (fork or spawn alike)
    assert job_span.attrs["pid"] != os.getpid()
    # ... yet its span nests under the client-side dispatch-site span
    assert job_span.parent_id in spans
    assert spans[job_span.parent_id].name == "tier.compile"
    # and its (translated) timestamps land inside the parent's window,
    # up to wall/perf sampling skew on either anchor
    parent = spans[job_span.parent_id]
    assert parent.t0 - 0.1 <= job_span.t0 <= parent.t1 + 0.1

    # the merged tree exports as one Chrome trace
    chrome = trace_to_chrome(TRACER)
    names = {ev.get("name") for ev in chrome["traceEvents"]}
    assert "farm.job" in names and "tier.compile" in names
    TRACER.clear()
