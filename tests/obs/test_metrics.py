"""Metrics registry unit tests + the stats-unification contract.

The second half pins the stats records (``CacheStats``, ``GuardStats``,
the scheduler's and the instrumenter's): each is a plain
dataclass held by a registry under a prefix, so one
``registry.snapshot()``/``reset()`` is authoritative and a shared registry
aggregates across owners.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest

import repro.jit.plan as plan_mod
from repro import FunctionSignature, compile_c
from repro.analysis.machine.verifier import REFUTED, VerifyResult
from repro.cache.cache import CacheStats, SpecializationCache
from repro.guard import Budget, GateOptions
from repro.guard.guarded import GuardedTransformer, GuardStats
from repro.instrument.api import InstrumentStats
from repro.ir.passes.schedule import ScheduleStats
from repro.obs.metrics import Counter, MetricsRegistry
from repro.testing import inject_faults
from tests.guard.test_ladder import skew_constants
from tests.guard.test_static_pregate import _poison_ret


# -- primitives -------------------------------------------------------------


def test_counter_basics():
    c = Counter("c")
    c.inc()
    c.inc(4)
    assert int(c) == c.value == 5
    c.reset()
    assert c.value == 0


def test_registry_get_or_create_and_type_mismatch():
    r = MetricsRegistry()
    assert r.counter("x") is r.counter("x")
    with pytest.raises(TypeError):
        r.record("x", _Inner)


@dataclasses.dataclass
class _Inner:
    hits: int = 0


@dataclasses.dataclass
class _Rec:
    n: int = 0
    pass_: int = 0
    served: dict = dataclasses.field(
        default_factory=lambda: {"a": 0, "b": 0})
    inner: _Inner = dataclasses.field(default_factory=_Inner)


def test_record_is_shared_by_prefix_and_resets_in_place():
    r = MetricsRegistry()
    rec = r.record("s", _Rec)
    rec.n += 1
    rec.pass_ += 1
    rec.served["a"] += 2
    rec.served["c"] = 1
    rec.inner.hits += 4
    assert r.record("s", _Rec) is rec, "same registry + prefix => same record"
    with pytest.raises(TypeError):
        r.record("s", _Inner)
    assert r.snapshot() == {"s.n": 1, "s.pass": 1,
                            "s.served": {"a": 2, "b": 0, "c": 1},
                            "s.inner.hits": 4}
    served = rec.served
    r.reset()
    assert r.record("s", _Rec) is rec and rec.served is served
    assert dataclasses.asdict(rec) == {
        "n": 0, "pass_": 0, "served": {"a": 0, "b": 0, "c": 0},
        "inner": {"hits": 0}}, "reset zeroes, keeps keys"


def test_snapshot_and_reset_of_counters():
    r = MetricsRegistry()
    r.counter("n").inc(3)
    assert r.snapshot() == {"n": 3}
    r.reset()
    assert r.snapshot() == {"n": 0}


def test_cache_stats_registry_is_authoritative():
    r = MetricsRegistry()
    stats = r.record("cache", CacheStats)
    stats.invalidations += 2
    stats.stage_hits["machine"] += 1
    stats.negative.hits += 1
    snap = r.snapshot()
    assert snap["cache.invalidations"] == 2
    assert snap["cache.stage_hits"]["machine"] == 1
    assert snap["cache.negative.hits"] == 1
    r.reset()
    assert stats.invalidations == 0 and stats.stage_hits["machine"] == 0
    assert stats.negative.hits == 0


def test_guard_stats_registry_is_authoritative():
    r = MetricsRegistry()
    stats = r.record("guard", GuardStats)
    stats.transforms += 1
    stats.served_by["llvm"] += 1
    stats.gate.pass_ += 1
    snap = r.snapshot()
    assert snap["guard.transforms"] == 1
    assert snap["guard.served_by"]["llvm"] == 1
    assert snap["guard.gate.pass"] == 1
    r.reset()
    assert stats.transforms == 0 and stats.served_by["llvm"] == 0


def test_shared_registry_aggregates_across_instances():
    """Two owners of one registry share the record — how guards handed
    one registry aggregate."""
    r = MetricsRegistry()
    a, b = r.record("guard", GuardStats), r.record("guard", GuardStats)
    a.transforms += 1
    b.transforms += 2
    assert a.transforms == b.transforms == 3
    assert r.snapshot()["guard.transforms"] == 3


def test_private_registries_stay_isolated():
    a = MetricsRegistry().record("guard", GuardStats)
    b = MetricsRegistry().record("guard", GuardStats)
    a.transforms += 5
    assert b.transforms == 0


_PER_STAGE = {"lifted": 0, "machine": 0, "module": 0, "rewrite": 0}
_PER_RUNG = {"dbrew+llvm": 0, "llvm": 0, "llvm-fix": 0, "original": 0}

#: a fresh record's snapshot under prefix ``p``: the cache, guard and
#: scheduler names are the ones their counters had before they became
#: records; the instrumenter's two refusal counters are now ``rejected``
_FRESH = {
    CacheStats: {
        "p.invalidations": 0, "p.negative.hits": 0,
        "p.negative.misses": 0, "p.negative.stores": 0,
        "p.stage_hits": _PER_STAGE, "p.stage_misses": _PER_STAGE,
        "p.stores": 0, "p.transform_hits": 0, "p.transforms": 0},
    GuardStats: {
        "p.budget_exceeded": 0, "p.failures": _PER_RUNG, "p.fallbacks": 0,
        "p.gate.pass": 0, "p.gate.vacuous": 0, "p.machine_rejections": 0,
        "p.negative_served": 0, "p.served_by": _PER_RUNG,
        "p.static_rejections": 0, "p.static_skip_reasons": {},
        "p.transforms": 0, "p.verification_rejections": 0},
    ScheduleStats: {"p.runs": {}, "p.skips": {}},
    InstrumentStats: {
        "p.installs": 0,
        "p.probes": {"call": 0, "edge": 0, "mem": 0, "watch": 0},
        "p.rejected": {"machine-verify": 0, "static-verify": 0}},
}


@pytest.mark.parametrize("cls", list(_FRESH), ids=lambda c: c.__name__)
def test_each_record_snapshots_exactly_its_fields(cls):
    r = MetricsRegistry()
    r.record("p", cls)
    assert r.snapshot() == _FRESH[cls]


def test_stats_reset_is_the_registrys_alone():
    """A guard and a cache sharing one registry: no record has a reset of
    its own, and only ``registry.reset()`` zeroes the cache's counters."""
    prog = compile_c("long f(long a, long b) { return a * b + 1; }")
    r = MetricsRegistry()
    cache = SpecializationCache(registry=r)
    guard = GuardedTransformer(prog.image, cache=cache, registry=r)
    guard.transform("f", FunctionSignature(("i", "i"), "i"), {1: 3},
                    probes=[(4,)])
    stores = cache.stats.stores
    assert stores > 0 and guard.stats.transforms == 1
    assert SpecializationCache(registry=r).stats is cache.stats, \
        "shared by prefix"
    for stats in (guard.stats, cache.stats):
        assert not [m for m in dir(stats) if "reset" in m]
    assert cache.stats.stores == stores
    r.reset()
    assert cache.stats.stores == 0 and guard.stats.transforms == 0


def test_specialization_cache_flight_counters_in_registry():
    cache = SpecializationCache()
    cache.flights.run("k", lambda: 1)
    snap = cache.registry.snapshot()
    assert snap["cache.flight.led"] == 1
    assert cache.flights.led == 1, "legacy property reads the same counter"


# -- the guard's fold ---------------------------------------------------------


#: one fault per rung: the static pre-gate, the machine verifier and the
#: dynamic gate each reject that rung's candidate
_RUNG_FAULTS = {
    "dbrew+llvm": lambda: inject_faults("pass:dce", every=True,
                                        corrupt=_poison_ret),
    "llvm-fix": lambda: mock.patch.object(
        plan_mod, "verify_emitted",
        lambda jit, name: VerifyResult(verdict=REFUTED)),
    "llvm": lambda: inject_faults("opt", every=True, corrupt=skew_constants),
}

#: ``guard.*`` after the scenario below, as the inline counters of the
#: ladder loop counted it before the fold (less ``guard.gate.reject``,
#: which counted the same event as ``guard.verification_rejections``)
_LADDER_COUNTS = {
    "guard.budget_exceeded": 1,
    "guard.failures": {"dbrew+llvm": 2, "llvm-fix": 1, "llvm": 1,
                       "original": 0},
    "guard.fallbacks": 2,
    "guard.gate.pass": 1,
    "guard.gate.vacuous": 0,
    "guard.machine_rejections": 1,
    "guard.negative_served": 3,
    "guard.served_by": {"dbrew+llvm": 0, "llvm-fix": 1, "llvm": 0,
                        "original": 2},
    "guard.static_rejections": 1,
    "guard.static_skip_reasons": {"undef-use": 1},
    "guard.transforms": 3,
    "guard.verification_rejections": 1,
}


def test_ladder_fold_counts_every_kind_of_failure():
    """Static-verify, machine-verify and gate rejections, then the same
    request served from quarantine, then a budget failure on a second
    guard sharing the registry: the fold of each ``GuardResult`` counts
    what the ladder's inline bumps counted."""
    sig = FunctionSignature(("i", "i"), "i")
    prog = compile_c("long f(long a, long b) { return a * b + 7; }")
    r = MetricsRegistry()
    kw = dict(cache=SpecializationCache(registry=r), registry=r,
              machine_verify=True, gate_options=GateOptions(samples=2))
    guard = GuardedTransformer(prog.image, **kw)
    run = guard.pipeline.run

    def faulty_run(plan, *args, **kwargs):
        with _RUNG_FAULTS[plan.rung]():
            return run(plan, *args, **kwargs)

    guard.pipeline.run = faulty_run
    out = [guard.transform("f", sig, {1: 6}, probes=[(3,)])
           for _ in range(2)]
    starved = GuardedTransformer(
        prog.image, budget=Budget(max_lift_instructions=1), **kw)
    out.append(starved.transform("f", sig, {1: 5}, probes=[(3,)]))

    assert [[(a.rung, a.error_type, a.context.get("stage"), a.quarantined)
             for a in res.attempts] for res in out] == [
        [("dbrew+llvm", "VerificationError", "static-verify", False),
         ("llvm-fix", "VerificationError", "machine-verify", False),
         ("llvm", "VerificationError", "verify", False),
         ("original", None, None, False)],
        [("dbrew+llvm", "Quarantined", "static-verify", True),
         ("llvm-fix", "Quarantined", "machine-verify", True),
         ("llvm", "Quarantined", "verify", True),
         ("original", None, None, False)],
        [("dbrew+llvm", "BudgetExceededError", "lift", False),
         ("llvm-fix", None, None, False)]]
    assert {k: v for k, v in r.snapshot().items()
            if k.startswith("guard.")} == _LADDER_COUNTS
