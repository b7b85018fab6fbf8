"""One record per guarded request: the served rung is the pipeline's result.

A :class:`~repro.guard.GuardResult` holds the serving rung's
:class:`~repro.jit.plan.TransformResult` and one
:class:`~repro.guard.RungAttempt` for each rung that did not serve — it
failed, or a fresh quarantine entry skipped it.  The warm path builds no
attempt at all, and the gate report and the blamed pass are read from the
result.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.analysis import PassValidator
from repro.cache import SpecializationCache
from repro.cc import compile_c
from repro.guard import GateOptions, GuardedTransformer, RungAttempt
from repro.guard import guarded
from repro.lift import FunctionSignature
from repro.testing import inject_faults
from tests.analysis.test_validate_once import CORRUPTIONS, Miscompile

SIG = FunctionSignature(("i", "i"), "i")
SRC = "long f(long a, long b) { return a * b + 7; }"


def _guard(**kw) -> GuardedTransformer:
    kw.setdefault("cache", SpecializationCache())
    return GuardedTransformer(compile_c(SRC).image,
                              gate_options=GateOptions(samples=2), **kw)


def test_a_warm_gated_hit_builds_no_attempt(monkeypatch):
    g = _guard(machine_verify=True)
    cold = g.transform("f", SIG, {1: 6}, probes=[(3,)], ladder=("llvm-fix",))
    assert cold.mode == "llvm-fix" and cold.verified

    made = []

    class Counted(RungAttempt):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(guarded, "RungAttempt", Counted)
    warm = g.transform("f", SIG, {1: 6}, probes=[(3,)], ladder=("llvm-fix",))
    assert made == []
    assert warm.mode == "llvm-fix" and warm.attempts == []
    assert warm.result.cache_stage == "machine"
    assert warm.gate is None and not warm.verified


def test_a_quarantined_rung_is_still_recorded():
    g = _guard()
    with inject_faults("rewrite", every=True):
        g.transform("f", SIG, {1: 6}, probes=[(3,)])
    r = g.transform("f", SIG, {1: 6}, probes=[(3,)])
    skipped, = r.attempts
    assert r.mode == "llvm-fix"
    assert skipped.rung == "dbrew+llvm"
    assert skipped.quarantined and not skipped.ok
    assert skipped.error_type == "Quarantined"


def test_a_rebuilt_rung_names_its_pass_on_the_result():
    g = _guard(validator=PassValidator())
    with inject_faults("pass:constprop", every=True,
                       corrupt=Miscompile(CORRUPTIONS["skewed-constant"])):
        r = g.transform("f", SIG, {1: 6}, probes=[(3,)], ladder=("llvm-fix",))
    assert r.mode == "llvm-fix" and r.attempts == []
    assert r.result.blamed_pass == "constprop"


def test_stats_count_as_when_every_rung_was_recorded():
    """The counts an earlier tree, which recorded the served and the
    ``original`` rung too, folded from the same requests."""
    g = _guard()
    g.transform("f", SIG, {1: 6}, probes=[(3,)])            # dbrew+llvm
    g.transform("f", SIG, {1: 6}, probes=[(3,)])            # warm
    with inject_faults("lift", every=True):
        g.transform("f", SIG, {1: 5}, probes=[(3,)])        # original
    g.transform("f", SIG, {1: 5}, probes=[(3,)])            # quarantined
    with inject_faults("rewrite", every=True):
        g.transform("f", SIG, {1: 4}, probes=[(3,)])        # llvm-fix
    g.transform("f", SIG, {1: 4}, probes=[(3,)])            # llvm-fix
    g.transform("f", SIG, probes=[(3, 4)])                  # llvm
    stats = asdict(g.stats)
    assert stats["transforms"] == 7
    assert stats["served_by"] == {"dbrew+llvm": 2, "llvm-fix": 2,
                                  "llvm": 1, "original": 2}
    assert stats["fallbacks"] == 2
    assert stats["negative_served"] == 4
