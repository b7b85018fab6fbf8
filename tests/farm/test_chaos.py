"""Chaos orchestrator: seeded scenarios over a real engine + farm hold
every invariant, and a scenario's fault script replays from its seed."""

from __future__ import annotations

import pytest

from repro.testing.chaos import (ChaosOptions, FAULT_KINDS, run_scenario,
                                 run_suite)

# small scenarios sized for a 1-CPU box; the full sweep lives in
# benchmarks/bench_chaos.py.  A dropped result costs its client one whole
# ``farm_timeout`` before it falls back in-process: keep that wait
# test-sized (the harness default is 30 s) — the invariants do not depend
# on how long the client sat there
_OPTS = ChaosOptions(workers=2, functions=2, steps=12, calls_per_step=2,
                     fault_rate=0.5, heartbeat_interval=0.2,
                     hang_timeout=0.4, farm_timeout=2.0)


@pytest.mark.parametrize("seed", [7, 42, 1337])
def test_scenario_holds_all_invariants(seed):
    rep = run_scenario(seed, _OPTS)
    assert rep.ok, rep.violations
    assert rep.calls > 0
    assert rep.dispatch["p99"] >= 0.0


def test_fault_script_replays_from_seed_alone(tmp_path):
    """Determinism: the decision stream — which steps fire, which kinds —
    is a pure function of the seed, whatever the runtime state did."""
    a = run_scenario(99, _OPTS, workdir=str(tmp_path / "a"))
    b = run_scenario(99, _OPTS, workdir=str(tmp_path / "b"))
    assert a.ok and b.ok, (a.violations, b.violations)
    assert [(e.step, e.kind) for e in a.events] \
        == [(e.step, e.kind) for e in b.events]
    assert len(a.events) > 0  # fault_rate 0.5 over 12 steps: some fired


def test_different_seeds_give_different_scripts():
    scripts = set()
    for seed in (1, 2, 3, 4):
        rep = run_scenario(
            seed, ChaosOptions(workers=1, functions=1, steps=10,
                               calls_per_step=1, fault_rate=0.5,
                               faults=("clock_skew",)))
        assert rep.ok, rep.violations
        scripts.add(tuple((e.step, e.kind) for e in rep.events))
    assert len(scripts) > 1


def test_suite_aggregates_across_seeds():
    opts = ChaosOptions(workers=1, functions=1, steps=6, calls_per_step=1,
                        fault_rate=0.5, faults=("clock_skew", "budget"))
    agg = run_suite([5, 6], opts)
    assert agg["scenarios"] == 2
    assert agg["violations"] == 0 and agg["failed_seeds"] == []
    assert agg["calls"] > 0
    assert set(agg["faults_injected"]) <= set(FAULT_KINDS)
    assert len(agg["reports"]) == 2


def test_warm_laps_populate_dispatch_warm():
    opts = ChaosOptions(workers=1, functions=1, steps=4, calls_per_step=1,
                        fault_rate=0.0, faults=(), warm_laps=50)
    rep = run_scenario(11, opts)
    assert rep.ok, rep.violations
    assert rep.dispatch_warm["p99"] > 0.0
    assert rep.as_dict()["dispatch_warm"]["p99"] > 0.0
