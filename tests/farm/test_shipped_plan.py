"""The plan the engine decides is the plan the worker runs.

A farm that records every :class:`~repro.farm.protocol.CompileJob` and
declines it (so the engine compiles in-process) drives T1, T1-with-fixes
and T2 handles.  Each shipped ``job.plan`` must equal
``engine._plan_for(handle, tier)``, with one stated difference: a
``dbrew+llvm`` rung ships as ``llvm`` over DBrew's output, because the
client runs DBrew in its own image.  The worker compiles the plan and
leaves its pregate and gate to the client.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro import FunctionSignature
from repro.guard import GateOptions
from repro.tier import T1, T2, TieredEngine, TierPolicy

SIG = FunctionSignature(("i", "i"), "i")


class RecordingFarm:
    """Records each job and declines it: the wire record is all we read."""

    def __init__(self) -> None:
        self.jobs: list = []

    def available(self) -> bool:
        return True

    def compile(self, job, timeout=None):
        self.jobs.append(job)
        return None


def _drive(prog, tiers, **kw) -> tuple[TieredEngine, object, RecordingFarm]:
    farm = RecordingFarm()
    policy = TierPolicy(promote_calls=(2, 6 if T2 in tiers else 10**9))
    reg = kw.pop("register", {})
    with TieredEngine(prog.image, farm=farm, max_workers=1, policy=policy,
                      **kw) as eng:
        handle = eng.register("f", SIG, **reg)
        for tier in tiers:
            while handle.calls < handle.governor.thresholds[tier]:
                handle.address()
            assert eng.drain(120.0)
    assert [job.tier for job in farm.jobs] == list(tiers)
    return eng, handle, farm


@pytest.mark.parametrize("register, tiers", [
    ({}, (T1,)),
    ({"fixes": {1: 3}}, (T1,)),
    ({"fixes": {1: 3}, "probes": ((10,), (5,))}, (T1, T2)),
], ids=["t1", "t1_fixed", "t2"])
def test_each_shipped_plan_is_the_engines_plan(prog, register, tiers):
    eng, handle, farm = _drive(prog, tiers, register=register,
                               machine_verify=True,
                               gate_options=GateOptions(samples=2))
    for job in farm.jobs:
        want = eng._plan_for(handle, job.tier)
        if want.rung == "dbrew+llvm":
            assert job.func == eng.image.symbol(job.name + ".dbrew")
            want = replace(want, rung="llvm")
        else:
            assert job.func == "f"
        assert job.plan == want
        assert pickle.loads(pickle.dumps(job)).plan == want
    assert [eng._plan_for(handle, job.tier).rung for job in farm.jobs] == (
        ["llvm"] if not register else
        ["llvm-fix", "dbrew+llvm"] if T2 in tiers else ["llvm-fix"])

