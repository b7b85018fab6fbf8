"""TieredEngine behavior: zero-stall dispatch, background promotion,
epoch-stale discards, rejection pinning, measured-cost demotion."""

import time

import pytest

from repro import FunctionSignature, Simulator, TieredEngine, compile_c
from repro.errors import IRError
from repro.testing.faults import inject_faults
from repro.tier import T0, T1, T2, TierPolicy

SRC = "long f(long a, long b) { long s = 0; for (long i = 0; i < a; i++) s += i * b; return s; }"


def expected(a, b):
    return sum(i * b for i in range(a))


@pytest.fixture()
def prog():
    return compile_c(SRC)


def make_engine(prog, **kw):
    kw.setdefault("policy", TierPolicy(promote_calls=(4, 12)))
    return TieredEngine(prog.image, **kw)


def spin_to_tier(handle, sim, tier, *, args=(10, 3), calls=200,
                 timeout=60.0):
    """Dispatch until the handle reaches ``tier`` (never blocking a call)."""
    deadline = time.monotonic() + timeout
    for _ in range(calls):
        addr = handle.address()
        assert sim.call(addr, args).rax == expected(*args)
        if handle.tier >= tier:
            return
        time.sleep(0.005)
    assert handle.wait_for_tier(tier, max(0.0, deadline - time.monotonic())), \
        handle.snapshot()


def test_first_call_is_t0_with_no_compile(prog):
    with make_engine(prog) as eng:
        h = eng.register("f", FunctionSignature(("i", "i"), "i"))
        t0 = time.perf_counter()
        addr = h.address()
        dt = time.perf_counter() - t0
        assert addr == prog.image.symbol("f")
        assert h.tier == T0
        # zero-stall: the first dispatch never waits on a compiler
        assert dt < 0.01
        assert eng.stats.submitted[T1] == 0


def test_background_promotion_reaches_t2_verified(prog):
    sim = Simulator(prog.image)
    with make_engine(prog) as eng:
        h = eng.register("f", FunctionSignature(("i", "i"), "i"),
                         fixes={1: 3}, probes=((10,), (5,)))
        spin_to_tier(h, sim, T2, args=(10, 3))
        assert h.code.mode == "dbrew+llvm"
        assert h.code.verified  # admitted through the differential gate
        assert sorted(h.codes) == [T0, T1, T2]
        assert eng.stats.installs[T1] == 1
        assert eng.stats.installs[T2] == 1
        # the T2 kernel computes the same thing
        assert sim.call(h.address(), (10, 3)).rax == expected(10, 3)


def test_dispatch_never_blocks_while_compiling(prog):
    sim = Simulator(prog.image)
    with make_engine(prog) as eng:
        h = eng.register("f", FunctionSignature(("i", "i"), "i"),
                         fixes={1: 3})
        eng.pause()  # compiles park at their first budget checkpoint
        try:
            for _ in range(50):
                t0 = time.perf_counter()
                addr = h.address()
                assert time.perf_counter() - t0 < 0.01
                assert addr == prog.image.symbol("f")
            assert h.tier == T0
            assert eng.stats.submitted[T1] == 1  # queued, not blocking
        finally:
            eng.resume()
        eng.drain(60.0)


def test_refix_discards_superseded_compile(prog):
    with make_engine(prog) as eng:
        h = eng.register("f", FunctionSignature(("i", "i"), "i"),
                         fixes={1: 3})
        eng.pause()
        for _ in range(10):
            h.address()  # crosses the T1 threshold; job parks at the gate
        assert eng.stats.submitted[T1] == 1
        eng.refix(h, fixes={1: 7})  # new fixation key: epoch bumps
        assert h.epoch == 1
        eng.resume()
        assert eng.drain(60.0)
        # the old-epoch result finished but was never installed
        assert eng.stats.stale_discards >= 1
        assert eng.stats.installs[T1] == 0
        assert h.tier == T0
        assert all(code.epoch == h.epoch or code.tier == T0
                   for code in h.codes.values())


def test_compile_failure_pins_the_tier(prog):
    with make_engine(prog) as eng:
        h = eng.register("f", FunctionSignature(("i", "i"), "i"))
        with inject_faults("opt", every=True,
                           error=IRError("injected optimizer fault",
                                         stage="opt", injected=True)):
            for _ in range(10):
                h.address()
                time.sleep(0.01)
            assert eng.drain(60.0)
        assert eng.stats.rejections[T1] == 1
        assert h.governor.pinned_max == T0
        assert "injected" in h.governor.pin_reason
        assert h.tier == T0
        # pinned: no matter how hot, nothing is ever requested again
        before = eng.stats.submitted[T1] + eng.stats.submitted[T2]
        for _ in range(500):
            h.address()
        eng.drain(60.0)
        assert eng.stats.submitted[T1] + eng.stats.submitted[T2] == before
        # and a waiter on an unreachable tier returns instead of hanging
        assert h.wait_for_tier(T1, timeout=0.5) is False


def test_gate_rejection_pins_t2(prog):
    # corrupt codegen output on the dbrew+llvm rung only: T1 (call 1)
    # compiles clean, T2's candidate (later calls) computes a+1 instead —
    # the differential gate must reject it and pin the handle at T1
    def corrupt(result, jit_self, func, **kw):
        name = kw.get("name") or func.name
        if ".t2." in name:
            bad = compile_c("long g(long a, long b) { return a + 1; }",
                            image=jit_self.image)
            return bad.functions["g"]
        return None

    with make_engine(prog) as eng:
        h = eng.register("f", FunctionSignature(("i", "i"), "i"),
                         fixes={1: 3}, probes=((10,), (5,)))
        with inject_faults("codegen", every=True, corrupt=corrupt):
            for _ in range(50):
                h.address()
                time.sleep(0.01)
                if eng.stats.rejections[T2]:
                    break
            assert eng.drain(60.0)
        assert eng.stats.installs[T1] == 1
        assert eng.stats.rejections[T2] == 1
        assert h.governor.pinned_max == T1
        assert h.tier == T1  # quietly pinned at the current tier
        assert h.wait_for_tier(T2, timeout=0.5) is False


@pytest.mark.parametrize("profile", ["calls", "edges"])
def test_job_budget_reaches_every_t1_compile(prog, profile):
    """The instrumented T1 of ``profile="edges"`` runs under the job's
    budget like the plain one (it used to be compiled outside it)."""
    from repro.guard import Budget

    with make_engine(prog, profile=profile, budget_factory=lambda: Budget(
            max_lift_instructions=1)) as eng:
        h = eng.register("f", FunctionSignature(("i", "i"), "i"))
        for _ in range(10):
            h.address()
        assert eng.drain(60.0)
        assert eng.stats.rejections[T1] == 1
        assert eng.stats.installs[T1] == 0
        assert "budget exhausted" in h.governor.pin_reason


def test_t1_gate_rejection_evicts_and_quarantines(prog, monkeypatch):
    """An inconclusive machine proof sends T1 through the one-off gate; a
    candidate that gate rejects must leave the machine cache — where an
    unguarded transformer with the same options would be served it — and
    its rung must be quarantined, exactly as after a guard rejection."""
    import repro.jit.plan as plan_mod
    from repro.analysis.machine import INCONCLUSIVE, VerifyResult
    from repro.cache import SpecializationCache

    monkeypatch.setattr(
        plan_mod, "verify_emitted",
        lambda jit, name: VerifyResult(verdict=INCONCLUSIVE,
                                       reasons=["forced for test"]))

    def corrupt(result, jit_self, func, **kw):
        bad = compile_c("long g(long a, long b) { return a + 1; }",
                        image=jit_self.image)
        return bad.functions["g"]

    cache = SpecializationCache()
    installed = []
    put_machine = cache.put_machine
    monkeypatch.setattr(
        cache, "put_machine",
        lambda image, key, entry: (installed.append(key),
                                   put_machine(image, key, entry)))
    with make_engine(prog, cache=cache, machine_verify=True) as eng:
        h = eng.register("f", FunctionSignature(("i", "i"), "i"),
                         probes=((10, 3), (5, 2)))
        with inject_faults("codegen", every=True, corrupt=corrupt):
            for _ in range(10):
                h.address()
            assert eng.drain(60.0)
        assert eng.stats.rejections[T1] == 1
        assert "divergence" in h.governor.pin_reason
    assert len(installed) == 1
    assert cache.get_machine(prog.image, installed[0]) is None
    assert len(cache.negative) == 1


def test_measured_cost_demotion_with_backoff(prog):
    policy = TierPolicy(promote_calls=(4, 100_000), demote_after=3,
                        hysteresis=0.10, ewma_alpha=1.0,
                        repromote_backoff=4.0)
    with make_engine(prog, policy=policy) as eng:
        h = eng.register("f", FunctionSignature(("i", "i"), "i"),
                         fixes={1: 3})
        # while still at T0, record its (cheap) measured cost
        h.observe(100.0)
        for _ in range(10):
            h.address()
            time.sleep(0.01)
        assert h.wait_for_tier(T1, timeout=60.0)
        # T1 measures consistently worse: demote after the streak
        h.observe(200.0)
        h.observe(200.0)
        assert h.tier == T1
        h.observe(200.0)
        assert h.tier == T0
        assert eng.stats.demotions == 1
        # back-off: T1 is not immediately re-requested
        submitted = eng.stats.submitted[T1]
        for _ in range(10):
            h.address()
        assert eng.stats.submitted[T1] == submitted


def test_close_is_idempotent_and_rejects_new_registrations(prog):
    eng = make_engine(prog)
    eng.close()
    eng.close()
    with pytest.raises(RuntimeError):
        eng.register("f", FunctionSignature(("i", "i"), "i"))
