"""Request coalescing: concurrent same-key compiles run the pipeline once.

The regression scenario: N threads miss on the same (function, fixation,
options) machine key at the same moment.  Without single-flight
coalescing each would run the full lift/optimize/codegen pipeline and
install N copies; with it, one leader compiles while the followers block
on the flight and are served the leader's installed code as a
machine-stage hit (``TransformResult.coalesced``).  The compile is slowed
via the fault injector's ``corrupt=`` hook so the race window is wide and
deterministic.
"""

import threading
import time

import pytest

from repro import BinaryTransformer, FunctionSignature, compile_c
from repro.cache import FlightTable, SpecializationCache
from repro.testing.faults import inject_faults

SRC = "long f(long a, long b) { return (a + 1) * b; }"


def slow_opt(result, *args):
    time.sleep(0.05)  # widen the window; keep the real result
    return None


def test_concurrent_same_key_transforms_coalesce():
    prog = compile_c(SRC)
    cache = SpecializationCache()
    sig = FunctionSignature(("i", "i"), "i")
    n = 8
    results, errors = [None] * n, []
    barrier = threading.Barrier(n)

    def worker(i):
        try:
            tx = BinaryTransformer(prog.image, cache=cache)
            barrier.wait()
            results[i] = tx.llvm_identity("f", sig, name=f"f.co{i}")
        except BaseException as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    with inject_faults("opt", every=True, corrupt=slow_opt):
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    assert not errors
    # exactly one pipeline ran; everyone else joined its flight
    assert cache.flights.led == 1
    assert cache.flights.coalesced == n - 1
    coalesced = [r for r in results if r.coalesced]
    assert len(coalesced) == n - 1
    # identical installed code for every caller
    addrs = {r.addr for r in results}
    assert len(addrs) == 1
    # the followers were served as machine-stage hits under their own names
    for r in coalesced:
        assert r.cache_stage == "machine"
        assert prog.image.symbol(r.name) == r.addr


def test_distinct_keys_do_not_coalesce():
    prog = compile_c(SRC)
    cache = SpecializationCache()
    sig = FunctionSignature(("i", "i"), "i")
    tx = BinaryTransformer(prog.image, cache=cache)
    a = tx.llvm_identity("f", sig, name="f.a")
    b = tx.llvm_fixed("f", sig, {1: 7}, name="f.b")
    assert not a.coalesced and not b.coalesced
    assert a.addr != b.addr
    assert cache.flights.coalesced == 0


# -- FlightTable unit behavior ---------------------------------------------


def test_flight_leader_error_propagates_to_followers():
    table = FlightTable()
    barrier = threading.Barrier(2)
    outcomes = []

    def leader():
        def boom():
            barrier.wait()  # follower is now waiting on this flight
            time.sleep(0.05)
            raise ValueError("compile exploded")
        try:
            table.run("k", boom)
        except ValueError as exc:
            outcomes.append(("leader", str(exc)))

    def follower():
        barrier.wait()
        time.sleep(0.01)  # ensure we join, not lead
        try:
            table.run("k", lambda: "should not run")
        except ValueError as exc:
            outcomes.append(("follower", str(exc)))

    t1, t2 = threading.Thread(target=leader), threading.Thread(target=follower)
    t1.start(); t2.start(); t1.join(); t2.join()
    assert sorted(o[0] for o in outcomes) == ["follower", "leader"]
    assert all("compile exploded" in o[1] for o in outcomes)


def test_flight_sequential_runs_both_lead():
    table = FlightTable()
    assert table.run("k", lambda: 1) == (1, True)
    assert table.run("k", lambda: 2) == (2, True)
    assert table.led == 2
    assert table.coalesced == 0
    assert table.in_flight == 0
