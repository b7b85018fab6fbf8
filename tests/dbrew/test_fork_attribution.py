"""Which loop a fork counts against (DESIGN, "DBrew's widening rule").

A loop is widened into a run-time loop only when a fork since its last
back-edge sits in the loop itself: in the same inline frame at an address
in ``[head, back-edge]``, or in a callee inlined from a call site in that
span.  A fork of an enclosing loop leaves a known-trip inner loop fully
unrolled; a fork inside the loop still widens it.  The twins below swap in
the rules this one replaced, so each clause is shown to matter.
"""

import pytest

from repro.cc import compile_c
from repro.cpu import Simulator
from repro.dbrew import Rewriter

#: a known-trip inner loop under an outer loop whose trip count is a
#: run-time argument, written in one function and across an inlined call
INNER_UNDER_OUTER = {
    "one function": """
    long f(long* v, long n) {
        long s = 0;
        for (long x = 0; x < n; x++) {
            for (long i = 0; i < 4; i++) s += v[i] * (x + i);
        }
        return s;
    }
    """,
    "inlined call": """
    long g(long* v, long x) {
        long s = 0;
        for (long i = 0; i < 4; i++) s += v[i] * (x + i);
        return s;
    }
    long f(long* v, long n) {
        long s = 0;
        for (long x = 0; x < n; x++) s += g(v, x);
        return s;
    }
    """,
}

#: a 64-trip loop with an early exit on run-time data, the fork in the loop
#: body and in a callee inlined from it
FORK_IN_LOOP = {
    "in the loop body": """
    long f(long* v) {
        long s = 0;
        for (long i = 0; i < 64; i++) {
            if (v[i] < 0) return -1;
            s += v[i];
        }
        return s;
    }
    """,
    "in an inlined callee": """
    long neg(long a) { if (a < 0) return 1; return 0; }
    long f(long* v) {
        long s = 0;
        for (long i = 0; i < 64; i++) {
            if (neg(v[i])) return -1;
            s += v[i];
        }
        return s;
    }
    """,
}


def global_counter(self, head, pc, rstack):
    """The replaced rule: any fork anywhere since the last back-edge."""
    since = self._forks_at_visit.get(head)
    self._forks_at_visit[head] = len(self._forks)
    return since is not None and len(self._forks) > since


def same_frame_only(self, head, pc, rstack):
    """The rule without its second clause: a callee's fork is ignored."""
    since = self._forks_at_visit.get(head)
    self._forks_at_visit[head] = len(self._forks)
    return since is not None and any(
        fork_rstack == rstack and head <= fork_pc <= pc
        for fork_pc, fork_rstack in self._forks[since:])


def rewritten(src: str, sig: tuple[str, ...]):
    img = compile_c(src).image
    rw = Rewriter(img, "f").set_signature(sig)
    addr = rw.rewrite(name="f.rw")
    assert rw.last_error is None and addr != img.symbol("f")
    return img, Simulator(img), rw


def conditional_branches(res) -> int:
    return sum(n for m, n in res.stats.per_mnemonic.items()
               if m.startswith("j") and m != "jmp")


def run_inner_under_outer(src: str) -> tuple[Rewriter, dict[int, int]]:
    """Rewrite, check every probe against the original, and return the
    conditional branches the rewritten code runs per outer trip count."""
    img, sim, rw = rewritten(src, ("i", "i"))
    v = img.alloc_data(8 * 4)
    for i in range(4):
        img.memory.write_u64(v + 8 * i, (3 * i - 5) & (2**64 - 1))
    branches = {}
    for n in (0, 1, 2, 5, 9):
        # the rewrite runs first: stack memory the original leaves behind
        # could otherwise stand in for a slot the rewrite failed to write
        got = sim.call("f.rw", (v, n))
        assert got.rax == sim.call("f", (v, n)).rax, n
        branches[n] = conditional_branches(got)
    return rw, branches


@pytest.mark.parametrize("shape", INNER_UNDER_OUTER)
def test_known_trip_inner_loop_stays_unrolled_under_a_runtime_loop(shape):
    rw, branches = run_inner_under_outer(INNER_UNDER_OUTER[shape])
    # the outer loop's test runs once per trip and once to leave; the inner
    # loop's never runs: every one of its trips is unrolled in every copy
    assert branches == {n: n + 1 for n in branches}
    assert rw.stats.points < 10


@pytest.mark.parametrize("shape", INNER_UNDER_OUTER)
def test_the_global_counter_rewidens_the_inner_loop(shape, monkeypatch):
    """Negative twin: under the replaced rule the outer loop's fork counts
    against the inner loop, which becomes a run-time loop from the second
    outer trip on."""
    _rw, fixed = run_inner_under_outer(INNER_UNDER_OUTER[shape])
    monkeypatch.setattr(Rewriter, "_loop_forked", global_counter)
    rw, branches = run_inner_under_outer(INNER_UNDER_OUTER[shape])
    assert rw.stats.widenings > 1
    assert all(branches[n] > fixed[n] for n in branches if n >= 2)


def run_fork_in_loop(src: str) -> Rewriter:
    img, sim, rw = rewritten(src, ("i",))
    v = img.alloc_data(8 * 64)
    for negative_at in (None, 0, 5, 63):
        for i in range(64):
            value = -3 if i == negative_at else i
            img.memory.write_u64(v + 8 * i, value & (2**64 - 1))
        assert sim.call("f.rw", (v,)).rax == sim.call("f", (v,)).rax
    return rw


@pytest.mark.parametrize("shape", FORK_IN_LOOP)
def test_a_fork_in_the_loop_still_widens_it(shape):
    rw = run_fork_in_loop(FORK_IN_LOOP[shape])
    assert rw.stats.widenings >= 1
    assert rw.stats.points < 16  # not one copy per trip: 64 trips


def test_a_callee_fork_counts_through_its_call_site(monkeypatch):
    """Twin of the inlined-callee case: ignore forks in callees and the
    loop is unrolled trip by trip."""
    monkeypatch.setattr(Rewriter, "_loop_forked", same_frame_only)
    rw = run_fork_in_loop(FORK_IN_LOOP["in an inlined callee"])
    assert rw.stats.widenings == 0
    assert rw.stats.points > 64


@pytest.mark.xfail(strict=True, reason=(
    "both paths of the fork reach the back-edge, and the back-edge state is "
    "compared with the sibling path's state of the same iteration, so the "
    "induction variable never looks evolving: 137 trace points"))
def test_a_fork_whose_paths_both_reach_the_back_edge_still_widens():
    """``if (v[i] > 0) s += i`` in a 64-trip loop: the fork does not exit,
    so each trip's two paths meet again at the back-edge.  The loop should
    close like the one whose fork exits, not be peeled once per trip."""
    img, sim, rw = rewritten("""
    long f(long* v) {
        long s = 0;
        for (long i = 0; i < 64; i++) if (v[i] > 0) s += i;
        return s;
    }
    """, ("i",))
    v = img.alloc_data(8 * 64)
    for i in range(64):
        img.memory.write_u64(v + 8 * i, (i % 3 - 1) & (2**64 - 1))
    assert sim.call("f.rw", (v,)).rax == sim.call("f", (v,)).rax
    assert rw.stats.points <= 16
