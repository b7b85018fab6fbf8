"""``repro`` starts no thread: the caller decides when a rewrite pays off.

The paper has no tiers and no background compiler: a specialization runs
on the caller's thread, which pays its latency once (Fig. 10) and then
calls the result.  This drives the library's three kinds of work end to
end — a guarded ``dbrew+llvm`` install of one stencil cell, a simulated
Jacobi sweep through it, and the differential corpus in one process — and
asserts that the process has exactly the threads it had before.
"""

from __future__ import annotations

import threading

from repro.bench import modes as M
from repro.guard import GuardedTransformer
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.testing.diffcorpus import run_corpus


def test_repro_starts_no_thread():
    before = threading.active_count()
    threads = set(threading.enumerate())

    ws = StencilWorkspace(JacobiSetup(sz=9, sweeps=1))
    guard = GuardedTransformer(ws.image, machine_verify=True)
    cell = M.prepare_kernel(ws, "flat", "dbrew+llvm", line=False,
                            guard=guard, uid=".nothread")
    assert cell.guard_mode == "dbrew+llvm" and cell.verified

    want = ws.reference_sweeps(1)
    ws.run_sweeps(cell.kernel_addr, line=False, stencil_arg=ws.flat.addr)
    got = ws.read_matrix(2)
    assert all(abs(a - b) < 1e-12 for row_g, row_w in zip(got, want)
               for a, b in zip(row_g, row_w))

    report = run_corpus(3, jobs=1)
    assert report.cases > 0 and not report.failures

    assert threading.active_count() == before, \
        set(threading.enumerate()) - threads
