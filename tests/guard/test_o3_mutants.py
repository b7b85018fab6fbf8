"""The -O3 mutant matrix through the guard: one behavioural check per install.

Each mutant is one miscompiling pass (``tests/analysis/test_validate_once``'s
nine passes x five corruptions, ``every=True``) under the ledger's
``verified_install`` guard — a pass validator, machine verification and the
differential gate on the request's real matrices.  Every install lands in
one class:

``served``
    the requested rung serves it, and the kernel is right on the ledger
    input and on three random matrices the gate never saw;
``fell back``
    the original serves it;
``wrong``
    the requested rung serves code the random-matrix oracle refutes;
``crashed``
    an untyped exception left ``GuardedTransformer.transform``;
``inert``
    the corruption never found anything to change.

The gate judges -O3 and the validator interprets only to blame a pass once
a candidate is rejected.  ``golden_o3_mutants.json`` holds what an earlier
tree, which also judged -O3 with the validator end to end, served at the
rung.  Every one of those must still be served, nothing may be wrong,
nothing may crash.  Tier-1 drives one element and one
line cell; the full 18-cell table is::

    PYTHONPATH=src:. python tests/guard/test_o3_mutants.py --table

and ``--capture`` rewrites the fixture from the tree it runs on.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import PassValidator
from repro.bench.harness import stencil_arg
from repro.bench.modes import CODES, GUARD_LADDERS, prepare_kernel, request
from repro.cache import SpecializationCache
from repro.cc import compile_c
from repro.cpu import Simulator
from repro.errors import ReproError
from repro.guard import GateOptions, GuardedTransformer
from repro.lift import FunctionSignature
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace, matrices_equal
from repro.testing.faults import O3_PASSES, inject_faults
from tests.analysis.test_validate_once import CORRUPTIONS, Miscompile

GOLDEN = Path(__file__).with_name("golden_o3_mutants.json")
#: the ledger's verified_install setup
SETUP = JacobiSetup(sz=17, sweeps=1)
CELLS = tuple((code, line, mode) for code in CODES for line in (False, True)
              for mode in GUARD_LADDERS)
TIER1_CELLS = (("flat", False, "llvm-fix"), ("direct", True, "llvm"))
#: random matrices per served install, beyond the ledger input
RANDOM_INPUTS = 3
CLASSES = ("served", "fell back", "wrong", "crashed", "inert")


def cell_name(cell) -> str:
    code, line, mode = cell
    return f"{code}.{'line' if line else 'elem'}.{mode}"


def _wrong(ws: StencilWorkspace, addr: int, code: str, line: bool,
           seed: str) -> bool:
    """Does one sweep of the kernel at ``addr`` differ from the reference,
    on the ledger input or on a random one?  Random cells are small dyadic
    values, so every evaluation order of the stencil sum is exact."""
    rng = random.Random(seed)
    mem, cells = ws.image.memory, ws.setup.sz * ws.setup.sz
    ws.sim.invalidate_code()
    for trial in range(1 + RANDOM_INPUTS):
        ws.reset_matrices()
        if trial:
            for base in (ws.m1, ws.m2):
                for i in range(cells):
                    mem.write_f64(base + 8 * i, rng.randrange(-64, 64) / 8)
        want = ws.reference_sweeps(1)
        try:
            ws.run_sweeps(addr, line=line, stencil_arg=stencil_arg(ws, code),
                          sweeps=1)
        except ReproError:
            return True
        if not matrices_equal(ws.read_matrix(2), want):
            return True
    return False


def classify(ws: StencilWorkspace, cell, pass_name: str,
             corruption: str) -> str:
    code, line, mode = cell
    ws.reset_matrices()  # the gate's probe reads the ledger input
    guard = GuardedTransformer(
        ws.image, validator=PassValidator(), machine_verify=True,
        gate_options=GateOptions(samples=2, seed=1))
    corrupt = Miscompile(CORRUPTIONS[corruption])
    try:
        with inject_faults(f"pass:{pass_name}", every=True, corrupt=corrupt):
            res = prepare_kernel(ws, code, mode, line=line, guard=guard,
                                 uid=f".{pass_name}.{corruption}")
    except Exception:  # noqa: BLE001 - the class this matrix looks for
        return "crashed"
    if not corrupt.applied:
        return "inert"
    if res.guard_mode != mode:
        return "fell back"
    if _wrong(ws, res.kernel_addr, code, line,
              seed=f"{pass_name}/{corruption}"):
        return "wrong"
    return "served"


def matrix(cell) -> dict[str, str]:
    """``pass/corruption`` -> class, for every mutant of one cell."""
    ws = StencilWorkspace(SETUP)
    return {f"{p}/{c}": classify(ws, cell, p, c)
            for p in O3_PASSES for c in CORRUPTIONS}


def _parent_served() -> dict[str, list[str]]:
    return json.loads(GOLDEN.read_text())["served"]


@pytest.mark.parametrize("cell", TIER1_CELLS, ids=cell_name)
def test_mutants_through_the_guard(cell):
    got = matrix(cell)
    by_class: dict[str, set[str]] = {}
    for mutant, cls in got.items():
        by_class.setdefault(cls, set()).add(mutant)
    assert not by_class.get("wrong"), "served code the oracle refutes"
    assert not by_class.get("crashed"), "untyped exception from transform"
    lost = set(_parent_served()[cell_name(cell)]) - by_class.get("served",
                                                                 set())
    assert not lost, f"the parent served these at the rung: {sorted(lost)}"


# -- who judged -O3, and what recovery did ----------------------------------------

SIG = FunctionSignature(("i", "i"), "i")
SRC = "long f(long a, long b) { return a * b + 7; }"


def _guard(image, **kw) -> GuardedTransformer:
    kw.setdefault("gate_options", GateOptions(samples=2, seed=1))
    return GuardedTransformer(image, **kw)


def _line_cell(**kw):
    ws = StencilWorkspace(SETUP)
    req = request(ws, "direct", True)
    return ws, req, _guard(ws.image, machine_verify=True, **kw)


def _transform(guard, req, pass_name, corruption):
    with inject_faults(f"pass:{pass_name}", every=True,
                       corrupt=Miscompile(CORRUPTIONS[corruption])):
        return guard.transform(req.func, req.signature, req.fixes,
                               ladder=("llvm",), probes=req.probes,
                               name=f"k.{pass_name}.{corruption}")


def _plan_guard(ws, gate: str, validator: PassValidator):
    """A guard whose every rung gates as ``gate`` says."""
    plan = replace(_guard(ws.image, machine_verify=True).plans["llvm"],
                   gate=gate)
    return GuardedTransformer.from_plan(
        ws.image, plan, validator=validator,
        gate_options=GateOptions(samples=2, seed=1))


@pytest.mark.parametrize("gate", ["always", "if-inconclusive", "never"])
def test_a_clean_install_interprets_nothing(gate):
    """Whatever the plan's gate, -O3 is verified, not interpreted: the
    validator runs only once a candidate has been rejected."""
    ws = StencilWorkspace(SETUP)
    req = request(ws, "direct", True)
    validator = PassValidator()
    r = _plan_guard(ws, gate, validator).transform(
        req.func, req.signature, req.fixes, ladder=("llvm",),
        probes=req.probes, name="k.clean")
    report = r.result.o3_report
    assert r.mode == "llvm" and r.result.blamed_pass is None
    assert not report.validated and report.pass_log == []
    assert validator.stats.validated == validator.stats.probes_run == 0


@pytest.mark.parametrize("gate", ["if-inconclusive", "never"])
def test_a_plan_that_may_not_gate_blames_and_rebuilds(gate):
    """The verifier's rejection after -O3 is blamed on every plan, gated
    or not: the replay names ``gvn`` and the rebuilt rung serves."""
    ws = StencilWorkspace(SETUP)
    req = request(ws, "direct", True)
    g = _plan_guard(ws, gate, PassValidator())
    r = _transform(g, req, "gvn", "dropped-terminator")
    assert r.mode == "llvm" and r.attempts == []
    assert r.result.blamed_pass == "gvn"


def test_a_gate_rejection_blames_the_pass_and_rebuilds_the_rung():
    img = compile_c(SRC).image
    validator = PassValidator()
    g = _guard(img, validator=validator, cache=SpecializationCache())
    with inject_faults("pass:constprop", every=True,
                       corrupt=Miscompile(CORRUPTIONS["skewed-constant"])):
        r = g.transform("f", SIG, {1: 6}, probes=[(3,)], ladder=("llvm-fix",))
    assert r.mode == "llvm-fix" and r.verified and r.attempts == []
    assert r.result.blamed_pass == "constprop"
    assert validator.negative.check("o3pass:constprop") is not None
    # the rebuild ran O3 again, per pass: the rejected module was evicted
    assert r.result.cache_stage == "lifted"
    assert r.result.o3_report.validated
    assert Simulator(img).call_int(r.addr, (5, 0)) == 5 * 6 + 7


def test_a_dropped_terminator_fails_the_verifier_and_is_blamed():
    ws, req, g = _line_cell(validator=PassValidator())
    r = _transform(g, req, "gvn", "dropped-terminator")
    assert r.mode == "llvm" and r.attempts == []
    assert r.result.blamed_pass == "gvn"


def test_without_a_blame_the_rejection_stands():
    ws, req, g = _line_cell(validator=PassValidator())
    r = _transform(g, req, "constprop", "skewed-constant")
    attempt = r.attempts[0]
    assert r.mode == "original"
    assert attempt.error_type == "VerificationError"
    assert attempt.context["stage"] == "verify"
    assert "blamed_pass" not in attempt.context


def test_a_dropped_terminator_without_a_validator_is_a_typed_refusal():
    ws, req, g = _line_cell()
    r = _transform(g, req, "gvn", "dropped-terminator")
    assert r.mode == "original"
    assert r.attempts[0].error_type == "CodegenError"
    assert "has no terminator" in r.attempts[0].error


def _table() -> None:
    totals = dict.fromkeys(CLASSES, 0)
    parent = _parent_served() if GOLDEN.exists() else {}
    lost = 0
    print("| cell | " + " | ".join(CLASSES) + " | parent served |")
    print("|---|" + "---:|" * (len(CLASSES) + 1))
    for cell in CELLS:
        got = matrix(cell)
        counts = [sum(1 for c in got.values() if c == cls) for cls in CLASSES]
        for cls, n in zip(CLASSES, counts):
            totals[cls] += n
        was = set(parent.get(cell_name(cell), ()))
        lost += len(was - {m for m, c in got.items() if c == "served"})
        print(f"| `{cell_name(cell)}` | " + " | ".join(map(str, counts))
              + f" | {len(was)} |")
    print("| **all** | " + " | ".join(str(totals[c]) for c in CLASSES)
          + f" | {sum(len(v) for v in parent.values())} |")
    print(f"\nparent-served mutants no longer served: {lost}")


def _capture() -> None:
    served = {cell_name(cell): sorted(m for m, c in matrix(cell).items()
                                      if c == "served")
              for cell in CELLS}
    GOLDEN.write_text(json.dumps({"served": served}, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--table"]:
        _table()
    elif sys.argv[1:] == ["--capture"]:
        _capture()
    else:
        sys.exit(__doc__)
