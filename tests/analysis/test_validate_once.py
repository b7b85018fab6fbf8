"""The O3 row of the catch matrix: *validate once, replay per pass only on a
mismatch* against the per-pass sweep it replaced as the default.

Nine passes x four corruptions x three functions.  Each mutant is a
*deterministic* miscompiling pass (``every=True``: the corruption follows
every application of the pass).  It is driven twice over the same lifted
body — through ``run_o3(validator=...)`` and through the per-pass sweep
called directly — and the two must agree on whom they blame
(``rejected_passes``), what they leave behind (``function_fingerprint``)
and whom they quarantine (``NegativeCache`` keys).

Where they may differ, and only there: a **masked** mutant — the per-pass
sweep rejects a pass whose error never reaches the final body on any probe
the lifted body can run, so the end-to-end comparison accepts a body that
is probe-equal to the lifted one.  Those are listed in :data:`MASKED`, with
the probe-equality re-checked here as the witness.  Mutants that corrupt a
body and that *neither* path rejects are listed in :data:`UNCAUGHT`.  Both
lists are the committed table (EXPERIMENTS.md, "Validate once"); print it
with::

    PYTHONPATH=src python tests/analysis/test_validate_once.py --table
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import pytest

from repro.analysis import PassValidator, clone_function, restore_function
from repro.analysis.clone import function_fingerprint
from repro.cc import compile_c
from repro.ir import (
    I64, Function, FunctionType, IRBuilder, Module, ptr, verify,
)
from repro.ir import instructions as I
from repro.ir.passes import pipeline, run_o3, schedule
from repro.ir.values import Constant, ConstantFP
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.stencil.sources import LINE_SIGNATURE
from repro.testing.faults import O3_PASSES, inject_faults

# -- the corruptions ---------------------------------------------------------------
# each returns whether it changed the body; a corruption with nothing to
# act on (no store, a void return) leaves the pass honest


def wrong_return(func: Function) -> bool:
    for ins in func.instructions():
        if isinstance(ins, I.Ret) and ins.value is not None:
            t, cur = ins.value.type, ins.value
            bad = ConstantFP(t, 12345.0) if t.is_float else Constant(t, 12345)
            if isinstance(cur, type(bad)) and cur.value == bad.value:
                return False  # already wrong: the corruption is idempotent
            ins.operands[0] = bad
            return True
    return False


def skewed_constant(func: Function) -> bool:
    for ins in func.instructions():
        if ins.opcode in ("phi", "br", "call", "alloca"):
            continue
        for i, op in enumerate(ins.operands):
            if isinstance(op, Constant) and op.type.bits > 1:  # not an i1
                ins.operands[i] = Constant(op.type, op.value + 1)
                return True
    return False


def dropped_store(func: Function) -> bool:
    stores = [ins for ins in func.instructions() if ins.opcode == "store"]
    if not stores:
        return False
    stores[-1].erase()
    return True


def dropped_terminator(func: Function) -> bool:
    term = func.blocks[-1].terminator
    if term is None:
        return False
    term.erase()
    return True


def dead_trap(func: Function) -> bool:
    """An unused load from an unmapped address at the top of the function:
    a fault the input did not have, and one ``dce`` may erase again."""
    if any(ins.name == "deadtrap" for ins in func.instructions()):
        return False
    at = func.entry.first_non_phi()
    addr = I.Cast("inttoptr", Constant(I64, 8), ptr(I64))
    addr.name = "deadtrap.addr"
    load = I.Load(addr, align=8)
    load.name = "deadtrap"
    func.entry.insert(at, addr)
    func.entry.insert(at + 1, load)
    return True


CORRUPTIONS = {
    "wrong-return": wrong_return,
    "skewed-constant": skewed_constant,
    "dropped-store": dropped_store,
    "dropped-terminator": dropped_terminator,
    "dead-trap": dead_trap,
}


# -- the functions -----------------------------------------------------------------


def _poly_func() -> Function:
    """f(a, b) = (a + a) * 3 + b, as in ``test_validation``."""
    m = Module("t")
    f = Function("poly", FunctionType(I64, (I64, I64)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    s1 = b.add(f.args[0], f.args[0])
    s2 = b.add(f.args[0], f.args[0])
    prod = b.mul(s1, b.const(I64, 3))
    b.mul(s2, b.const(I64, 100))
    b.ret(b.add(prod, f.args[1]))
    return f


def _lifted_loop() -> Function:
    # a constant trip count: a probe that passes an address for ``a`` must
    # not turn into two hundred thousand interpreted steps
    img = compile_c("""
    long f(long a, long b) {
        long s = 0;
        for (long i = 0; i < 12; i++) s += (i + a) * b;
        return s;
    }
    """).image
    return lift_function(img.memory, img.symbol("f"),
                         FunctionSignature(("i", "i"), "i"),
                         LiftOptions(name="loop"), Module("t"))


def _lifted_line_kernel() -> Function:
    img = StencilWorkspace(JacobiSetup(sz=17, sweeps=1)).image
    return lift_function(img.memory, img.symbol("line_direct"),
                         FunctionSignature(tuple(LINE_SIGNATURE), None),
                         LiftOptions(name="line"), Module("t"))


FUNCTIONS = {"poly": _poly_func, "loop": _lifted_loop,
             "line": _lifted_line_kernel}


# -- one mutant, both ways ---------------------------------------------------------


@dataclass
class Outcome:
    """What one driver made of one mutant."""

    rejected: list[str]
    fingerprint: tuple
    quarantined: list[str]
    body: Function  # a detached copy of what the driver left behind
    applied: int  # applications after which the corruption changed a body


def _per_pass(func: Function, validator: PassValidator) -> pipeline.O3Report:
    """The sweep with one validated application per pass — what ``run_o3``
    falls back to, called directly."""
    report = pipeline.O3Report(validated=True)
    pipeline._sweep(func, pipeline.O3Options(), None, validator,
                    schedule.Scheduler(func, validator), report)
    return report


def _drive(driver, func: Function, pristine: Function, pass_name: str,
           corruption) -> Outcome:
    restore_function(func, clone_function(pristine))
    validator = PassValidator()
    applied = 0

    def corrupt(result, f, *_args):
        nonlocal applied
        if not corruption(f):
            return None
        applied += 1
        f.bump_version()
        # a miscompiling pass is wrong about the code, not about having
        # touched it (the lying pass has its own tests in test_validation)
        if hasattr(result, "vectorized"):
            result.vectorized = True
            return None
        return True

    with inject_faults(f"pass:{pass_name}", every=True, corrupt=corrupt):
        report = driver(func, validator)
    return Outcome(report.rejected_passes, function_fingerprint(func),
                   sorted(validator.negative._store.keys()),
                   clone_function(func), applied)


def _probe_equal(before: Function, after: Function) -> tuple[bool, int]:
    """(no divergence, conclusive probes) of ``after`` against ``before``,
    on a validator of its own."""
    try:
        verify(after)
    except Exception:
        return False, 0
    reason, conclusive = PassValidator()._differential(before, after)
    return reason is None, conclusive


class Row(NamedTuple):
    """One cell of the table: the mutant's class, whom the per-pass sweep
    blames, and for a masked mutant the conclusive probes of its witness."""

    cls: str
    blamed: list[str]
    probes: int = 0

    def __str__(self) -> str:
        if self.cls == "masked":
            return f"masked ({self.probes} probes)"
        if self.cls == "caught":
            return f"caught ({', '.join(self.blamed)})"
        return self.cls


def classify(func: Function, pristine: Function, pass_name: str,
             corruption) -> Row:
    """``inert`` (the corruption never changed a body), ``caught`` (both
    drivers, identically), ``masked`` (per-pass only; the once-validated
    body is probe-equal to the lifted one), ``uncaught`` (neither), or
    ``ESCAPED`` — the failure this file exists to catch."""
    once = _drive(lambda f, v: run_o3(f, validator=v), func, pristine,
                  pass_name, corruption)
    if not once.applied:
        # the bare sweep ran to its end without the corruption finding
        # anything to act on; the per-pass sweep runs the same sequence
        return Row("inert", [])
    each = _drive(_per_pass, func, pristine, pass_name, corruption)
    same = (once.rejected == each.rejected
            and once.fingerprint == each.fingerprint
            and once.quarantined == each.quarantined)
    if same:
        return Row("caught" if once.rejected else "uncaught", each.rejected)
    equal, conclusive = _probe_equal(pristine, once.body)
    if equal and conclusive and not once.rejected:
        return Row("masked", each.rejected, conclusive)
    return Row("ESCAPED", each.rejected)


def matrix(function: str) -> dict[tuple[str, str], Row]:
    func = FUNCTIONS[function]()
    verify(func)
    pristine = clone_function(func)
    return {(p, c): classify(func, pristine, p, hook)
            for p in O3_PASSES for c, hook in CORRUPTIONS.items()}


# -- the committed table -----------------------------------------------------------


def _names(table: dict[str, dict[str, str]]) -> frozenset[str]:
    return frozenset(f"{function}/{p}/{corruption}"
                     for function, row in table.items()
                     for corruption, passes in row.items()
                     for p in passes.split())


_ALL_BUT_INLINE = " ".join(p for p in O3_PASSES if p != "inline")

#: mutants the per-pass sweep rejects and the end-to-end check accepts:
#: the trap is inserted after the named pass and a later ``dce`` erases it
#: (after ``dce`` itself, or after a pass that runs behind the last ``dce``,
#: it survives to the end and both drivers blame the same pass; ``line``'s
#: ``simplifycfg`` is idle behind its last ``dce`` and skipped)
MASKED = _names({
    "poly": {"dead-trap": "constprop gvn instcombine"},
    "loop": {"dead-trap":
             "constprop gvn instcombine mem2reg simplifycfg unroll"},
    "line": {"dead-trap":
             "constprop gvn instcombine mem2reg simplifycfg unroll "
             "vectorize"},
})

#: mutants that corrupt a body and that neither driver rejects.  ``loop``:
#: the constant and the store belong to the lifted virtual stack, which the
#: comparison excludes.  ``line``: both conclusive probes pass loop bounds
#: that run zero iterations, so no verdict on this kernel has ever executed
#: its loop body — per pass or end to end
UNCAUGHT = _names({
    "loop": {"skewed-constant": "mem2reg", "dropped-store": "simplifycfg"},
    "line": {"skewed-constant": _ALL_BUT_INLINE,
             "dropped-store": _ALL_BUT_INLINE},
})


@pytest.mark.parametrize("function", sorted(FUNCTIONS))
def test_once_then_replay_agrees_with_per_pass(function):
    by_class: dict[str, set[str]] = {}
    for (p, c), row in matrix(function).items():
        by_class.setdefault(row.cls, set()).add(f"{function}/{p}/{c}")
        if row.cls == "masked":
            assert row.blamed == [p]
    assert not by_class.get("ESCAPED"), \
        "the per-pass sweep catches an unmasked divergence that escapes"

    def mine(names):
        return {n for n in names if n.startswith(function + "/")}

    assert by_class.get("masked", set()) == mine(MASKED)
    assert by_class.get("uncaught", set()) == mine(UNCAUGHT)
    # the row is not vacuous: most live mutants are caught, by both alike
    assert len(by_class["caught"]) >= 8


if __name__ == "__main__":
    if sys.argv[1:] != ["--table"]:
        sys.exit(__doc__)
    for function in FUNCTIONS:
        print(f"\n{function}\n")
        print("| pass | " + " | ".join(CORRUPTIONS) + " |")
        print("|---|" + "---|" * len(CORRUPTIONS))
        got = matrix(function)
        for p in O3_PASSES:
            print(f"| `{p}` | "
                  + " | ".join(str(got[p, c]) for c in CORRUPTIONS) + " |")
