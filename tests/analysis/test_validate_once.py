"""The O3 row of the catch matrix: what the per-pass replay catches.

Nine passes x five corruptions x three functions.  Each mutant is a
*deterministic* miscompiling pass (``every=True``: the corruption follows
every application of the pass), driven through ``replay_o3`` — the sweep
with one validated application per pass, which is how a pipeline with a
validator blames a pass for a rejected candidate.  A mutant is caught when
the replay blames its own pass.  Mutants that corrupt a body and that the
replay does not reject are listed in :data:`UNCAUGHT`, the committed table
(EXPERIMENTS.md, "Validate once" and "The pass validator only assigns
blame"); print it with::

    PYTHONPATH=src python tests/analysis/test_validate_once.py --table

The file keeps its name for the corruptions and the miscompile hook the
guard's mutant matrix (``tests/guard/test_o3_mutants.py``) imports.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import pytest

from repro.analysis import PassValidator, clone_function, restore_function
from repro.cc import compile_c
from repro.ir import (
    I64, Function, FunctionType, IRBuilder, Module, ptr, verify,
)
from repro.ir import instructions as I
from repro.ir.passes import O3Options, replay_o3
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


# -- one mutant through the replay --------------------------------------------------


class Miscompile:
    """The ``corrupt=`` hook of a miscompiling pass: ``corruption`` after
    every application, counting the applications it changed a body in."""

    def __init__(self, corruption) -> None:
        self.corruption = corruption
        self.applied = 0

    def __call__(self, result, f, *_args):
        if not self.corruption(f):
            return None
        self.applied += 1
        f.bump_version()
        # a miscompiling pass is wrong about the code, not about having
        # touched it (the lying pass has its own tests in test_validation)
        if hasattr(result, "vectorized"):
            result.vectorized = True
            return None
        return True


class Row(NamedTuple):
    """One cell of the table: the mutant's class and whom the replay
    blames."""

    cls: str
    blamed: list[str]

    def __str__(self) -> str:
        if self.cls == "caught":
            return f"caught ({', '.join(self.blamed)})"
        return self.cls


def classify(func: Function, pristine: Function, pass_name: str,
             corruption) -> Row:
    """``inert`` (the corruption never changed a body), ``caught`` (the
    replay blames and quarantines the mutant's own pass), ``uncaught``
    (it blames nobody), or ``MISBLAMED`` — rejections that never name the
    mutant's pass, the failure this file exists to catch.

    ``unroll`` settles each loop it peels with the cleanup passes, so a
    miscompiling cleanup pass still runs inside it after its own
    quarantine, and the replay may blame ``unroll`` too."""
    restore_function(func, clone_function(pristine))
    validator = PassValidator()
    corrupt = Miscompile(corruption)
    with inject_faults(f"pass:{pass_name}", every=True, corrupt=corrupt):
        blamed = replay_o3(func, O3Options(), None,
                           validator).rejected_passes
    if not corrupt.applied:
        return Row("inert", [])
    if not blamed:
        return Row("uncaught", [])
    quarantined = sorted(validator.negative._store.keys())
    if pass_name in blamed and \
            quarantined == sorted(f"o3pass:{p}" for p in blamed):
        return Row("caught", blamed)
    return Row("MISBLAMED", blamed)


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

#: mutants that corrupt a body and that the replay does not reject.
#: ``loop``: the constant and the store belong to the lifted virtual stack,
#: which the comparison excludes.  ``line``: both conclusive probes pass
#: loop bounds that run zero iterations, so no verdict on this kernel has
#: ever executed its loop body
UNCAUGHT = _names({
    "loop": {"skewed-constant": "mem2reg", "dropped-store": "simplifycfg"},
    "line": {"skewed-constant": _ALL_BUT_INLINE,
             "dropped-store": _ALL_BUT_INLINE},
})

#: a trap the mutant inserts is caught by the pass that inserted it, even
#: where a later ``dce`` would erase it again before the body is installed
DEAD_TRAPS_CAUGHT = _names({
    "poly": {"dead-trap": "constprop gvn instcombine"},
    "loop": {"dead-trap":
             "constprop gvn instcombine mem2reg simplifycfg unroll"},
    "line": {"dead-trap":
             "constprop gvn instcombine mem2reg simplifycfg unroll "
             "vectorize"},
})


@pytest.mark.parametrize("function", sorted(FUNCTIONS))
def test_per_pass_catch_table(function):
    by_class: dict[str, set[str]] = {}
    for (p, c), row in matrix(function).items():
        by_class.setdefault(row.cls, set()).add(f"{function}/{p}/{c}")
    assert not by_class.get("MISBLAMED"), \
        "the replay rejects a mutant under another pass's name"

    def mine(names):
        return {n for n in names if n.startswith(function + "/")}

    assert by_class.get("uncaught", set()) == mine(UNCAUGHT)
    assert mine(DEAD_TRAPS_CAUGHT) <= by_class["caught"]
    # the row is not vacuous: most live mutants are caught
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
