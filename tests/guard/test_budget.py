"""Resource budgets: fuel counters, deadlines, and pipeline threading."""

import pytest

from repro.cc import compile_c
from repro.dbrew import Rewriter, raising_error_handler
from repro.errors import BudgetExceededError
from repro.guard import Budget
from repro.ir.passes import run_o3
from repro.jit.plan import DEFAULT_O3, Pipeline, Plan
from repro.lift import FunctionSignature, LiftOptions, lift_function


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_counter_exhaustion_raises_with_context():
    b = Budget(max_lift_instructions=2).start()
    b.charge("lift_instructions", stage="lift", addr=0x10)
    b.charge("lift_instructions", stage="lift", addr=0x11)
    with pytest.raises(BudgetExceededError) as ei:
        b.charge("lift_instructions", stage="lift", addr=0x12)
    assert ei.value.context["stage"] == "lift"
    assert ei.value.context["counter"] == "lift_instructions"
    assert ei.value.context["limit"] == 2
    assert ei.value.context["addr"] == 0x12


def test_unlimited_counters_never_raise():
    b = Budget().start()
    for _ in range(10_000):
        b.charge("emulated", stage="rewrite")
    assert b.spent["emulated"] == 10_000


def test_deadline_with_fake_clock():
    clk = FakeClock()
    b = Budget(deadline_seconds=5.0, clock=clk).start()
    clk.now = 4.9
    b.check_deadline("opt")
    clk.now = 5.1
    with pytest.raises(BudgetExceededError) as ei:
        b.check_deadline("opt")
    assert ei.value.context["stage"] == "opt"


def test_start_rearms_deadline_and_zeroes_counters():
    clk = FakeClock()
    b = Budget(deadline_seconds=5.0, max_emulated=3, clock=clk).start()
    b.charge("emulated", stage="rewrite", n=3)
    clk.now = 10.0
    b.start()
    assert b.spent["emulated"] == 0
    b.check_deadline("rewrite")  # re-armed: 0 elapsed again
    b.charge("emulated", stage="rewrite", n=3)  # fuel refilled


def test_lazy_deadline_arming_keeps_charged_fuel():
    # a budget used without an explicit start() (standalone transformer)
    # arms its deadline on the first stride check — that must not discard
    # the fuel already charged
    clk = FakeClock()
    b = Budget(deadline_seconds=5.0, max_emulated=100, clock=clk)
    from repro.guard.budget import _DEADLINE_STRIDE
    for _ in range(_DEADLINE_STRIDE):  # the Nth charge polls the deadline
        b.charge("emulated", stage="rewrite")
    assert b.spent["emulated"] == _DEADLINE_STRIDE
    clk.now = 5.1  # the lazily-armed deadline still fires
    with pytest.raises(BudgetExceededError):
        b.check_deadline("rewrite")


def test_snapshot_reports_spend():
    b = Budget(max_trace_points=10).start()
    b.charge("trace_points", stage="rewrite", n=4)
    snap = b.snapshot()
    assert snap["spent"]["trace_points"] == 4
    assert snap["limits"]["trace_points"] == 10


def test_lift_respects_instruction_budget():
    prog = compile_c(
        "long f(long n) { long s = 0;"
        " for (long i = 0; i < n; i++) s += i; return s; }")
    budget = Budget(max_lift_instructions=3).start()
    with pytest.raises(BudgetExceededError) as ei:
        lift_function(prog.image.memory, prog.image.symbol("f"),
                      FunctionSignature(("i",), "i"),
                      LiftOptions(budget=budget))
    assert ei.value.context["counter"] == "lift_instructions"


def test_lift_charges_the_same_fuel_every_time():
    """What a lift costs does not depend on what the process lifted before:
    lifting one function twice in one image charges equal fuel."""
    prog = compile_c("long f(long a) { if (a > 0) return a * 3; return -a; }")
    spent = []
    for _ in range(2):
        budget = Budget()
        lift_function(prog.image.memory, prog.image.symbol("f"),
                      FunctionSignature(("i",), "i"),
                      LiftOptions(budget=budget))
        spent.append((budget.spent["lift_instructions"],
                      budget.spent["lift_blocks"]))
    assert spent == [(12, 4), (12, 4)]


def test_rewriter_respects_emulation_budget():
    prog = compile_c(
        "long f(long n) { long s = 0;"
        " for (long i = 0; i < 64; i++) s += i; return s; }")
    r = Rewriter(prog.image, "f", budget=Budget(max_emulated=10).start())
    r.error_handler = raising_error_handler
    r.set_signature(("i",), "i")
    with pytest.raises(BudgetExceededError) as ei:
        r.rewrite(name="f.spec")
    assert ei.value.context["counter"] == "emulated"
    assert ei.value.context["stage"] == "rewrite"


def test_run_o3_respects_iteration_budget():
    prog = compile_c("long f(long a) { return (a + 1) * 2 - a; }")
    func = lift_function(prog.image.memory, prog.image.symbol("f"),
                         FunctionSignature(("i",), "i"))
    with pytest.raises(BudgetExceededError) as ei:
        run_o3(func, budget=Budget(max_opt_iterations=0).start())
    assert ei.value.context["counter"] == "opt_iterations"


def test_transformer_threads_budget_through_stages():
    prog = compile_c("long f(long a, long b) { return a * b; }")
    pipeline = Pipeline(prog.image,
                        budget=Budget(max_lift_instructions=1).start())
    with pytest.raises(BudgetExceededError):
        pipeline.compile(Plan("llvm", LiftOptions(), DEFAULT_O3), "f",
                         FunctionSignature(("i", "i"), "i"), None, "f2")
