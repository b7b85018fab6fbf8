"""The '-O3' pass pipeline (Sec. IV: "standard optimization pipeline with
level 3 ... optionally, floating-point optimizations can be enabled").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable

from repro.ir.module import Function
from repro.ir.passes import (
    constprop, dce, gvn, inline, instcombine, mem2reg, schedule, simplifycfg,
    unroll, vectorize,
)
from repro.ir.passes.schedule import set_verify_after_each_pass  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.validate import PassValidator, PassVerdict


@dataclass(frozen=True)
class O3Options:
    """Pipeline configuration.

    ``fast_math`` mirrors ``-ffast-math`` (enables reassociation-dependent
    folds; currently only constant folding differences).  The ablation
    switches let benchmarks measure which passes matter, the paper's stated
    follow-up goal ("identify a small subset of optimizations ... without
    the heavy cost of LLVM", Sec. VII).
    """

    fast_math: bool = True
    enable_inline: bool = True
    enable_unroll: bool = True
    enable_gvn: bool = True
    enable_instcombine: bool = True
    enable_mem2reg: bool = True
    #: 0 = let the (metadata-gated) cost model decide; 2 = the paper's
    #: ``-force-vector-width=2`` experiment (Sec. VI-B)
    force_vector_width: int = 0
    max_iterations: int = 8

    def replace(self, **kw) -> "O3Options":
        """A copy with the given fields changed.

        ``O3Options`` is frozen (it is hashed into cache keys), so ablation
        studies and mode overrides derive variants through this instead of
        re-spelling every field.
        """
        return dataclasses.replace(self, **kw)

    @staticmethod
    def lightweight() -> "O3Options":
        """The paper's Sec. VII proposal: a *small subset* of passes as
        cheap post-processing for DBrew "without the heavy cost of LLVM".

        Per the ablation study (bench_ablation_passes.py) the essential
        passes for lifted/rewritten code are stack promotion and the basic
        cleanups; GVN, unrolling and reassociation are dropped, and the
        pipeline runs a single iteration.
        """
        return O3Options(
            fast_math=False,
            enable_inline=False,
            enable_unroll=False,
            enable_gvn=False,
            # the facet cache makes instcombine non-essential (see the
            # ablation bench), so the subset is just: SimplifyCFG + SROA of
            # the virtual stack + constant folding + ADCE
            enable_instcombine=False,
            enable_mem2reg=True,
            max_iterations=1,
        )


@dataclass
class O3Report:
    """What one ``run_o3`` invocation actually did (cold-path telemetry)."""

    iterations: int = 0
    converged: bool = False
    vectorized: bool = False
    #: per-pass validation verdicts (only a :func:`replay_o3` fills them)
    pass_log: "list[PassVerdict]" = field(default_factory=list)
    #: passes rejected (and rolled back) by validation, in rejection order
    rejected_passes: list[str] = field(default_factory=list)
    #: this run was executed under translation validation
    validated: bool = False
    #: pass applications the scheduler proved idle and skipped, in skip
    #: order (repro.ir.passes.schedule; skipping never changes the IR)
    skipped_passes: list[str] = field(default_factory=list)
    #: scheduling was disabled mid-run (e.g. validator quarantine), and why
    schedule_disabled: str | None = None

    @property
    def miscompiled_pass(self) -> str | None:
        """The first pass validation caught miscompiling (None = clean)."""
        return self.rejected_passes[0] if self.rejected_passes else None


def run_o3(func: Function, options: O3Options = O3Options(),
           budget: "object | None" = None) -> O3Report:
    """Optimize one function in place to a fixpoint (bounded).

    The sweep loop exits as soon as a full pass sweep reports no change;
    when that fixed point is reached (and vectorization does nothing), the
    trailing DCE/SimplifyCFG cleanup is skipped too — those passes just ran
    to a fixpoint inside the loop, so re-running them is pure overhead on
    the runtime compile path.

    A ``budget`` (:class:`repro.guard.Budget`) charges ``opt_iterations``
    fuel per sweep and polls the wall-clock deadline; it is a keyword
    argument rather than an :class:`O3Options` field because options are
    hashed into cache keys and a budget never changes the produced IR.
    The validated sweep is :func:`replay_o3`.
    """
    report = O3Report()
    _sweep(func, options, budget, None, schedule.Scheduler(func), report)
    return report


def replay_o3(func: Function, options: O3Options, budget: "object | None",
              validator: "PassValidator") -> O3Report:
    """The sweep with one validated application per pass.

    A pass the validator rejects is rolled back, named in
    ``O3Report.rejected_passes`` and quarantined as ``o3pass:<name>``, and
    the rest of the pipeline keeps running, charging the budget like any
    sweep.  Passes are deterministic, so replayed over a fresh lift of a
    rejected candidate, this meets the same fault again, now between two
    bodies one pass apart.
    """
    report = O3Report(validated=True)
    _sweep(func, options, budget, validator,
           schedule.Scheduler(func, validator), report)
    return report


def _sweep(func: Function, options: O3Options, budget: "object | None",
           validator: "PassValidator | None", sched: schedule.Scheduler,
           report: O3Report) -> bool:
    """One bounded-fixpoint sweep over ``func``, filling in ``report``;
    with a ``validator`` every pass application is validated.  Returns
    whether any step changed the function."""
    with sched.owning():
        return _steps(func, options, budget, validator, sched, report)


def _steps(func: Function, options: O3Options, budget: "object | None",
           validator: "PassValidator | None", sched: schedule.Scheduler,
           report: O3Report) -> bool:
    any_changed = False

    def step(mod: ModuleType, *args: Any,
             changed_of: Callable[[Any], bool] = bool, **kwargs: Any) -> bool:
        nonlocal any_changed
        name = schedule.pass_name(mod)
        if sched.should_skip(name, lambda: mod.idle(func, *args, **kwargs),
                             **kwargs):
            report.skipped_passes.append(name)
            if schedule.VERIFY_AFTER_EACH_PASS:
                schedule.check_after(func, mod, *args, changed_of=changed_of,
                                     **kwargs)
            return False

        def thunk() -> Any:
            # ``run`` is looked up per call: whoever wraps it sees each one
            return mod.run(func, *args, **kwargs)

        try:
            sched.note_result(name)
            if validator is None:
                changed = bool(changed_of(thunk()))
            else:
                _result, verdict = validator.run_pass(
                    name, thunk, func, changed_of=changed_of)
                report.pass_log.append(verdict)
                if not verdict.ok:
                    # a rejection (or a quarantine hit) marks this pipeline
                    # as suspect: no further skipping and no journal —
                    # every pass walks everything under full validation
                    sched.disable(f"quarantined:{name}")
                    if not verdict.quarantined:
                        report.rejected_passes.append(name)
                changed = verdict.changed
            if schedule.VERIFY_AFTER_EACH_PASS:
                schedule.check_after(func, mod, *args, changed_of=changed_of,
                                     **kwargs)
        finally:
            report.schedule_disabled = sched.disabled_reason
        any_changed |= changed
        return changed

    if budget is not None:
        # each sweep boundary polls the deadline: the -O3 sweep is the
        # longest stretch of a compile that charges no fuel
        budget.check_deadline("opt")
    step(simplifycfg)
    if options.enable_mem2reg:
        step(mem2reg)
        step(simplifycfg)
    for _ in range(options.max_iterations):
        if budget is not None:
            budget.charge("opt_iterations", stage="opt")
            budget.check_deadline("opt")
        report.iterations += 1
        changed = False
        if options.enable_inline:
            changed |= step(inline)
        changed |= step(constprop)
        if options.enable_instcombine:
            changed |= step(instcombine, options.fast_math)
        if options.enable_gvn:
            changed |= step(gvn)
        changed |= step(dce)
        changed |= step(simplifycfg)
        if options.enable_mem2reg:
            changed |= step(mem2reg)
        if options.enable_unroll:
            changed |= step(unroll)
        if not changed:
            report.converged = True
            break
    report.vectorized = step(
        vectorize, force_vector_width=options.force_vector_width,
        changed_of=lambda v: v.vectorized)
    if report.vectorized:
        step(constprop)
        if options.enable_instcombine:
            step(instcombine, options.fast_math)
    if report.vectorized or not report.converged:
        step(dce)
        step(simplifycfg)
    return any_changed
