"""One compile -> verify -> install pipeline (the paper's Fig. 1, once).

Every front door — :class:`~repro.jit.BinaryTransformer`, :class:`~repro.
guard.GuardedTransformer`, :class:`~repro.instrument.Instrumenter` — runs
the same fixed sequence of stages under a :class:`Plan`, its policy
(DESIGN §16)::

    compile:  [dbrew] -> lift -> [fix] -> O3 -> [inject] -> codegen
              -> [machine-verify]
    admit:    [pregate] -> [gate] -> mark gated | evict

:meth:`Pipeline.compile` owns the staged cache (look-ups and stores, DBrew's
rewrite stage included), the budget's deadline polls and the
``machine:<module key>`` quarantine; a module-stage hit enters the same
tail at codegen.  A miss compiles on the caller's thread, whoever else is
compiling the same key.
:meth:`Pipeline.admit` is validate-before-swap, and
:meth:`Pipeline.run` is both plus the recovery of a rejected candidate.
What can only *reject* work — budget, validator, machine verification,
pregate, gate — is never part of a cache key.

A pass validator only assigns blame, whatever the plan's gate.  A pipeline
with one verifies each -O3'd function once (``verify``); the validator's
interpreter runs only when a candidate has been rejected, replaying -O3
per pass to name the pass, and while that pass is in quarantine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from repro.analysis import machine as M
from repro.analysis.checkers import run_checkers
from repro.analysis.findings import errors_only
from repro.analysis.probes import check_probe_ops
from repro.cache import MachineEntry, SpecializationCache
from repro.cache import keys as cache_keys
from repro.cpu.image import Image
from repro.dbrew import Rewriter, raising_error_handler
from repro.errors import IRError, ReproError, VerificationError
from repro.ir import verify
from repro.ir.codegen import JITEngine
from repro.ir.module import Function, Module
from repro.ir.passes import O3Options, O3Report, replay_o3, run_o3
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.lift.fixation import FixedMemory, build_fixation_wrapper
from repro.obs import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - repro.guard/instrument import us
    from repro.guard.verify import GateOptions, GateReport
    from repro.instrument.passes import InstrumentOptions

Fixes = dict[int, int | float | FixedMemory] | None

#: the rejections that judge a candidate's -O3 output — the verifier after
#: -O3, the pregate and the gate — and so send a pipeline with a validator
#: looking for the pass to blame
O3_JUDGED = ("o3-verify", "static-verify", "verify")

#: shared default of the frozen O3 options, read by every front door that
#: builds a :class:`Plan`.  A caller that builds a transformer per request
#: (``bench.modes.prepare_kernel``, one per cell, DBrew cells included)
#: would otherwise construct it on every warm hit and look its digest up by
#: ``==`` instead of identity
DEFAULT_O3 = O3Options()


@dataclass(frozen=True)
class Plan:
    """What one request compiles and how far its result is trusted.

    A value: front doors build it from their constructor kwargs, and the
    guard swaps :attr:`rung` while it walks its ladder.
    Code generation is not part of it: the JIT has one configuration.
    """

    #: ``llvm`` (lift -> O3 -> JIT), ``llvm-fix`` (plus IR-level parameter
    #: fixation) or ``dbrew+llvm`` (DBrew rewrite first, then ``llvm``)
    rung: str
    lift: LiftOptions
    o3: O3Options
    #: the one post-O3 IR stage: inject probes under these options.  Such a
    #: module bakes its probe buffer's address in, so it bypasses the cache
    inject: "InstrumentOptions | None" = None
    #: static checkers :meth:`Pipeline.admit` runs on the candidate's IR
    pregate: tuple = ()
    #: prove each fresh emission equivalent to its IR before installing it
    machine_verify: bool = False
    #: differential gate: ``always``, ``if-inconclusive`` (only when the
    #: machine proof could neither prove nor refute) or ``never``
    gate: str = "never"
    gate_options: "GateOptions | None" = None


class Probes(NamedTuple):
    """What the inject stage produced for an instrumented plan."""

    plan: Any    # repro.instrument.passes.ProbePlan
    buffer: Any  # repro.instrument.buffer.ProbeBuffer


@dataclass
class TransformResult:
    """Outcome of one runtime transformation."""

    addr: int
    name: str
    function: Function
    module: Module
    lift_seconds: float = 0.0
    optimize_seconds: float = 0.0
    codegen_seconds: float = 0.0
    #: which cache stage served this transform (None = full compile)
    cache_stage: str | None = None
    #: key of the installed code in the machine cache — the module key it
    #: was emitted from (None = no cache)
    machine_key: str | None = None
    #: the served machine entry had already passed the verification gate
    #: (only meaningful on a machine-stage hit; see MachineEntry.gated)
    machine_gated: bool = False
    #: the main function's pipeline report (None on machine/module cache
    #: hits — the optimizer did not run); carries per-pass validation
    #: verdicts when -O3 ran as a replay (a pass in quarantine)
    o3_report: "O3Report | None" = None
    #: machine-level translation-validation verdict for the installed code
    #: ("proved"/"inconclusive"; "refuted" never reaches a result — it
    #: raises).  None when the plan runs without ``machine_verify`` or the
    #: serving cache entry predates verification.
    machine_verdict: str | None = None
    #: wall-clock cost of the machine-level proof (0.0 on warm hits — the
    #: verdict is stored with the installed entry and served for free)
    machine_verify_seconds: float = 0.0
    #: key of the post-O3 module this compile stored in the module cache
    #: (None on a machine-stage hit or without a cache) — a rejected
    #: candidate evicts it with its machine entry
    module_key: str | None = None
    #: instrumented plans: what the inject stage produced, and its wall time
    probes: Probes | None = None
    inject_seconds: float = 0.0
    #: wall time :meth:`Pipeline.admit` spent on this candidate
    pregate_seconds: float = 0.0
    gate_seconds: float = 0.0
    #: the pass :meth:`Pipeline.run` blamed for a rejected first candidate
    #: and quarantined before rebuilding this one (None: no recovery)
    blamed_pass: str | None = None
    #: the differential gate's report (None: no gate ran on this request)
    gate: "GateReport | None" = None

    @property
    def total_seconds(self) -> float:
        return self.lift_seconds + self.optimize_seconds + self.codegen_seconds


def _o3_order(module: Module, main: Function) -> list[Function]:
    """The defined functions, lifted callees first so the inliner sees
    their real (small) size, then ``main``."""
    return [*(f for f in module.functions.values()
              if f is not main and not f.is_declaration), main]


def verify_emitted(jit: JITEngine, name: str):
    """Prove the function ``jit`` just emitted equivalent to its IR.

    Thin wrapper over :func:`repro.analysis.machine.verify_witness` that
    feeds the ``machine.verify.*`` metrics counters.  A missing witness
    (backend hook disabled) is *inconclusive*, not proved —
    nothing-to-check is not a proof.
    """
    witness = jit.last_witness
    if witness is None:
        report = M.VerifyResult(
            verdict=M.INCONCLUSIVE,
            reasons=[f"backend produced no witness for {name!r}"])
    else:
        report = M.verify_witness(witness)
    _metrics.counter(f"machine.verify.{report.verdict}").inc()
    return report


class Pipeline:
    """Runs :class:`Plan`\\ s against one image: compile, then admit."""

    def __init__(self, image: Image, *,
                 cache: SpecializationCache | None = None,
                 budget: "object | None" = None,
                 validator: "object | None" = None) -> None:
        self.image = image
        self.cache = cache
        #: shared :class:`repro.guard.Budget` charged by the dbrew / lift /
        #: opt / codegen / gate stages (None = unlimited)
        self.budget = budget
        #: per-pass translation validator (:class:`repro.analysis.validate.
        #: PassValidator`): with one, every -O3'd function is verified,
        #: a rejected candidate is replayed to blame a pass, and -O3 is a
        #: replay while a pass is in quarantine.  Warm cache hits skip
        #: optimization and therefore all of it
        self.validator = validator

    # -- compile ---------------------------------------------------------------

    def compile(self, plan: Plan, func: str | int,
                signature: FunctionSignature, fixes: Fixes, out_name: str, *,
                mem_regions: Sequence[tuple[int, int]] = (),
                dbrew_func: str | int | None = None) -> TransformResult:
        """Build and install ``plan``'s code for ``func`` under ``out_name``.

        ``fixes`` drives the DBrew and fixation stages (``llvm`` ignores
        it); ``mem_regions``/``dbrew_func`` are DBrew's extra fixed memory
        and its optional separate entry.  A refuted machine proof raises
        before the code can reach the machine cache.
        """
        source = self._source(plan, func, signature, fixes, out_name,
                              mem_regions, dbrew_func)
        return self._transform(plan, source, signature, fixes, out_name)

    def run(self, plan: Plan, func: str | int, signature: FunctionSignature,
            fixes: Fixes, out_name: str, *,
            mem_regions: Sequence[tuple[int, int]] = (),
            dbrew_func: str | int | None = None,
            probes: Sequence[tuple] = ()) -> TransformResult:
        """:meth:`compile`, then :meth:`admit` against ``func``.

        With a validator, a candidate whose -O3 output the verifier, the
        pregate or the gate rejects is the cue to blame a pass: -O3 is
        replayed per pass under the validator on a fresh lift, the pass it
        rejects is quarantined as ``o3pass:<name>`` and the rung is rebuilt
        — as a replay, like every O3 under an active quarantine — and
        admitted once more.  The result then names the pass in
        ``blamed_pass``, and a rebuild that fails too raises with
        ``blamed_pass`` in its context.  With no pass blamed the first
        rejection stands.
        """
        source = self._source(plan, func, signature, fixes, out_name,
                              mem_regions, dbrew_func)
        try:
            result = self._transform(plan, source, signature, fixes, out_name)
            self.admit(plan, result, func, signature, fixes, probes)
            return result
        except ReproError as exc:
            if self.validator is None \
                    or exc.context.get("stage") not in O3_JUDGED:
                raise
            blamed = self._blame(plan, source, signature, fixes, out_name)
            if blamed is None:
                raise
        try:
            result = self._transform(plan, source, signature, fixes, out_name)
            self.admit(plan, result, func, signature, fixes, probes)
        except ReproError as exc:
            raise exc.with_context(blamed_pass=blamed)
        result.blamed_pass = blamed
        return result

    def _source(self, plan: Plan, func: str | int,
                signature: FunctionSignature, fixes: Fixes, out_name: str,
                mem_regions: Sequence[tuple[int, int]],
                dbrew_func: str | int | None) -> str | int:
        """The entry the lifter reads: DBrew's output on its rung."""
        if plan.rung != "dbrew+llvm":
            return func
        return self.rewrite(func if dbrew_func is None else dbrew_func,
                            signature, fixes, mem_regions,
                            out_name + ".dbrew")[0]

    def rewrite(self, func: str | int, signature: FunctionSignature,
                fixes: Fixes, mem_regions: Sequence[tuple[int, int]],
                name: str) -> tuple[int, bool]:
        """The DBrew stage alone: specialize ``func`` for ``fixes`` and the
        fixed ``mem_regions``, install it as ``name`` and return its entry
        and whether the cache's rewrite stage served it.

        A :class:`~repro.lift.fixation.FixedMemory` fixes its address and
        declares its region fixed.  An identical request (the same entry
        code at the same address, configuration and fixed bytes) aliases
        the code stored for it.  A rewrite that cannot finish raises its
        typed :class:`~repro.errors.RewriteError` instead of falling back
        to the original (Sec. II's default handler).
        """
        rw = Rewriter(self.image, func, budget=self.budget)
        rw.error_handler = raising_error_handler
        rw.set_signature(signature.params, signature.ret)
        for i, v in (fixes or {}).items():
            if isinstance(v, FixedMemory):
                rw.set_par(i, v.addr)
                rw.set_mem(v.addr, v.addr + v.size)
            elif isinstance(v, float):
                rw.set_par_f64(i, v)
            else:
                rw.set_par(i, v)
        for start, end in mem_regions:
            rw.set_mem(start, end)
        image, cache = self.image, self.cache
        rkey = self._rewrite_key(cache, rw) if cache is not None else None
        if rkey is None:
            return rw.rewrite(name=name), False
        assert cache is not None
        hit = cache.get_rewrite(image, rkey)
        if hit is not None:
            image.symbols[name], image.func_sizes[name] = hit
            return hit[0], True
        addr = rw.rewrite(name=name)
        cache.put_rewrite(image, rkey, addr, image.func_sizes[name])
        return addr, False

    def _rewrite_key(self, cache: SpecializationCache,
                     rw: Rewriter) -> str | None:
        """DBrew's key for ``rw``'s request (None when its entry's extent
        is unknown), derived once per image state: memoized under the
        entry's extent and the rewriter's configuration."""
        image = self.image
        extent = cache_keys.function_extent(image, rw.entry)
        if extent is None:
            return None
        config = rw.config()
        return cache.derived_keys(
            image, ("dbrew", extent, config),
            lambda: cache_keys.rewrite_key(image, rw.entry, config))

    def _transform(self, plan: Plan, func: str | int,
                   signature: FunctionSignature, fixes: Fixes,
                   out_name: str) -> TransformResult:
        """The installed machine entry for the request's keys, else the
        miss path (:meth:`_build`) on the caller's thread.  Only the
        ``llvm-fix`` rung reads ``fixes``."""
        fixed = plan.rung == "llvm-fix"
        if not fixed:
            fixes = None
        cache = self.cache if plan.inject is None else None
        lkey = mkey = None
        if cache is not None:
            lkey, mkey = self._keys(cache, plan, func, signature, fixes,
                                    fixed)
            if mkey is not None:
                served = self._serve_machine(cache, mkey, out_name)
                if served is not None:
                    return served
        return self._build(plan, func, signature, fixes, out_name, fixed,
                           lkey, mkey)

    def _keys(self, cache: SpecializationCache, plan: Plan, func: str | int,
              signature: FunctionSignature, fixes: Fixes,
              fixed: bool) -> tuple[str | None, str | None]:
        """The request's lifted and module keys (None, None when ``func``'s
        extent is unknown), derived once per image state: memoized under
        the inputs the digests are taken over."""
        image = self.image
        extent = cache_keys.function_extent(image, func)
        if extent is None:
            return None, None
        mode = "fixed" if fixed else "identity"
        fixation = cache_keys.fixation(fixes, image.memory)

        def derive() -> tuple[str | None, str | None]:
            lkey = cache_keys.lifted_key(image, func, signature, plan.lift)
            assert lkey is not None
            return lkey, cache_keys.module_key(
                lkey, mode, cache_keys.fixation_digest(fixation),
                cache_keys.options_digest(plan.o3))

        return cache.derived_keys(image, (
            "llvm", extent, signature,
            cache_keys.lift_options_value(plan.lift, image), mode, plan.o3,
            fixation), derive)

    def _serve_machine(self, cache: SpecializationCache, mkey: str,
                       out_name: str) -> TransformResult | None:
        """Alias an installed machine entry under ``out_name``, if cached."""
        entry = cache.get_machine(self.image, mkey)
        if entry is None:
            return None
        # already installed in this image: alias the requested name
        # to the existing code, nothing to compile
        self.image.symbols[out_name] = entry.addr
        self.image.func_sizes[out_name] = entry.size
        cache.note_transform("machine")
        return TransformResult(entry.addr, out_name, entry.function,
                               entry.module, cache_stage="machine",
                               machine_key=mkey, machine_gated=entry.gated,
                               machine_verdict=entry.machine_verdict)

    def _build(self, plan: Plan, func: str | int,
               signature: FunctionSignature, fixes: Fixes, out_name: str,
               fixed: bool, lkey: str | None,
               mkey: str | None) -> TransformResult:
        """The miss path: module-stage look-up, else lift -> fix -> O3."""
        cache = self.cache
        if plan.machine_verify and mkey is not None:
            assert cache is not None
            neg = cache.check_negative(f"machine:{mkey}")
            if neg is not None:
                raise VerificationError(
                    f"machine verification previously refuted {out_name!r}: "
                    f"{neg.reason}", stage="machine-verify", name=out_name,
                    quarantined=True)
        if mkey is not None:
            assert cache is not None
            hit = cache.get_module(mkey)
            if hit is not None:
                module, main_name = hit
                return self._emit(plan, module, module.functions[main_name],
                                  out_name, mkey, "module")

        module = lifted = stage = None
        t_lift = 0.0
        if lkey is not None:
            assert cache is not None
            hit = cache.get_lifted(lkey)
            if hit is not None:
                module, lifted_name = hit
                lifted = module.functions[lifted_name]
                stage = "lifted"
        if module is None or lifted is None:
            module = Module(f"tx.{out_name}")
            lifted, t_lift = self._lift(
                plan.lift, func, signature, module,
                out_name + (".orig" if fixed else ".lifted"))
            if lkey is not None:
                assert cache is not None
                cache.put_lifted(lkey, module, lifted.name)

        t0 = time.perf_counter()
        main = self._fix(module, lifted, fixes, out_name) if fixed \
            else lifted
        o3_report = self._optimize(plan, module, main, out_name)
        t_opt = time.perf_counter() - t0
        if mkey is not None:
            assert cache is not None
            cache.put_module(mkey, module, main.name)
        return self._emit(plan, module, main, out_name, mkey, stage,
                          t_lift, t_opt, o3_report)

    def _fix(self, module: Module, lifted: Function, fixes: Fixes,
             out_name: str) -> Function:
        return build_fixation_wrapper(module, lifted, fixes or {},
                                      self.image.memory, name=out_name)

    def _optimize(self, plan: Plan, module: Module, main: Function,
                  out_name: str) -> O3Report:
        """-O3 on every defined function of ``module``; returns ``main``'s
        report.

        With a validator each function is verified once, and a malformed
        one raises ``IRError`` with ``stage="o3-verify"`` before the module
        can reach the cache — unless a pass is in quarantine: then every
        function is a :func:`replay_o3`, which checks each pass itself.
        """
        validator = self.validator
        replay = validator is not None \
            and validator.quarantined() is not None  # type: ignore[attr-defined]
        report = None
        for f in _o3_order(module, main):
            if replay:
                report = replay_o3(f, plan.o3, self.budget, validator)
                continue
            report = run_o3(f, plan.o3, budget=self.budget)
            if validator is not None:
                try:
                    verify(f)
                except IRError as exc:
                    raise exc.with_context(stage="o3-verify", name=out_name)
        assert report is not None
        return report

    def _blame(self, plan: Plan, func: str | int,
               signature: FunctionSignature, fixes: Fixes,
               out_name: str) -> str | None:
        """Replay -O3 per pass under the validator on a fresh lift of
        ``func``; the first pass it rejects — and quarantines — is blamed."""
        fixed = plan.rung == "llvm-fix"
        module = Module(f"blame.{out_name}")
        lifted, _t = self._lift(plan.lift, func, signature, module,
                                out_name + (".orig" if fixed else ".lifted"))
        main = self._fix(module, lifted, fixes, out_name) if fixed \
            else lifted
        for f in _o3_order(module, main):
            rejected = replay_o3(f, plan.o3, self.budget,
                                 self.validator).rejected_passes
            if rejected:
                return rejected[0]
        return None

    def _lift(self, lift: LiftOptions, func: str | int,
              signature: FunctionSignature, module: Module,
              name: str) -> tuple[Function, float]:
        entry = self.image.symbol(func) if isinstance(func, str) else func
        known = dict(lift.known_functions)
        t0 = time.perf_counter()
        # lift every known call target as a *definition* first, so the IR
        # inliner can see through calls (Sec. III-B: translating call to
        # call "leaves the decision on inlining to the LLVM optimizer")
        for callee_addr, (callee_name, callee_sig) in known.items():
            existing = module.functions.get(callee_name)
            if existing is None or existing.is_declaration:
                lift_function(
                    self.image.memory, callee_addr, callee_sig,
                    replace(lift, name=callee_name, known_functions=known,
                            budget=self.budget), module)
        lifted = lift_function(
            self.image.memory, entry, signature,
            replace(lift, name=name, known_functions=known,
                    budget=self.budget), module)
        return lifted, time.perf_counter() - t0

    def _emit(self, plan: Plan, module: Module, main: Function,
              out_name: str, mkey: str | None = None,
              stage: str | None = None,
              t_lift: float = 0.0, t_opt: float = 0.0,
              o3_report: "O3Report | None" = None) -> TransformResult:
        """The tail every compile shares: [inject] -> codegen ->
        [machine-verify] -> machine-cache store."""
        probes, t_inject = None, 0.0
        if plan.inject is not None:
            probes, t_inject = self._inject(main, plan.inject)
        if self.budget is not None:
            self.budget.check_deadline("codegen")  # type: ignore[attr-defined]
        t0 = time.perf_counter()
        jit = JITEngine(self.image)
        addr = jit.compile_function(main, name=out_name)
        t_codegen = time.perf_counter() - t0
        verdict, t_verify = None, 0.0
        if plan.machine_verify:
            report = verify_emitted(jit, out_name)
            if report.verdict == "refuted":
                detail = "; ".join(
                    f.format() for f in report.findings if f.is_error) \
                    or "machine-level proof refuted"
                # quarantined like an ``o3pass:`` rejection, so repeat
                # requests fail fast; nothing reaches put_machine
                if mkey is not None:
                    assert self.cache is not None
                    self.cache.put_negative(
                        f"machine:{mkey}", "machine-verify", detail)
                raise VerificationError(
                    f"machine verification refuted {out_name!r}: {detail}",
                    stage="machine-verify", name=out_name,
                    findings=tuple(report.findings))
            verdict, t_verify = report.verdict, report.seconds
        if mkey is not None:
            assert self.cache is not None
            self.cache.put_machine(self.image, mkey, MachineEntry(
                addr, out_name, self.image.func_sizes[out_name], main, module,
                machine_verdict=verdict))
            self.cache.note_transform(stage)
        return TransformResult(
            addr, out_name, main, module, t_lift, t_opt, t_codegen,
            cache_stage=stage, machine_key=mkey, o3_report=o3_report,
            machine_verdict=verdict, machine_verify_seconds=t_verify,
            module_key=mkey, probes=probes, inject_seconds=t_inject)

    def _inject(self, main: Function,
                options: "InstrumentOptions") -> tuple[Probes, float]:
        """Probes go in *after* O3, so they count the code that actually
        runs and no pass can move, merge or delete them."""
        from repro.instrument.buffer import ProbeBuffer
        from repro.instrument.passes import inject_probes, plan_probes

        t0 = time.perf_counter()
        probe_plan = plan_probes(main, options)
        buffer = ProbeBuffer.allocate(self.image, probe_plan)
        inject_probes(main, probe_plan, buffer)
        verify(main)
        return Probes(probe_plan, buffer), time.perf_counter() - t0

    # -- admit -----------------------------------------------------------------

    def admit(self, plan: Plan, result: TransformResult,
              original: str | int, signature: FunctionSignature,
              fixes: Fixes, probes: Sequence[tuple] = ()) -> None:
        """Validate-before-swap: may ``result`` serve in place of
        ``original``?  Writes the stage times and the gate's report onto
        ``result``.

        Static pregate first, then the differential gate when the plan or
        an inconclusive machine proof demands it; a passing entry is marked
        ``gated`` in the machine cache.  A machine-stage hit carrying that
        bit was admitted when it was installed (``Image.patch_code``
        invalidation keeps it honest) and is not re-examined.  A rejected
        candidate — installed and positively cached by :meth:`compile` — is
        evicted before the error propagates, so neither an unguarded
        transformer sharing the cache nor an expired quarantine can serve
        code proven divergent.
        """
        if result.machine_gated:
            return
        try:
            t0 = time.perf_counter()
            self._pregate(plan, result)
            t1 = time.perf_counter()
            result.pregate_seconds = t1 - t0
            if plan.gate == "always" or (
                    plan.gate == "if-inconclusive"
                    and result.machine_verdict == "inconclusive"):
                result.gate = self._gate(plan, result, original, signature,
                                         fixes, probes)
                result.gate_seconds = time.perf_counter() - t1
        except VerificationError:
            if self.cache is not None:
                if result.machine_key is not None:
                    self.cache.evict_machine(self.image, result.machine_key)
                if result.module_key is not None:
                    self.cache.evict_module(result.module_key)
            raise
        if result.gate is not None and self.cache is not None \
                and result.machine_key is not None:
            self.cache.mark_machine_gated(self.image, result.machine_key)

    def _pregate(self, plan: Plan, result: TransformResult) -> None:
        """Reject a candidate on static findings before any probe runs:
        free compared to probe executions, and it rejects whole bug classes
        (non-effect-only probes, malformed phis, undef reaching a sink,
        provable out-of-region access) with an instruction-precise reason
        the dynamic gate cannot give."""
        func = result.function
        findings: list = []
        if result.probes is not None:
            findings = check_probe_ops(func, result.probes.buffer.extent())
        if not findings and plan.pregate and func is not None \
                and not func.is_declaration and func.blocks:
            findings = errors_only(run_checkers(func, plan.pregate))
        if findings:
            first = findings[0]
            raise VerificationError(
                f"static pre-gate: {first.format()}"
                + (f" (+{len(findings) - 1} more)" if len(findings) > 1
                   else ""),
                stage="static-verify", checker=first.checker,
                findings=len(findings))

    def _gate(self, plan: Plan, result: TransformResult,
              original: str | int, signature: FunctionSignature,
              fixes: Fixes, probes: Sequence[tuple]) -> "GateReport":
        from repro.guard.verify import DifferentialGate, GateOptions

        options = plan.gate_options or GateOptions()
        if result.probes is not None:
            # the effects-whitelist: instrumented code may differ from the
            # original only inside its own probe buffer
            options = replace(options, ignore_regions=options.ignore_regions
                              + (result.probes.buffer.extent(),))
        return DifferentialGate(self.image, options).gate(
            original, result.addr, signature, fixes, probes, self.budget)
