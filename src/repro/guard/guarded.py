"""GuardedTransformer: the fault-tolerant front door for the Fig. 1 pipeline.

The paper requires rewrite failures to be *internal and recoverable*
(Sec. II: "the default error handler falls back to the original function").
Production rewriters go further — every rewriter fails on some real inputs
(Schulte et al.'s broad comparative evaluation), and LeanBin gates
recompiled code behind dynamic validation before swapping it in.  This
module composes both policies around the whole transform pipeline:

* a **degradation ladder** — transformation modes attempted in order of
  expected payoff (``dbrew+llvm`` -> ``llvm-fix`` -> ``llvm`` ->
  ``original``), each rung catching :class:`~repro.errors.ReproError` and
  recording why it failed; the last rung always succeeds, so
  :meth:`GuardedTransformer.transform` *always returns a callable entry*;
* **resource budgets** — one :class:`~repro.guard.budget.Budget` shared by
  every rung bounds wall-clock and stage fuel, so adversarial inputs
  degrade instead of hanging;
* a **differential verification gate** — each specialized candidate must
  agree with the original on probe executions before it is served
  (:mod:`repro.guard.verify`); a passing candidate's cache entry is marked
  ``gated``, a rejected candidate is *evicted* from the positive cache so
  it can never be served unverified later;
* **failure quarantine** — failed (key, rung) pairs are negative-cached
  with TTL/back-off (:mod:`repro.cache.negative`), so a function that
  cannot specialize is served its fallback instantly on repeat requests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro.analysis.checkers import DEFAULT_PREGATE
from repro.cache import NegativeCache, SpecializationCache
from repro.cache import keys as cache_keys
from repro.cpu.image import Image
from repro.errors import BudgetExceededError, ReproError, VerificationError
from repro.guard.budget import Budget
from repro.guard.verify import GateOptions, GateReport
from repro.jit.plan import DEFAULT_O3, Pipeline, Plan, TransformResult
from repro.lift import FunctionSignature, LiftOptions
from repro.lift.fixation import FixedMemory
from repro.obs.metrics import MetricsRegistry

#: the full degradation ladder, strongest specialization first
LADDER = ("dbrew+llvm", "llvm-fix", "llvm", "original")


@dataclass
class RungAttempt:
    """What happened on one rung of the ladder for one transform."""

    rung: str
    ok: bool = False
    seconds: float = 0.0
    error: str | None = None
    error_type: str | None = None
    #: structured ReproError.context of the failure (stage, addr, ...)
    context: dict[str, Any] = field(default_factory=dict)
    #: served from quarantine without attempting (fresh negative entry)
    quarantined: bool = False
    verified: bool = False
    #: the -O3 pass the pipeline's validator blamed for a rejected
    #: candidate and quarantined (None: no pass blamed)
    blamed_pass: str | None = None

    @property
    def rebuilt(self) -> bool:
        """The rung was rebuilt and admitted once more: every blame is
        followed by exactly one rebuild."""
        return self.blamed_pass is not None


@dataclass
class GateVerdicts:
    """Dynamic-gate verdicts of the candidates a guard served."""

    pass_: int = 0
    vacuous: int = 0


def _per_rung() -> dict[str, int]:
    return dict.fromkeys(LADDER, 0)


@dataclass
class GuardStats:
    """Aggregate ladder counters across one GuardedTransformer's lifetime.

    The record a guard holds under ``guard`` in its own
    :class:`~repro.obs.metrics.MetricsRegistry`.  :meth:`fold` is its one
    writer.
    """

    transforms: int = 0
    #: transforms served by each rung
    served_by: dict[str, int] = field(default_factory=_per_rung)
    #: rung attempt failures, by rung
    failures: dict[str, int] = field(default_factory=_per_rung)
    #: candidates the dynamic gate rejected
    verification_rejections: int = 0
    #: candidates rejected by the *static* pre-gate (no probe budget spent)
    static_rejections: int = 0
    #: static rejections by checker name (the recorded skip reason)
    static_skip_reasons: dict[str, int] = field(default_factory=dict)
    #: candidates whose emitted code the machine-level verifier refuted
    #: (quarantined before installation; no probe budget spent)
    machine_rejections: int = 0
    budget_exceeded: int = 0
    #: rungs skipped because a fresh quarantine entry covered them
    negative_served: int = 0
    #: transforms that degraded all the way to the original function
    fallbacks: int = 0
    gate: GateVerdicts = field(default_factory=GateVerdicts)

    def fold(self, out: "GuardResult") -> None:
        """Count one finished transform from its result."""
        self.transforms += 1
        for attempt in out.attempts:
            if attempt.quarantined:
                self.negative_served += 1
            elif not attempt.ok:
                self._count_failure(attempt)
        self.served_by[out.mode] += 1
        if out.degraded:
            self.fallbacks += 1
        if out.gate is not None:
            if out.gate.vacuous:
                self.gate.vacuous += 1
            else:
                self.gate.pass_ += 1

    def _count_failure(self, attempt: RungAttempt) -> None:
        self.failures[attempt.rung] += 1
        if attempt.error_type == BudgetExceededError.__name__:
            self.budget_exceeded += 1
        if attempt.error_type != VerificationError.__name__:
            return
        stage = attempt.context.get("stage")
        if stage == "static-verify":
            self.static_rejections += 1
            checker = attempt.context.get("checker")
            if checker:
                self.static_skip_reasons[checker] = (
                    self.static_skip_reasons.get(checker, 0) + 1)
        elif stage == "machine-verify":
            self.machine_rejections += 1
        else:
            self.verification_rejections += 1


@dataclass
class GuardResult:
    """Outcome of one guarded transform: always a callable entry address."""

    addr: int
    name: str
    #: the rung that served this transform
    mode: str
    attempts: list[RungAttempt] = field(default_factory=list)
    verified: bool = False
    gate: GateReport | None = None
    result: TransformResult | None = None
    seconds: float = 0.0

    @property
    def degraded(self) -> bool:
        return self.mode == "original"


class GuardedTransformer:
    """Fault-tolerant, budgeted, verified runtime transformation driver."""

    def __init__(self, image: Image, *,
                 cache: SpecializationCache | None = None,
                 budget: Budget | None = None,
                 gate_options: GateOptions = GateOptions(),
                 negative: NegativeCache | None = None,
                 validator: "object | None" = None,
                 machine_verify: bool = False) -> None:
        self.image = image
        self.cache = cache
        self.budget = budget
        #: rung -> the policy it runs under (one plan, ``rung`` swapped):
        #: the default lift and O3, the pregate — the cheap static checkers
        #: (repro.analysis) run on each fresh candidate's IR before the
        #: dynamic gate, so a statically-rejected candidate never spends
        #: probe budget — and the differential gate on every candidate.
        #: Any other policy is a :meth:`from_plan` guard
        plan = Plan("llvm", LiftOptions(), DEFAULT_O3,
                    pregate=DEFAULT_PREGATE, machine_verify=machine_verify,
                    gate="always", gate_options=gate_options)
        self.plans = {rung: replace(plan, rung=rung) for rung in LADDER[:-1]}
        #: the guard's private registry: its stats and gate verdict counters
        self.registry = MetricsRegistry()
        self.stats = self.registry.record("guard", GuardStats)
        #: quarantine: the attached cache's by default, standalone otherwise
        if negative is not None:
            self.negative = negative
        elif cache is not None:
            self.negative = cache.negative
        else:
            self.negative = NegativeCache()
        #: the cache's quarantine is reached through the cache, which
        #: counts the traffic
        shared = cache is not None and self.negative is cache.negative
        self._check_negative = cache.check_negative if shared \
            else self.negative.check
        self._record_negative = cache.put_negative if shared \
            else self.negative.record
        self.pipeline = Pipeline(image, cache=cache, budget=budget,
                                 validator=validator)

    @classmethod
    def from_plan(cls, image: Image, plan: Plan,
                  **kw: Any) -> "GuardedTransformer":
        """A guard whose every rung runs under ``plan``: the one way to
        state a policy other than the constructor's."""
        guard = cls(image, **kw)
        guard.plans = {rung: replace(plan, rung=rung) for rung in LADDER[:-1]}
        return guard

    # -- keys ----------------------------------------------------------------

    def _guard_key(self, entry: int, signature: FunctionSignature,
                   fixes: dict[int, int | float | FixedMemory] | None,
                   mem_regions: Sequence[tuple[int, int]],
                   dbrew_entry: int) -> str:
        """Content key of one guarded request (shared by all rungs): the
        code of the entry and of DBrew's entry, which may differ."""
        try:
            fdigest = cache_keys.fixes_digest(fixes, self.image.memory)
        except ReproError:
            fdigest = repr(sorted(fixes)) if fixes else "none"
        plan = self.plans["llvm"]
        return cache_keys.digest_str(
            "guard", self._code_digest(entry), self._code_digest(dbrew_entry),
            cache_keys.signature_digest(signature), fdigest,
            repr(sorted(mem_regions)),
            cache_keys.lift_options_digest(plan.lift, self.image),
            cache_keys.options_digest(plan.o3),
        )

    def _code_digest(self, addr: int) -> str:
        if self.cache is not None:
            code = self.cache.code_digest(self.image, addr)
        else:
            extent = cache_keys.function_extent(self.image, addr)
            code = None if extent is None else cache_keys.code_digest(
                self.image, extent)
        return code if code is not None \
            else f"@{addr:#x}/g{self.image.generation}"

    # -- the guarded transform -------------------------------------------------

    def transform(self, func: str | int, signature: FunctionSignature,
                  fixes: dict[int, int | float | FixedMemory] | None = None,
                  *, mem_regions: Sequence[tuple[int, int]] = (),
                  name: str | None = None,
                  probes: Sequence[tuple] = (),
                  ladder: Sequence[str] | None = None,
                  dbrew_func: str | int | None = None) -> GuardResult:
        """Attempt the ladder; always returns a callable entry address.

        ``fixes`` drives both specializing rungs (DBrew ``set_par`` /
        ``set_mem`` and IR-level fixation); ``mem_regions`` declares extra
        fixed memory for DBrew; ``probes`` are user argument vectors for
        the verification gate (one value per non-fixed parameter);
        ``dbrew_func`` optionally rewrites a different entry on the DBrew
        rung (the paper's line kernels keep a callable element function for
        DBrew to inline).  A rung whose requirements are not met (the
        specializing rungs without ``fixes``) is skipped silently; an
        explicit ``ladder`` naming an *unknown* rung is a caller error and
        raises :class:`ValueError` up front (only pipeline failures walk
        the ladder).

        Warm-path note: a machine-stage cache hit skips the gate only when
        the entry carries the ``gated`` bit — i.e. it passed the gate when
        this (or another) guard installed it; ``verified`` is only True
        when the gate ran conclusively on *this* request.  Machine entries
        installed by an unguarded :class:`BinaryTransformer` sharing the
        cache are not gated and are verified on first guarded use; entries
        the gate rejects are evicted, so expired quarantine can never
        resurrect code proven divergent.
        """
        t_start = time.perf_counter()
        entry = self.image.symbol(func) if isinstance(func, str) else func
        base = func if isinstance(func, str) else f"f{func:x}"
        out_name = name or f"{base}.guarded"
        dbrew_entry = entry if dbrew_func is None else (
            self.image.symbol(dbrew_func) if isinstance(dbrew_func, str)
            else dbrew_func)

        rungs = tuple(ladder) if ladder is not None else LADDER
        unknown = [r for r in rungs if r not in LADDER]
        if unknown:
            raise ValueError(
                f"unknown ladder rung(s) {unknown!r}: valid rungs are "
                f"{', '.join(LADDER)}")
        if ladder is None and not fixes and not mem_regions:
            # nothing to specialize: don't waste budget on the fixing rungs
            rungs = tuple(r for r in rungs
                          if r not in ("dbrew+llvm", "llvm-fix"))
        if not rungs or rungs[-1] != "original":
            rungs = rungs + ("original",)

        if self.budget is not None:
            self.budget.start()
        out = GuardResult(addr=entry, name=out_name, mode="original")

        # the guard key digests code bytes + fixed-memory contents — real
        # work on the microsecond warm path.  Compute it lazily: the happy
        # path (empty quarantine, rung succeeds) never needs it.
        key: str | None = None

        def guard_key() -> str:
            nonlocal key
            if key is None:
                key = self._guard_key(entry, signature, fixes, mem_regions,
                                      dbrew_entry)
            return key

        for rung in rungs:
            attempt = RungAttempt(rung=rung)
            out.attempts.append(attempt)
            if rung == "original":
                attempt.ok = True
                self.image.symbols[out_name] = entry
                size = _known_size(self.image, entry)
                if size is not None:
                    self.image.func_sizes[out_name] = size
                out.addr, out.mode = entry, "original"
                break

            quarantined = (self._check_negative(f"{guard_key()}:{rung}")
                           if len(self.negative) else None)
            if quarantined is not None:
                attempt.quarantined = True
                attempt.error = quarantined.reason
                attempt.error_type = "Quarantined"
                attempt.context = dict(quarantined.context)
                continue

            t0 = time.perf_counter()
            try:
                # a machine-stage hit whose entry carries the gated bit was
                # admitted when it was installed: the warm path re-pays
                # neither the pregate nor the probe executions.  Anything
                # else — fresh compiles and entries installed by an
                # unguarded BinaryTransformer — must be admitted now
                result, gate = self.pipeline.run(
                    self.plans[rung], entry, signature, fixes, out_name,
                    mem_regions=mem_regions, dbrew_func=dbrew_entry,
                    probes=probes)
                attempt.blamed_pass = result.blamed_pass
                if gate is not None:
                    out.gate = gate
                    # verified = a conclusive comparison happened on this
                    # request, not merely that the gate had no objection
                    attempt.verified = not gate.vacuous
            except ReproError as exc:
                attempt.seconds = time.perf_counter() - t0
                attempt.error = str(exc)
                attempt.error_type = type(exc).__name__
                attempt.context = dict(exc.context)
                attempt.blamed_pass = exc.context.get("blamed_pass")
                self._record_negative(
                    f"{guard_key()}:{rung}", rung,
                    f"{attempt.error_type}: {attempt.error}", attempt.context)
                continue
            attempt.seconds = time.perf_counter() - t0
            attempt.ok = True
            out.addr, out.mode = result.addr, rung
            out.result = result
            out.verified = attempt.verified
            if len(self.negative):
                self.negative.forget(f"{guard_key()}:{rung}")
            break

        out.seconds = time.perf_counter() - t_start
        self.stats.fold(out)
        return out


def _known_size(image: Image, addr: int) -> int | None:
    name = image.symbol_at(addr)
    if name is None:
        return None
    return image.func_sizes.get(name)
