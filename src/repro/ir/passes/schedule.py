"""O3 pass scheduling: skip the pass applications that provably do nothing.

Most pass applications in a ``run_o3`` sweep return "no change" — a full
pass walk spent proving nothing fires (the obs self-time report shows
it).  This module lets the pipeline skip those applications *without
changing the produced IR*.

**Shape rules.**  A pass is skipped only when the function's *shape
fingerprint* (opcode histogram, phi/block counts, CFG cyclicity) proves
the pass cannot fire:

* ``inline``  — no non-intrinsic call sites;
* ``mem2reg`` — no ``alloca``;
* ``unroll`` / ``vectorize`` — acyclic CFG (no natural loops);
* ``constprop`` — no loads, no select, and no constant-typed operand
  anywhere (every fold in ``fold.try_fold`` needs one of those);
* ``simplifycfg`` — already a single phi-free block ending in ``ret``.

Each rule is conservative: whenever it is unsure it runs the pass.  On
top of the shape rules, the **version rule** skips a pass whose previous
application on this *exact* function version returned "no change" —
passes are deterministic, so re-running them on an unmutated function is
provably a no-op (it makes the final convergence sweep nearly free, and
``settle`` runs ``unroll``'s per-peel cleanup under it).  Both rules are
output-identical: a skipped application would have changed nothing.

**Validator interlock**: the moment a ``PassValidator`` quarantines
*any* pass — before the run (negative-cache probe at scheduler
construction) or during it (a rejection verdict) — the scheduler
disables itself for the remainder of the run.  A pipeline known to
contain a miscompiling pass gets zero skips: every pass runs and every
application is validated, so scheduling can never hide a miscompile
from the validator.
"""

from __future__ import annotations

from collections import Counter
from types import ModuleType
from typing import TYPE_CHECKING, Sequence

from repro.ir.cfg import has_cycle
from repro.ir.module import Function
from repro.ir.values import Constant, ConstantFP, ConstantVector, Undef
from repro.obs import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.validate import PassValidator

#: every pass name run_o3 can step (for the quarantine pre-probe)
PASS_NAMES = ("simplifycfg", "mem2reg", "inline", "constprop",
              "instcombine", "gvn", "dce", "unroll", "vectorize")

_CONSTANTS = (Constant, ConstantFP, ConstantVector, Undef)

_SKIPS = _metrics.REGISTRY.family("o3.sched.skips")
_RUNS = _metrics.REGISTRY.family("o3.sched.runs")


class ShapeFingerprint:
    """What the shape rules read off one function body (opcode counts, a
    const-operand probe that stops at its first hit, CFG cyclicity)."""

    __slots__ = ("nblocks", "opcodes", "ncalls", "has_const_operand",
                 "cyclic")

    def __init__(self, func: Function) -> None:
        body = [ins for blk in func.blocks for ins in blk.instructions]
        self.nblocks = len(func.blocks)
        self.opcodes = Counter([ins.opcode for ins in body])
        #: non-intrinsic call sites (what ``inline`` looks for)
        self.ncalls = sum(1 for ins in body if ins.opcode == "call"
                          and not ins.intrinsic) if self.opcodes["call"] else 0
        self.has_const_operand = any(isinstance(o, _CONSTANTS)
                                     for ins in body for o in ins.operands)
        self.cyclic = has_cycle(func)


def _rule_no_fire(name: str, fp: ShapeFingerprint) -> bool:
    """True when ``fp`` proves pass ``name`` cannot change the function."""
    n = fp.opcodes
    if name == "inline":
        return fp.ncalls == 0
    if name == "mem2reg":
        return n["alloca"] == 0
    if name in ("unroll", "vectorize"):
        return not fp.cyclic
    if name == "constprop":
        return (n["load"] == 0 and n["select"] == 0
                and not fp.has_const_operand)
    if name == "simplifycfg":
        return (fp.nblocks == 1 and n["phi"] == 0 and n["ret"] == 1
                and n["br"] == 0)
    return False


class VersionRule:
    """Which passes reported "no change" on the function's current version:
    re-running one of those is provably a no-op until the version moves."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self._nofire_at: dict[object, int | None] = {}  # pass -> version

    def clean(self, key: object) -> bool:
        return self._nofire_at.get(key) == self.func.version

    def note(self, key: object, changed: bool) -> None:
        self._nofire_at[key] = None if changed else self.func.version


def settle(func: Function, passes: Sequence[ModuleType], rounds: int) -> None:
    """Run the pass modules' ``run(func)`` in order until a round changes
    nothing (at most ``rounds`` rounds), skipping by the version rule;
    ``run`` is looked up per call, so whoever wraps it sees every one."""
    rule = VersionRule(func)
    for _ in range(rounds):
        changed = False
        for mod in passes:
            if not rule.clean(mod):
                ran = bool(mod.run(func))
                rule.note(mod, ran)
                changed |= ran
        if not changed:
            return


class Scheduler:
    """Per-``run_o3``-invocation skip decisions for one function."""

    def __init__(self, func: Function,
                 validator: "PassValidator | None" = None) -> None:
        self.func = func
        self.disabled_reason: str | None = None
        self._fp: ShapeFingerprint | None = None
        self._fp_version = -1
        self._versions = VersionRule(func)
        if validator is not None:
            # a pass already in quarantine means this pipeline is under
            # active suspicion: run everything, validate everything
            for name in PASS_NAMES:
                if validator.negative.check(f"o3pass:{name}") is not None:
                    self.disable(f"quarantined:{name}")
                    break

    # -- state ---------------------------------------------------------------

    def disable(self, reason: str) -> None:
        """Permanently stop skipping for this run (validator interlock)."""
        if self.disabled_reason is None:
            self.disabled_reason = reason

    def fingerprint(self) -> ShapeFingerprint:
        ver = self.func.version
        if self._fp is None or self._fp_version != ver:
            self._fp = ShapeFingerprint(self.func)
            self._fp_version = ver
        return self._fp

    # -- decisions -----------------------------------------------------------

    def should_skip(self, name: str) -> bool:
        if self.disabled_reason is not None:
            return False
        # version rule: this exact body already reported "no change"
        if self._versions.clean(name):
            _SKIPS.inc(f"{name}:version")
            return True
        if _rule_no_fire(name, self.fingerprint()):
            _SKIPS.inc(f"{name}:shape")
            return True
        return False

    def note_result(self, name: str, changed: bool) -> None:
        """Feed one executed pass application back into the version rule."""
        _RUNS.inc(name)
        self._versions.note(name, changed)
