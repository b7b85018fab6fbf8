"""Deterministic fault injection for the transform pipeline.

Robustness code is only as good as its tests, and pipeline failures are
hard to provoke organically — the seed kernels all decode, lift and compile
cleanly.  :func:`inject_faults` makes any stage fail *on demand*: it
monkeypatches the stage's entry points so that the k-th call raises the
stage's error (or corrupts its result), deterministically, and restores
everything on exit.

Stages and their patch points::

    decode   repro.lift.blocks.decode_one, repro.dbrew.rewriter.decode_one
    lift     repro.jit.plan.lift_function
    opt      repro.jit.plan.run_o3
    codegen  repro.ir.codegen.jit.JITEngine.compile_function
    rewrite  repro.dbrew.rewriter.Rewriter._rewrite
    pass:<p> repro.ir.passes.<p>.run — one stage per -O3 pass (constprop,
             dce, gvn, inline, instcombine, mem2reg, simplifycfg, unroll,
             vectorize), intercepting *every* application of that pass.
             The pipeline calls passes through their module objects, so a
             ``corrupt=`` hook here models a single miscompiling pass —
             exactly what per-pass translation validation
             (``replay_o3(..., PassValidator())``) must attribute and
             contain.

Patch points live in the *consumer* module namespace where that matters
(``from x import y`` binds at import time, so patching ``repro.x86.decoder``
would not reach the lifter's already-bound reference).  The simulator's own
``decode_one`` is deliberately *not* patched: the simulator plays the role
of the CPU, and the CPU does not fail — fault injection targets the
rewriter, and the differential gate must keep working while it misbehaves.

Result corruption (``corrupt=``) models the scariest failure class: a stage
that *succeeds* but produces wrong output (a silent miscompile).  The
callback receives ``(result, *call_args)`` and returns the replacement
result (or ``None`` to keep the original after mutating state in place) —
exactly what the differential verification gate exists to catch.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (
    CodegenError,
    DecodeError,
    IRError,
    LiftError,
    RewriteError,
)

#: stage -> ("module.path", "attr" | "Class.attr") patch points
PATCH_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "decode": (("repro.lift.blocks", "decode_one"),
               ("repro.dbrew.rewriter", "decode_one")),
    "lift": (("repro.jit.plan", "lift_function"),),
    "opt": (("repro.jit.plan", "run_o3"),),
    "codegen": (("repro.ir.codegen.jit", "JITEngine.compile_function"),),
    "rewrite": (("repro.dbrew.rewriter", "Rewriter._rewrite"),),
}

#: the -O3 passes the pipeline drives through their module objects
O3_PASSES = ("constprop", "dce", "gvn", "inline", "instcombine", "mem2reg",
             "simplifycfg", "unroll", "vectorize")

for _p in O3_PASSES:
    PATCH_POINTS[f"pass:{_p}"] = ((f"repro.ir.passes.{_p}", "run"),)
del _p

_DEFAULT_ERRORS: dict[str, tuple[type, str]] = {
    "decode": (DecodeError, "injected decode fault"),
    "lift": (LiftError, "injected lift fault"),
    "opt": (IRError, "injected optimizer fault"),
    "codegen": (CodegenError, "injected codegen fault"),
    "rewrite": (RewriteError, "injected rewrite fault"),
}

for _p in O3_PASSES:
    _DEFAULT_ERRORS[f"pass:{_p}"] = (IRError, f"injected {_p} fault")
del _p


@dataclass
class FaultSpec:
    """One stage's fault plan.

    ``at`` is the 1-based call index (counted across all of the stage's
    patch points) on which the fault fires; with ``every=True`` it fires on
    that call and every later one.  ``error`` overrides the stage's default
    exception; ``corrupt`` replaces raising with result corruption.
    """

    stage: str
    at: int = 1
    every: bool = False
    error: BaseException | None = None
    corrupt: Callable[..., Any] | None = None

    def __post_init__(self) -> None:
        if self.stage not in PATCH_POINTS:
            raise ValueError(f"unknown stage {self.stage!r}; "
                             f"stages: {sorted(PATCH_POINTS)}")
        if self.at < 1:
            raise ValueError("`at` is a 1-based call index")

    def make_error(self) -> BaseException:
        if self.error is not None:
            return self.error
        cls, msg = _DEFAULT_ERRORS[self.stage]
        return cls(msg, stage=self.stage, injected=True)


class FaultInjector:
    """Context manager applying one or more :class:`FaultSpec` plans.

    Exposes per-stage accounting: ``calls[stage]`` counts every call that
    reached the stage while the injector was active, ``fired[stage]``
    counts the faults actually delivered.
    """

    def __init__(self, *specs: FaultSpec) -> None:
        by_stage: dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.stage in by_stage:
                raise ValueError(f"duplicate spec for stage {spec.stage!r}")
            by_stage[spec.stage] = spec
        self.specs = by_stage
        self.calls: dict[str, int] = {s: 0 for s in by_stage}
        self.fired: dict[str, int] = {s: 0 for s in by_stage}
        self._saved: list[tuple[object, str, Any]] = []

    # -- patching machinery -------------------------------------------------

    @staticmethod
    def _resolve(module_path: str, attr: str) -> tuple[object, str, Any]:
        """(owner object, final attribute name, current value)."""
        owner: object = importlib.import_module(module_path)
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        name = parts[-1]
        return owner, name, getattr(owner, name)

    def _wrap(self, spec: FaultSpec, original: Callable[..., Any]):
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.calls[spec.stage] += 1
            n = self.calls[spec.stage]
            due = n == spec.at or (spec.every and n >= spec.at)
            if not due:
                return original(*args, **kwargs)
            self.fired[spec.stage] += 1
            if spec.corrupt is not None:
                result = original(*args, **kwargs)
                replaced = spec.corrupt(result, *args)
                return result if replaced is None else replaced
            raise spec.make_error()
        return wrapper

    def __enter__(self) -> "FaultInjector":
        try:
            for spec in self.specs.values():
                for module_path, attr in PATCH_POINTS[spec.stage]:
                    owner, name, current = self._resolve(module_path, attr)
                    self._saved.append((owner, name, current))
                    setattr(owner, name, self._wrap(spec, current))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def inject_faults(stage: str | FaultSpec, *more: FaultSpec, at: int = 1,
                  every: bool = False, error: BaseException | None = None,
                  corrupt: Callable[..., Any] | None = None) -> FaultInjector:
    """Shorthand: ``with inject_faults("lift"): ...`` or multi-spec form.

    The single-stage form takes the :class:`FaultSpec` fields as keywords;
    the multi-spec form takes prebuilt specs (keywords must be unset).
    """
    if isinstance(stage, FaultSpec):
        return FaultInjector(stage, *more)
    if more:
        raise ValueError("pass FaultSpec objects for multiple stages")
    return FaultInjector(FaultSpec(stage, at=at, every=every, error=error,
                                   corrupt=corrupt))
