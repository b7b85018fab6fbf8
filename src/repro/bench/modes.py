"""The five evaluation modes of Sec. VI, for each stencil code variant.

====================  =========================================================
Native                unmodified compiler output
LLVM                  x86 -> IR -> -O3 -> JIT (identity transformation)
LLVM-fix              as LLVM, plus IR-level parameter fixation (Sec. IV)
DBrew                 binary specialization by rewriting (Sec. II)
DBrew+LLVM            DBrew output post-processed through the LLVM pipeline
====================  =========================================================

:func:`request` describes what one stencil cell asks for, once;
``prepare_kernel`` runs one mode of it through the one pipeline
(:class:`~repro.jit.plan.Pipeline`: ``rewrite`` for DBrew, ``llvm_identity``
/ ``llvm_fixed`` for the LLVM half) and returns the kernel address to
install plus the transformation timings (Fig. 10's compile times).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cache import SpecializationCache
from repro.guard import GuardedTransformer
from repro.jit import BinaryTransformer, TransformResult
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory
from repro.stencil.jacobi import StencilWorkspace
from repro.stencil.sources import ELEMENT_SIGNATURE, LINE_SIGNATURE

MODES = ("native", "llvm", "llvm-fix", "dbrew", "dbrew+llvm")
CODES = ("direct", "flat", "sorted")

#: evaluation mode -> guard-ladder restriction (modes the guard can serve;
#: "native" needs no transform and plain "dbrew" has no gate composition)
GUARD_LADDERS = {
    "llvm": ("llvm",),
    "llvm-fix": ("llvm-fix",),
    "dbrew+llvm": ("dbrew+llvm",),
}


@dataclass
class ModeResult:
    """A prepared kernel for one (code, kernel-type, mode) cell."""

    kernel_addr: int
    name: str
    transform_seconds: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    #: cache stage that served the transform (None = full compile / native)
    cache_stage: str | None = None
    #: ladder rung that served a guarded preparation (None = unguarded)
    guard_mode: str | None = None
    #: the differential gate ran *conclusively* and passed for this kernel
    verified: bool = False


@dataclass
class StencilRequest:
    """What one stencil cell asks the pipeline for, in the front doors'
    own terms (``GuardedTransformer.transform``).

    ``probes`` holds one real argument vector for the differential gate.
    The kernels take pointers (stencil descriptor, both matrices), which
    the gate's sampled integer probes cannot exercise — the original
    faults on them and the probe is inconclusive.  The workspace's actual
    matrices plus an interior cell/row make the gate compare real
    executions; the fixed parameter slot is left out (the gate substitutes
    it itself).
    """

    #: the native kernel
    func: str
    signature: FunctionSignature
    #: the stencil descriptor as a constant global (Sec. IV); None for
    #: ``direct``, which has nothing to fix
    fixes: dict[int, FixedMemory] | None
    #: every region the descriptor reaches, fixed for DBrew
    mem_regions: tuple[tuple[int, int], ...]
    #: the line kernels' DBrew input keeps the element computation in a
    #: separate function that DBrew inlines (Sec. VI's setup)
    dbrew_func: str
    probes: tuple[tuple, ...]
    #: the descriptor address DBrew fixes parameter 0 to (None: ``direct``)
    descriptor: int | None


def request(ws: StencilWorkspace, code: str, line: bool) -> StencilRequest:
    """The request of one (code, kernel shape) cell."""
    fixes, regions, descriptor = None, (), None
    if code == "flat":
        descriptor = ws.flat.addr
        regions = ((ws.flat.addr, ws.flat.addr + ws.flat.size),)
        fixes = {0: FixedMemory(ws.flat.addr, ws.flat.size)}
    elif code == "sorted":
        descriptor = ws.sorted.addr
        regions = tuple((a, a + s) for a, s in ws.sorted.regions)
        # Sec. IV: only the directly-pointed region becomes a constant
        # global; nested pointers are not followed
        fixes = {0: FixedMemory(ws.sorted.addr, ws.sorted.regions[0][1])}
    elif code != "direct":
        raise ValueError(f"unknown code variant {code}")
    sz = ws.setup.sz
    probe = (ws.m1, ws.m2, 1, 1, sz - 1) if line else (ws.m1, ws.m2, sz + 1)
    # ``direct`` ignores its descriptor parameter and is passed 0 for it
    return StencilRequest(
        func=f"line_{code}" if line else f"apply_{code}",
        signature=FunctionSignature(
            tuple(LINE_SIGNATURE if line else ELEMENT_SIGNATURE), None),
        fixes=fixes, mem_regions=regions,
        dbrew_func=f"line_call_{code}" if line else f"apply_{code}",
        probes=(probe if fixes else (0, *probe),), descriptor=descriptor)


def _compiled(res: TransformResult, rewrite: float | None = None,
              ) -> ModeResult:
    stages = {"lift": res.lift_seconds, "opt": res.optimize_seconds,
              "codegen": res.codegen_seconds}
    seconds = res.total_seconds
    if rewrite is not None:
        stages = {"rewrite": rewrite, **stages}
        seconds += rewrite
    return ModeResult(res.addr, res.name, seconds, stages,
                      cache_stage=res.cache_stage)


def prepare_kernel(ws: StencilWorkspace, code: str, mode: str, *,
                   line: bool, uid: str = "",
                   cache: SpecializationCache | None = None,
                   guard: GuardedTransformer | None = None) -> ModeResult:
    """Build the kernel for one evaluation cell; returns its address.

    With a ``cache``, repeated preparations of the same cell are memoized —
    the compile stages a hit skips report as zero and ``cache_stage`` names
    the stage boundary the transform was served from.

    With a ``guard``, transforming modes are routed through the
    degradation ladder (restricted to the requested mode's rung, then
    ``original``): the preparation can no longer fail, ``guard_mode``
    reports the rung that served it, and ``verified`` whether the
    differential gate passed conclusively — the gate is fed the request's
    real-matrix probe (see :class:`StencilRequest`).  ``native`` and plain
    ``dbrew`` bypass the guard (nothing to transform / no LLVM composition
    to gate).
    """
    if code not in CODES or mode not in MODES:
        raise ValueError(f"unknown cell ({code}, {mode})")
    req = request(ws, code, line)
    name = f"k.{code}.{'line' if line else 'elem'}.{mode}{uid}"

    if mode == "native":
        return ModeResult(ws.image.symbol(req.func), req.func)

    if guard is not None and mode in GUARD_LADDERS:
        res = guard.transform(
            req.func, req.signature, req.fixes, mem_regions=req.mem_regions,
            name=name, ladder=GUARD_LADDERS[mode], dbrew_func=req.dbrew_func,
            probes=req.probes)
        return ModeResult(
            res.addr, res.name, res.seconds,
            cache_stage=res.result.cache_stage if res.result else None,
            guard_mode=res.mode, verified=res.verified,
        )

    tx = BinaryTransformer(ws.image, cache=cache)
    if mode == "llvm":
        return _compiled(tx.llvm_identity(req.func, req.signature, name=name))
    if mode == "llvm-fix":
        return _compiled(tx.llvm_fixed(req.func, req.signature,
                                       req.fixes or {}, name=name))

    # DBrew fixes the descriptor's address and declares every region it
    # reaches fixed (Fig. 2's set_par/set_mem)
    fixes = None if req.descriptor is None else {0: req.descriptor}
    rw_name = name if mode == "dbrew" else f"{name}.dbrew"
    t0 = time.perf_counter()
    addr, served = tx.rewrite(req.dbrew_func, req.signature, fixes,
                              req.mem_regions, rw_name)
    t_rw = time.perf_counter() - t0
    if mode == "dbrew":
        return ModeResult(addr, name, t_rw, {"rewrite": t_rw},
                          cache_stage="rewrite" if served else None)
    # dbrew+llvm: the identity transformation on top of the rewrite
    return _compiled(tx.llvm_identity(addr, req.signature, name=name), t_rw)
