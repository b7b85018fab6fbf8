"""BinaryTransformer: the paper's Fig. 1 pipeline glued together.

Loaded binary code -> (optional DBrew specialization) -> x86 -> IR
transformation -> standard -O3 optimization -> JIT code generation -> new
binary code installed in the image.

Each public method implements one evaluation mode of Sec. VI:

* :meth:`llvm_identity` — the plain transformation (mode "LLVM");
* :meth:`llvm_fixed` — IR-level parameter fixation (mode "LLVM-fix");
* DBrew alone is :class:`repro.dbrew.Rewriter` (mode "DBrew");
* :meth:`llvm_identity` applied to a rewritten function gives "DBrew+LLVM".

All methods return a :class:`TransformResult` carrying the new entry
address and wall-clock compile-time stages for Fig. 10.

With a :class:`~repro.cache.SpecializationCache` attached (``cache=``),
repeated transformations are memoized per stage: an identical request
returns the installed code directly (``cache_stage == "machine"``), the
same request in another image sharing the cache reuses the post--O3
module (``cache_stage == "module"``), and a re-specialization of a known function for new parameter
values reuses the lifted IR (``cache_stage == "lifted"``).
"""

from __future__ import annotations

from repro.cache import SpecializationCache
from repro.cpu.image import Image
from repro.ir.passes import O3Options
from repro.jit.plan import DEFAULT_O3, Fixes, Pipeline, Plan, TransformResult
# lift_function: kept importable from here (benchmarks/ledger binds it)
from repro.lift import FunctionSignature, LiftOptions, lift_function  # noqa: F401
from repro.lift.fixation import FixedMemory

__all__ = ["BinaryTransformer", "TransformResult"]


class BinaryTransformer(Pipeline):
    """Per-image transformation engine: a :class:`~repro.jit.plan.Pipeline`
    whose plans never gate."""

    def __init__(self, image: Image, *, lift_options: LiftOptions | None = None,
                 o3_options: O3Options | None = None,
                 cache: SpecializationCache | None = None,
                 machine_verify: bool = False) -> None:
        super().__init__(image, cache=cache)
        self.lift_options = lift_options or LiftOptions()
        self.o3_options = o3_options or DEFAULT_O3
        #: statically verify every freshly emitted function against its
        #: source IR (:mod:`repro.analysis.machine`) before installing it.
        #: A refuted proof quarantines the request (``machine:<module
        #: key>``) and raises :class:`VerificationError` with
        #: ``stage="machine-verify"`` before the entry can reach the
        #: machine cache.
        self.machine_verify = machine_verify

    def _mode(self, rung: str, func: str | int,
              signature: FunctionSignature, fixes: Fixes, name: str | None,
              suffix: str, o3: O3Options | None = None) -> TransformResult:
        base = func if isinstance(func, str) else f"f{func:x}"
        return self.compile(
            Plan(rung, self.lift_options, o3 or self.o3_options,
                 machine_verify=self.machine_verify),
            func, signature, fixes, name or base + suffix)

    # -- evaluation modes --------------------------------------------------------

    def llvm_identity(self, func: str | int, signature: FunctionSignature,
                      *, name: str | None = None) -> TransformResult:
        """Lift -> -O3 -> JIT, no specialization ("basically an identity
        transformation", Sec. VI)."""
        return self._mode("llvm", func, signature, None, name, ".llvm")

    def llvm_vectorized(self, func: str | int, signature: FunctionSignature,
                        fixes: dict[int, int | float | FixedMemory] | None = None,
                        *, name: str | None = None) -> TransformResult:
        """Sec. VII's proposed *explicit* vectorization API.

        "It seems to be more effective to provide explicit APIs, such as a
        way to transform scalar kernels into vectorized kernels" — the user
        asserts vectorization is wanted; the pipeline runs with
        ``force_vector_width=2`` (the metadata gate is overridden, exactly
        like the paper's command-line experiment, but as a first-class API).
        """
        rung, suffix = ("llvm-fix", ".llvmfix") if fixes \
            else ("llvm", ".llvm")
        return self._mode(rung, func, signature, fixes, name, suffix,
                          self.o3_options.replace(force_vector_width=2))

    def llvm_fixed(self, func: str | int, signature: FunctionSignature,
                   fixes: dict[int, int | float | FixedMemory],
                   *, name: str | None = None) -> TransformResult:
        """Lift the original, then specialize at IR level (Sec. IV)."""
        return self._mode("llvm-fix", func, signature, fixes, name,
                          ".llvmfix")
