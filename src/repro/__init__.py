"""repro: runtime binary rewriting with LLVM-style post-processing.

A from-scratch Python reproduction of Engelke & Weidendorfer, *Using LLVM
for Optimized Lightweight Binary Re-Writing at Runtime* (HIPS/IPDPSW 2017).

The public API mirrors the paper's workflow:

>>> from repro import compile_c, Simulator, Rewriter, BinaryTransformer
>>> program = compile_c("long f(long a, long b) { return a * b; }")
>>> sim = Simulator(program.image)
>>> sim.call_int("f", (6, 7))
42
>>> Rewriter(program.image, "f").set_signature(("i", "i")) \\
...     .set_par(1, 7).rewrite(name="f_x7")        # DBrew specialization
...
>>> from repro.lift import FunctionSignature
>>> tx = BinaryTransformer(program.image)
>>> tx.llvm_identity("f_x7", FunctionSignature(("i", "i"), "i"),
...                  name="f_x7_opt")               # lift -> -O3 -> JIT

See DESIGN.md for the architecture and EXPERIMENTS.md for the reproduced
evaluation.
"""

from repro.analysis import (
    Finding,
    PassValidator,
    analyze_flags,
    run_checkers,
)
from repro.cc import CompiledProgram, compile_c
from repro.cpu import CostModel, HASWELL, Image, Simulator
from repro.dbrew import Rewriter
from repro.guard import Budget, BudgetExceededError, GuardedTransformer
from repro.instrument import (
    InstrumentOptions,
    InstrumentedFunction,
    Instrumenter,
    ProbeBuffer,
    strip_instrumentation,
)
from repro.jit import BinaryTransformer, TransformResult
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.lift.fixation import FixedMemory
from repro.obs import metrics

__version__ = "1.0.0"

__all__ = [
    "BinaryTransformer",
    "Budget",
    "BudgetExceededError",
    "CompiledProgram",
    "CostModel",
    "Finding",
    "FixedMemory",
    "FunctionSignature",
    "GuardedTransformer",
    "HASWELL",
    "Image",
    "InstrumentOptions",
    "InstrumentedFunction",
    "Instrumenter",
    "LiftOptions",
    "PassValidator",
    "ProbeBuffer",
    "Rewriter",
    "Simulator",
    "TransformResult",
    "analyze_flags",
    "compile_c",
    "lift_function",
    "metrics",
    "run_checkers",
    "strip_instrumentation",
]
