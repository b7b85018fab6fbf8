"""MiniLLVM x86-64 code generation (the MCJIT substitute).

``compile_function`` lowers optimized IR out of SSA into the shared TAC
back-end (:mod:`repro.backend`) and emits machine code into a simulated
image.  It has one configuration: ``imul`` for constant multiplies,
RIP-relative constants, TAC clean-up on, and GEP chains folded into x86
addressing modes — the LLVM-flavoured idioms the paper contrasts with
GCC's (Sec. VI-A).
"""

from repro.ir.codegen.jit import JITEngine

__all__ = ["JITEngine"]
