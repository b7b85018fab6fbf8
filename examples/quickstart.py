#!/usr/bin/env python3
"""Quickstart: runtime specialization of a compiled function (Fig. 2/3).

Compiles a generic polynomial evaluator with MCC, fixes its coefficient
array with DBrew (the ``dbrew_setpar`` / ``dbrew_setmem`` API of the
paper's Fig. 3), post-processes the result through the LLVM-style pipeline,
and compares the three variants on the simulator.

Run:  python examples/quickstart.py
"""

import struct

from repro.cc import compile_c
from repro.cpu import Simulator
from repro.dbrew import Rewriter
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature
from repro.x86.decoder import decode_block
from repro.x86.printer import format_block


def disasm(image, name):
    code = image.function_bytes(name)
    addr = image.symbol(name)
    return format_block(decode_block(code, addr, len(code), base_addr=addr),
                        with_addr=False)


def main() -> None:
    # 1. "compile time": a generic Horner evaluator, coefficients in memory
    source = """
    double poly(double* coeff, long n, double x) {
        double acc = 0.0;
        for (long i = 0; i < n; i++) acc = acc * x + coeff[i];
        return acc;
    }
    """
    program = compile_c(source)
    image = program.image
    sim = Simulator(image)

    # runtime data: p(x) = 2x^2 - 3x + 5
    coeff = image.alloc_data(8 * 3)
    image.memory.write(coeff, struct.pack("<3d", 2.0, -3.0, 5.0))

    generic = sim.call("poly", (coeff, 3), (4.0,))
    print(f"generic poly(4.0)      = {generic.f64_value}   "
          f"[{generic.stats.instructions} instructions]")

    # 2. "runtime": DBrew-specialize on (coeff, n) — Fig. 3's configuration
    rewriter = (
        Rewriter(image, "poly")
        .set_signature(("i", "i", "f"), ret="f")  # coeff*, n, x (SysV ABI)
        .set_par(0, coeff)                    # dbrew_setpar(r, 0, coeff)
        .set_par(1, 3)                        # dbrew_setpar(r, 1, 3)
        .set_mem(coeff, coeff + 24)           # dbrew_setmem(r, start, end)
    )
    rewriter.rewrite(name="poly_spec")
    spec = sim.call("poly_spec", (0, 0), (4.0,))
    print(f"DBrew-specialized      = {spec.f64_value}   "
          f"[{spec.stats.instructions} instructions]")

    # 3. post-process DBrew's output with the LLVM-style pipeline (Fig. 1)
    tx = BinaryTransformer(image)
    result = tx.llvm_identity("poly_spec", FunctionSignature(("i", "i", "f"), "f"),
                              name="poly_spec_llvm")
    both = sim.call("poly_spec_llvm", (0, 0), (4.0,))
    print(f"DBrew + LLVM pipeline  = {both.f64_value}   "
          f"[{both.stats.instructions} instructions]")

    assert generic.f64_value == spec.f64_value == both.f64_value == 25.0

    print("\n--- specialized machine code (DBrew) ---")
    print(disasm(image, "poly_spec"))
    print("\n--- after the LLVM-style post-processing ---")
    print(disasm(image, "poly_spec_llvm"))
    print(f"\ntransform took {1000 * result.total_seconds:.2f} ms "
          f"(lift {1000 * result.lift_seconds:.2f} / "
          f"opt {1000 * result.optimize_seconds:.2f} / "
          f"codegen {1000 * result.codegen_seconds:.2f})")


if __name__ == "__main__":
    main()
