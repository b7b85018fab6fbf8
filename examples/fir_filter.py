#!/usr/bin/env python3
"""Beyond stencils: specializing a generic FIR filter at runtime.

The paper motivates DBrew with "specialization of generic code with
information known at runtime ... how to best handle different runtime
properties (input data, ...) can be covered in generic code" (Sec. I).
This example applies the full pipeline to a different HPC kernel family: a
generic FIR (finite impulse response) filter whose tap count and
coefficients are runtime data.

Compares four variants on the simulator:
  1. generic FIR (taps in memory, inner loop),
  2. DBrew-specialized (taps fixed, inner loop unrolled at binary level),
  3. DBrew + LLVM-style post-processing,
  4. IR-level fixation (Sec. IV) of the original.

Run:  python examples/fir_filter.py
"""

import struct

from repro.cc import compile_c
from repro.cpu import Simulator
from repro.dbrew import Rewriter
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature, LiftOptions
from repro.lift.fixation import FixedMemory

SOURCE = """
double dot(double* taps, long ntaps, double* x) {
    double acc = 0.0;
    for (long t = 0; t < ntaps; t++) {
        acc += taps[t] * x[t];
    }
    return acc;
}

void fir(double* taps, long ntaps, double* x, double* y, long n) {
    for (long i = 0; i < n; i++) {
        y[i] = dot(taps, ntaps, x + i);
    }
}
"""

SIGNATURE = FunctionSignature(("i", "i", "i", "i", "i"), None)
TAPS = (0.25, 0.5, 0.25)  # a simple smoothing filter
N = 64


def reference(x):
    return [sum(t * x[i + k] for k, t in enumerate(TAPS))
            for i in range(len(x) - len(TAPS))]


def main() -> None:
    program = compile_c(SOURCE)
    image = program.image
    sim = Simulator(image)

    taps = image.alloc_data(8 * len(TAPS),
                            data=struct.pack(f"<{len(TAPS)}d", *TAPS))
    signal = [float((7 * i) % 13) for i in range(N + len(TAPS))]
    x = image.alloc_data(8 * len(signal),
                         data=struct.pack(f"<{len(signal)}d", *signal))
    y = image.alloc_data(8 * N)
    want = reference(signal)[:N]

    def run(name):
        image.memory.write(y, b"\x00" * 8 * N)
        stats = sim.call(name, (taps, len(TAPS), x, y, N),
                         max_steps=10_000_000)
        got = [image.memory.read_f64(y + 8 * i) for i in range(N)]
        assert got == want, name
        return stats.stats

    base = run("fir")
    print(f"generic FIR:        {base.cycles:8.0f} cycles "
          f"({base.instructions} instructions)")

    # DBrew: fix the taps pointer, count, and declare the taps fixed memory
    r = (Rewriter(image, "fir")
         .set_signature(tuple(SIGNATURE.params), None)
         .set_par(0, taps)
         .set_par(1, len(TAPS))
         .set_mem(taps, taps + 8 * len(TAPS)))
    r.rewrite(name="fir_dbrew")
    dbrew = run("fir_dbrew")
    print(f"DBrew specialized:  {dbrew.cycles:8.0f} cycles "
          f"({dbrew.instructions} instructions)")

    # DBrew already inlined `dot`; the identity transformation needs no
    # call-target declarations for its output
    tx = BinaryTransformer(image)
    tx.llvm_identity("fir_dbrew", SIGNATURE, name="fir_both")
    both = run("fir_both")
    print(f"DBrew + LLVM:       {both.cycles:8.0f} cycles "
          f"({both.instructions} instructions)")

    # IR-level fixation lifts the *original* fir, whose call to `dot` must
    # be declared (Sec. III-A/B); the engine lifts the callee as a
    # definition so the IR inliner can specialize through it
    tx_fix = BinaryTransformer(image, lift_options=LiftOptions(
        known_functions={
            image.symbol("dot"): ("dot", FunctionSignature(("i", "i", "i"), "f")),
        },
    ))
    tx_fix.llvm_fixed("fir", SIGNATURE,
                      {0: FixedMemory(taps, 8 * len(TAPS)), 1: len(TAPS)},
                      name="fir_fix")
    fix = run("fir_fix")
    print(f"IR-level fixation:  {fix.cycles:8.0f} cycles "
          f"({fix.instructions} instructions)")

    assert dbrew.cycles < base.cycles
    assert both.cycles <= dbrew.cycles
    assert fix.cycles < base.cycles
    print("\nall variants verified against the Python reference")


if __name__ == "__main__":
    main()
