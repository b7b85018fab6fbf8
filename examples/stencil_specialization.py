#!/usr/bin/env python3
"""Figure 8: DBrew output vs DBrew+LLVM output for the generic stencil.

Builds the paper's case study (the flat 4-point stencil of Fig. 7),
specializes ``apply_flat`` with DBrew, post-processes with the LLVM-style
pipeline, and prints both machine-code listings next to the hand-specialized
``apply_direct`` — the comparison Fig. 8 makes.

Run:  python examples/stencil_specialization.py
"""

from repro.bench.modes import prepare_kernel
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace, matrices_equal
from repro.x86.decoder import decode_block
from repro.x86.printer import format_block


def disasm(ws, addr, name):
    code = ws.image.memory.read(addr, ws.image.func_sizes[name])
    return format_block(decode_block(code, addr, len(code), base_addr=addr),
                        with_addr=False)


def main() -> None:
    ws = StencilWorkspace(JacobiSetup(sz=17, sweeps=2))
    ws.reset_matrices()
    reference = ws.reference_sweeps(2)

    print("--- generic element kernel (apply_flat, compiler output) ---")
    print(disasm(ws, ws.image.symbol("apply_flat"), "apply_flat"))

    dbrew = prepare_kernel(ws, "flat", "dbrew", line=False)
    print("\n--- specialized by DBrew (Fig. 8 top: materialization movs,")
    print("    absolute constant addresses, fully unrolled point loop) ---")
    print(disasm(ws, dbrew.kernel_addr, dbrew.name))

    both = prepare_kernel(ws, "flat", "dbrew+llvm", line=False)
    print("\n--- DBrew + LLVM post-processing (Fig. 8 bottom) ---")
    print(disasm(ws, both.kernel_addr, both.name))

    print("\n--- the hand-specialized target (apply_direct) ---")
    print(disasm(ws, ws.image.symbol("apply_direct"), "apply_direct"))

    # all three compute the same Jacobi sweep
    for res, tag in ((dbrew, "dbrew"), (both, "dbrew+llvm")):
        ws.reset_matrices()
        stats = ws.run_sweeps(res.kernel_addr, line=False,
                              stencil_arg=ws.flat.addr)
        assert matrices_equal(ws.read_matrix(1), reference), tag
        print(f"\n{tag}: {ws.cycles_per_cell(stats):.1f} simulated cycles/cell "
              f"(extrapolated {ws.extrapolated_seconds(stats):.0f}s at paper scale)")


if __name__ == "__main__":
    main()
