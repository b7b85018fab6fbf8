"""Static analysis over the lifted IR: dataflow engine, soundness
checkers, and translation validation of the -O3 sweep.

The rewriter's trust chain has three layers; this package is the middle
one.  The IR verifier (:mod:`repro.ir.verifier`) checks *well-formedness*,
the guard's differential gate (:mod:`repro.guard.verify`) checks *observed
behavior* — and ``repro.analysis`` checks *provable* properties in between:

* :mod:`~repro.analysis.dataflow` — a small lattice-based engine with a
  dense block solver (forward/backward worklist) and a sparse SSA value
  solver (meet over phis, optional widening);
* :mod:`~repro.analysis.undef` / :mod:`~repro.analysis.memregion` —
  lifter-soundness checkers built on the engine (undef reaching observable
  sinks, provably out-of-bounds accesses to fixed memory regions);
* :mod:`~repro.analysis.strictness` — the verifier's structural rules
  collected as findings instead of raised (strict SSA, Φ coverage);
* :mod:`~repro.analysis.deadflags` — Fig. 6-style proof of which status
  flags the optimizer eliminated;
* :mod:`~repro.analysis.validate` — per-pass translation validation for
  ``replay_o3(..., PassValidator())``: after every pass verify and
  differentially interpret its input vs its output on seeded probes, roll
  back and quarantine the offending pass.  A pipeline replays only to
  blame a pass for a rejected candidate; otherwise it just verifies -O3;
* :mod:`~repro.analysis.machine` — machine-level translation validation:
  decode the bytes the backend just emitted, reconstruct the machine CFG,
  symbolically execute it and prove it equivalent to the source IR
  block-by-block (register allocation, stack discipline, memory effects);
* :mod:`~repro.analysis.lint` — the CLI regression gate
  (``python -m repro.analysis.lint``) over the example/stencil corpus.
"""

from repro.analysis.checkers import (
    CHECKERS,
    DEFAULT_PREGATE,
    run_checkers,
)
from repro.analysis.clone import (
    clone_function,
    functions_structurally_equal,
    restore_function,
)
from repro.analysis.dataflow import (
    BACKWARD,
    FORWARD,
    BlockProblem,
    BlockStates,
    BoolLattice,
    Lattice,
    SetLattice,
    ValueProblem,
    ValueStates,
    solve_block_problem,
    solve_value_problem,
)
from repro.analysis.deadflags import (
    FLAG_LETTERS,
    FlagReport,
    analyze_flags,
)
from repro.analysis.findings import ERROR, WARNING, Finding, errors_only
from repro.analysis.machine import (
    CodeWitness,
    MachineVerifier,
    VerifyResult,
    build_mcfg,
    build_witness,
    verify_witness,
)
from repro.analysis.memregion import check_memory_regions
from repro.analysis.strictness import check_strict_ssa
from repro.analysis.undef import check_undef_uses
from repro.analysis.validate import (
    PassValidator,
    PassVerdict,
    ValidatorStats,
)

__all__ = [
    "BACKWARD",
    "FORWARD",
    "BlockProblem",
    "BlockStates",
    "BoolLattice",
    "CHECKERS",
    "CodeWitness",
    "DEFAULT_PREGATE",
    "ERROR",
    "FLAG_LETTERS",
    "Finding",
    "FlagReport",
    "Lattice",
    "MachineVerifier",
    "PassValidator",
    "PassVerdict",
    "SetLattice",
    "ValidatorStats",
    "ValueProblem",
    "ValueStates",
    "VerifyResult",
    "WARNING",
    "analyze_flags",
    "build_mcfg",
    "build_witness",
    "check_memory_regions",
    "check_strict_ssa",
    "check_undef_uses",
    "clone_function",
    "errors_only",
    "functions_structurally_equal",
    "restore_function",
    "run_checkers",
    "solve_block_problem",
    "solve_value_problem",
    "verify_witness",
]
