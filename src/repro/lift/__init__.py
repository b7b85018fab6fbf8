"""x86-64 -> MiniLLVM-IR lifter: the paper's core contribution (Sec. III).

``lift_function`` converts decoded machine code to SSA IR at function
granularity:

* basic-block discovery with mid-block splitting (Sec. III-B);
* registers as typed SSA values with cached *facets*, merged by a phi
  wherever a block reads what a predecessor left (Sec. III-C, Fig. 4);
* the six status flags as individual i1 values, computed when read, with
  the *flag cache* reconstructing comparison predicates (Sec. III-D,
  Fig. 6);
* memory operands as getelementptr chains over pointer facets (Sec. III-E);
* the guest stack as one entry-block alloca (Sec. III-F).

Lifting is demand-driven: the output holds no dead IR (DESIGN §17).
``repro.lift.fixation`` adds the IR-level specialization of Sec. IV.
"""

from repro.lift.lifter import FunctionSignature, LiftOptions, lift_function

__all__ = ["FunctionSignature", "LiftOptions", "lift_function"]
