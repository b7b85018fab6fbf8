"""MiniLLVM optimization passes (the '-O3 pipeline' of the paper).

``run_o3`` is the standard pipeline applied to lifted code (Sec. IV):
SimplifyCFG, SROA/mem2reg (promotes the virtual stack), InstCombine
(eliminates facet casts), constant propagation (folds loads from constant
globals — the mechanism behind IR-level parameter fixation), per-block GVN,
DCE, inlining (always-inline wrappers), full loop unrolling, and an
optional loop vectorizer that *refuses* lifted code unless forced — the
paper's missing-metadata observation.
"""

from repro.ir.passes.pipeline import O3Options, O3Report, replay_o3, run_o3

__all__ = ["O3Options", "O3Report", "replay_o3", "run_o3"]
