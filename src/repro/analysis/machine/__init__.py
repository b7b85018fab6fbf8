"""Machine-level translation validation (static binary verification).

Decodes the bytes the backend just emitted, reconstructs the machine
CFG, symbolically executes each block, and proves it equivalent to the
source MiniLLVM IR.  See DESIGN.md §13 for the proof obligations.
"""

from repro.analysis.machine.mcfg import MachineCFG, build_mcfg
from repro.analysis.machine.verifier import (
    INCONCLUSIVE,
    PROVED,
    REFUTED,
    MachineVerifier,
    VerifyResult,
    verify_witness,
)
from repro.analysis.machine.witness import CodeWitness, build_witness

__all__ = [
    "CodeWitness",
    "INCONCLUSIVE",
    "MachineCFG",
    "MachineVerifier",
    "PROVED",
    "REFUTED",
    "VerifyResult",
    "build_mcfg",
    "build_witness",
    "verify_witness",
]
