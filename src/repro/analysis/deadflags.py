"""Dead-flag analysis: which of the six status flags are never consumed.

The lifter models o/s/z/a/p/c as individual i1 values and threads the ones
a later block reads through phis named ``fl<letter>`` (Sec. III-D).  The
paper computes all six after every flag writer and bets that the optimizer
deletes almost all of them; Fig. 6 quantifies how much the flag cache
helps.  This analysis *proves* the claim per function: a flag letter is
**dead** when every one of its phis is consumed only by the flag network
itself (other ``fl*`` phis), i.e. no real instruction ever reads the flag.
(The demand-driven lifter no longer emits such phis; a pass can still
leave one behind.)

The result feeds flag-cache statistics and the lint's ``--stats`` view; a
dead flag is not an error (it is the expected, desirable case), so this
module reports a :class:`FlagReport` rather than findings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.ir import instructions as I
from repro.ir.module import Function

FLAG_LETTERS = "oszapc"

_FLAG_PHI = re.compile(r"fl([oszapc])\d*$")


def flag_letter_of(ins: I.Instruction) -> str | None:
    """The flag letter a lifted flag phi carries, or None."""
    if not isinstance(ins, I.Phi):
        return None
    m = _FLAG_PHI.fullmatch(ins.name or "")
    return m.group(1) if m else None


@dataclass
class FlagReport:
    """Per-function flag liveness: which letters survive optimization."""

    function: str
    #: letters with at least one ``fl*`` phi still in the IR
    present: set[str] = field(default_factory=set)
    #: letters whose value is read by at least one non-flag-phi instruction
    consumed: set[str] = field(default_factory=set)
    #: number of flag phis per letter
    phi_counts: dict[str, int] = field(default_factory=dict)

    def dead_flags(self) -> list[str]:
        """Letters whose phis exist but feed only the flag network."""
        return [f for f in FLAG_LETTERS
                if f in self.present and f not in self.consumed]

    def eliminated_flags(self) -> list[str]:
        """Letters with no phis left at all (fully folded away)."""
        return [f for f in FLAG_LETTERS if f not in self.present]

    def summary(self) -> str:
        def fmt(letters) -> str:
            return "".join(letters) or "-"
        return (f"@{self.function}: flags consumed={fmt(sorted(self.consumed))} "
                f"dead={fmt(self.dead_flags())} "
                f"eliminated={fmt(self.eliminated_flags())}")


def analyze_flags(func: Function) -> FlagReport:
    """Classify each status flag as consumed, dead, or eliminated."""
    report = FlagReport(function=func.name)
    if func.is_declaration or not func.blocks:
        return report

    users: dict[int, list[I.Instruction]] = {}
    flag_phis: list[tuple[I.Phi, str]] = []
    for blk in func.blocks:
        for ins in blk.instructions:
            for op in ins.operands:
                users.setdefault(id(op), []).append(ins)
            letter = flag_letter_of(ins)
            if letter is not None:
                flag_phis.append((ins, letter))
                report.present.add(letter)
                report.phi_counts[letter] = report.phi_counts.get(letter, 0) + 1

    for phi, letter in flag_phis:
        if letter in report.consumed:
            continue
        for user in users.get(id(phi), ()):
            if flag_letter_of(user) is None:
                report.consumed.add(letter)
                break
    return report
