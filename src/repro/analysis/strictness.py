"""Strict-SSA findings: the verifier's rule list, collected.

``ir.verifier.verify`` raises at the first broken rule — the right
contract for "abort this compile".  A lint run and the guard's pregate
want the full list, warnings included (an unreachable block is legal IR),
so this reporter walks the same :func:`repro.ir.verifier.violations` and
turns every one into a :class:`Finding`.  The rules themselves, their
messages and their severities live in the verifier and nowhere else.
"""

from __future__ import annotations

from repro.ir.module import Function
from repro.ir.verifier import violations

from repro.analysis.findings import ERROR, WARNING, Finding

CHECKER = "ssa-strict"


def check_strict_ssa(func: Function) -> list[Finding]:
    """All structural findings for one function (never raises)."""
    return [
        Finding(checker=CHECKER, function=func.name, message=v.message,
                severity=ERROR if v.error else WARNING,
                block=v.block.name if v.block is not None else "",
                instruction=repr(v.ins).strip() if v.ins is not None else "")
        for v in violations(func)
    ]
