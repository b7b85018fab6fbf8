"""Checker registry: run any subset of the soundness lints by name.

The registry is the single entry point the lint CLI, the guard's static
pre-gate and the per-pass validator all share, so adding a checker in one
place makes it available everywhere.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.ir.module import Function

from repro.analysis.findings import Finding
from repro.analysis.memregion import check_memory_regions
from repro.analysis.strictness import check_strict_ssa
from repro.analysis.undef import check_undef_uses

#: name -> per-function checker returning findings
CHECKERS: dict[str, Callable[[Function], list[Finding]]] = {
    "undef-use": check_undef_uses,
    "mem-region": check_memory_regions,
    "ssa-strict": check_strict_ssa,
}

#: checkers cheap enough for the guard's inline pre-gate
DEFAULT_PREGATE = ("ssa-strict", "undef-use", "mem-region")


def run_checkers(func: Function,
                 checkers: Iterable[str] | None = None) -> list[Finding]:
    """Run the named checkers (all by default) over one function."""
    names = list(checkers) if checkers is not None else list(CHECKERS)
    out: list[Finding] = []
    for name in names:
        try:
            fn = CHECKERS[name]
        except KeyError:
            raise ValueError(
                f"unknown checker {name!r} (have: {', '.join(sorted(CHECKERS))})"
            ) from None
        out.extend(fn(func))
    return out
