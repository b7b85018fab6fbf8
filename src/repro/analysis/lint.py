"""Lint runner: lift a known-clean corpus and fail on any checker finding.

``python -m repro.analysis.lint`` compiles a small fixed corpus with the
in-tree C compiler, lifts every function through the production lifter, and
runs the soundness checkers (:data:`repro.analysis.checkers.CHECKERS`) on
the lifted IR — and, with ``--post-o3``, again after the full -O3 pipeline.
The corpus is *clean by construction*, so every finding is a true positive
against the lifter or an optimizer pass; CI runs this as a regression gate.

Corpora:

* ``examples`` — the small C kernels from the examples/ directory
  (Horner polynomial, dot product, clamped sum);
* ``stencil``  — the six non-calling Sec. VI stencil kernels
  (``apply_{direct,flat,sorted}``, ``line_{direct,flat,sorted}``).

``--stats`` additionally prints the per-function dead-flag report
(:func:`repro.analysis.deadflags.analyze_flags`) — the Fig. 6 story: after
-O3 the status-flag network should be dead or eliminated almost everywhere.

``--machine`` extends the gate to the machine layer: each corpus function
is JIT-compiled back into its program image and the emitted bytes are
verified against the IR by :mod:`repro.analysis.machine` (translation
validation).  A refuted proof is an ERROR finding; an inconclusive proof
is a WARNING (the production pipeline downgrades those to a mandatory
dynamic gate rather than rejecting).

Exit status is 1 when any ERROR-severity finding is reported (warnings are
printed but do not fail the run), 2 on usage errors, and 3 when the lint
run itself crashes — so CI can tell "the corpus regressed" from "the
toolchain fell over".
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict, dataclass, field

from repro.cc import compile_c
from repro.ir.module import Function, Module
from repro.ir.passes import run_o3
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.stencil.sources import (
    ELEMENT_SIGNATURE, LINE_SIGNATURE, kernel_source,
)

from repro.analysis.checkers import CHECKERS, run_checkers
from repro.analysis.deadflags import FlagReport, analyze_flags
from repro.analysis.findings import ERROR, WARNING, Finding

_POLY_SOURCE = """
double poly(double* coeff, long n, double x) {
    double acc = 0.0;
    for (long i = 0; i < n; i++) {
        acc = acc * x + coeff[i];
    }
    return acc;
}
"""

_DOT_SOURCE = """
double dot(double* a, double* b, long n) {
    double acc = 0.0;
    for (long i = 0; i < n; i++) {
        acc = acc + a[i] * b[i];
    }
    return acc;
}
"""

_CLAMP_SOURCE = """
long clamp_sum(long* v, long n, long lo, long hi) {
    long acc = 0;
    for (long i = 0; i < n; i++) {
        long x = v[i];
        if (x < lo) { x = lo; }
        if (x > hi) { x = hi; }
        acc = acc + x;
    }
    return acc;
}
"""

#: corpus name -> list of (C source, {function name -> signature})
CORPORA: dict[str, list[tuple[str, dict[str, FunctionSignature]]]] = {
    "examples": [
        (_POLY_SOURCE, {"poly": FunctionSignature(("i", "i", "f"), "f")}),
        (_DOT_SOURCE, {"dot": FunctionSignature(("i", "i", "i"), "f")}),
        (_CLAMP_SOURCE,
         {"clamp_sum": FunctionSignature(("i", "i", "i", "i"), "i")}),
    ],
    "stencil": [
        (kernel_source(16), {
            "apply_direct": FunctionSignature(ELEMENT_SIGNATURE, None),
            "apply_flat": FunctionSignature(ELEMENT_SIGNATURE, None),
            "apply_sorted": FunctionSignature(ELEMENT_SIGNATURE, None),
            # line_call_* call through unannotated pointers — the lifter
            # needs known_functions for those; the six direct kernels
            # exercise the same addressing patterns without calls
            "line_direct": FunctionSignature(LINE_SIGNATURE, None),
            "line_flat": FunctionSignature(LINE_SIGNATURE, None),
            "line_sorted": FunctionSignature(LINE_SIGNATURE, None),
        }),
    ],
}


@dataclass
class LintResult:
    """Everything one lint run produced, ready for text or JSON output."""

    functions: int = 0
    findings: list[Finding] = field(default_factory=list)
    flag_reports: list[FlagReport] = field(default_factory=list)
    #: per-function machine-verification verdicts (``--machine``)
    machine: list[dict] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.is_error]

    def to_json(self) -> dict:
        return {
            "functions": self.functions,
            "errors": len(self.errors),
            "warnings": len(self.findings) - len(self.errors),
            "findings": [asdict(f) for f in self.findings],
            "flags": [
                {"function": r.function,
                 "consumed": sorted(r.consumed),
                 "dead": r.dead_flags(),
                 "eliminated": r.eliminated_flags()}
                for r in self.flag_reports
            ],
            "machine": self.machine,
        }

    def to_sarif(self) -> dict:
        """SARIF-shaped report: one run, one rule per checker."""
        rules = sorted({f.checker for f in self.findings})
        results = [
            {
                "ruleId": f.checker,
                "level": "error" if f.is_error else "warning",
                "message": {"text": f.message},
                "locations": [{
                    "logicalLocations": [{
                        "name": f.function, "kind": "function",
                    }],
                }],
            }
            for f in self.findings
        ]
        return {
            "version": "2.1.0",
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "runs": [{
                "tool": {"driver": {
                    "name": "repro.analysis.lint",
                    "rules": [{"id": r} for r in rules],
                }},
                "results": results,
                "properties": {
                    "functions": self.functions,
                    "machine": self.machine,
                },
            }],
        }


def _lift_corpus(corpus: str) -> list[tuple[Function, object]]:
    """Compile and lift every corpus function; (function, image) pairs."""
    lifted: list[tuple[Function, object]] = []
    for source, signatures in CORPORA[corpus]:
        program = compile_c(source)
        for name, sig in signatures.items():
            module = Module(f"lint.{corpus}.{name}")
            func = lift_function(
                program.image.memory, program.image.symbol(name), sig,
                LiftOptions(name=f"{name}.lifted"), module,
            )
            lifted.append((func, program.image))
    return lifted


def _machine_verify(func: Function, image, result: LintResult) -> None:
    """JIT ``func`` back into its image and verify the emitted bytes."""
    from repro.analysis.machine import PROVED, REFUTED, verify_witness
    from repro.ir.codegen import JITEngine

    jit = JITEngine(image)
    jit.compile_function(func, name=f"{func.name}.mc")
    report = verify_witness(jit.last_witness)
    result.machine.append({
        "function": func.name,
        "verdict": report.verdict,
        "blocks": report.blocks_checked,
        "paths": report.paths_checked,
        "seconds": round(report.seconds, 6),
    })
    result.findings.extend(report.findings)
    if report.verdict != PROVED and not any(
            f.is_error for f in report.findings):
        # surface verdicts that carry no checker finding of their own
        result.findings.append(Finding(
            checker="machine.verify",
            function=func.name,
            severity=ERROR if report.verdict == REFUTED else WARNING,
            message=f"machine proof {report.verdict}: "
                    + "; ".join(report.reasons or ["no reason recorded"]),
        ))


def run_lint(corpora: list[str], *, post_o3: bool = False,
             checkers: list[str] | None = None,
             stats: bool = False, machine: bool = False) -> LintResult:
    """Lint the named corpora; the programmatic core of the CLI."""
    result = LintResult()
    for corpus in corpora:
        for func, image in _lift_corpus(corpus):
            result.functions += 1
            result.findings.extend(run_checkers(func, checkers))
            # the machine layer verifies what the production backend
            # emits, which is always the post-O3 form — the verifier's
            # term canonicalization is defined over that shape
            if post_o3 or stats or machine:
                run_o3(func)
            if post_o3:
                result.findings.extend(run_checkers(func, checkers))
            if stats:
                result.flag_reports.append(analyze_flags(func))
            if machine:
                _machine_verify(func, image, result)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="lift the clean corpus and fail on checker findings")
    parser.add_argument("--corpus", default="all",
                        choices=sorted(CORPORA) + ["all"],
                        help="which corpus to lint (default: all)")
    parser.add_argument("--post-o3", action="store_true",
                        help="also run the checkers after the -O3 pipeline")
    parser.add_argument("--checkers", default=None, metavar="A,B",
                        help="comma-separated checker subset "
                             f"(default: all of {','.join(sorted(CHECKERS))})")
    parser.add_argument("--stats", action="store_true",
                        help="print the post-O3 dead-flag report per function")
    parser.add_argument("--machine", action="store_true",
                        help="JIT-compile each function (post-O3, the "
                             "production form) and verify the emitted "
                             "machine code against the IR")
    parser.add_argument("--format", default="text", dest="fmt",
                        choices=("text", "json", "sarif"),
                        help="output format (default: text)")
    args = parser.parse_args(argv)

    corpora = sorted(CORPORA) if args.corpus == "all" else [args.corpus]
    checkers = args.checkers.split(",") if args.checkers else None
    try:
        result = run_lint(corpora, post_o3=args.post_o3, checkers=checkers,
                          stats=args.stats, machine=args.machine)
    except ValueError as exc:  # unknown checker name
        parser.error(str(exc))
    except Exception:
        # a crash is not a finding: exit 3 so CI can tell them apart
        traceback.print_exc()
        print("lint run crashed", file=sys.stderr)
        return 3

    if args.fmt == "json":
        print(json.dumps(result.to_json(), indent=2))
    elif args.fmt == "sarif":
        print(json.dumps(result.to_sarif(), indent=2))
    else:
        for finding in result.findings:
            print(finding.format())
        if args.stats:
            for report in result.flag_reports:
                print(report.summary())
        if args.machine:
            for entry in result.machine:
                print(f"machine {entry['function']}: {entry['verdict']} "
                      f"({entry['blocks']} blocks, {entry['paths']} paths, "
                      f"{entry['seconds'] * 1e3:.2f} ms)")
        errors = len(result.errors)
        warnings = len(result.findings) - errors
        print(f"linted {result.functions} functions "
              f"({', '.join(corpora)}): {errors} errors, "
              f"{warnings} warnings")
    return 1 if result.errors else 0


if __name__ == "__main__":
    sys.exit(main())
