"""Corpus-scale differential validation with failing-seed minimization.

This is the library behind ``tests/integration/test_differential_corpus.py``
and the ``python -m repro.testing.diffcorpus`` CLI.  Each seed
deterministically generates one multi-instruction x86-64 sequence
(``random.Random(seed)`` — no shrinking framework, so a seed printed by CI
reproduces locally bit-for-bit) and runs it through every execution layer
on the same probe inputs:

    simulator(native)  ==  interp(lifted IR)  ==  interp(O3 IR)
                       ==  simulator(JIT(O3 IR))
                       ==  simulator(instrumented JIT(O3 IR))

Agreement is checked on the return value, on flag-dependent results and on
a 64-byte scratch region.  The fifth engine carries the full probe load
(call/edge counters, memory tracing, return watchpoints) and must agree
with the other four bit-for-bit; its probe buffer is additionally audited
for internal consistency after the run (edge counts tie out against call
counts, traced addresses fall inside mapped regions).  Three things distinguish this from the original
in-test corpus it grew out of:

* **scale** — a :func:`run_corpus` multiprocess runner fans seed ranges
  out over a ``multiprocessing`` pool, so 10k+ seeds finish in minutes
  instead of hours (each worker process keeps its own decode-memo,
  decoded-trace and interpreter-trace caches hot across its chunk);
* **minimization** — a failing seed is delta-debugged (classic ddmin over
  the generated assembly's *body* lines; prologue and epilogue stay
  pinned so the return-value folding can't be reduced away) down to a
  minimal still-failing reproducer, which is persisted as a standalone
  ``.asm`` regression case replayed by the test suite forever after;
* **stale-trace audit** — after every interpreter run the case asserts
  :func:`repro.ir.interp.trace_is_current` for both the pre- and post-O3
  functions, so the corpus doubles as the soundness gate for the
  threaded-dispatch trace cache: any execution of (or opportunity to
  execute) a stale trace fails the seed.

A substring-triggered injection hook (``inject=``) corrupts the post-O3
interpreter result whenever the generated assembly contains the trigger —
the way the minimizer itself is tested end-to-end without a real
miscompile.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

SCRATCH = 64

_REGS = ("r8", "r9", "r10", "r11")
_REGS32 = ("r8d", "r9d", "r10d", "r11d")
_CCS = ("e", "ne", "l", "ge", "le", "g", "b", "ae", "a", "be", "s", "ns")
_OFFS = tuple(range(0, SCRATCH, 8))

#: (prologue, epilogue) line counts per generator — the ddmin minimizer
#: never removes these, so every reduced candidate still seeds its
#: temporaries from the arguments and folds them into the return value
PINNED = {"int": (6, 5), "sse": (2, 4)}


class CorpusDisagreement(AssertionError):
    """An engine disagreed with the native simulator on some probe."""


# -- generators -------------------------------------------------------------


def gen_int_sequence(rng: random.Random) -> str:
    """Integer ALU / flag / memory sequence over r8-r11 and [rdx+off]."""
    lines = [
        "mov r8, rdi",
        "mov r9, rsi",
        "mov r10, rdi",
        "xor r10, rsi",
        "mov r11, rdi",
        "add r11, rsi",
    ]
    for _ in range(rng.randint(4, 12)):
        kind = rng.randrange(9)
        r1, r2, r3 = (rng.choice(_REGS) for _ in range(3))
        if kind == 0:
            op = rng.choice(("add", "sub", "and", "or", "xor", "imul"))
            lines.append(f"{op} {r1}, {r2}")
        elif kind == 1:
            op = rng.choice(("add", "sub", "and", "or", "xor"))
            lines.append(f"{op} {r1}, {rng.randint(-128, 127)}")
        elif kind == 2:
            op = rng.choice(("shl", "shr", "sar"))
            lines.append(f"{op} {r1}, {rng.randint(0, 31)}")
        elif kind == 3:
            op = rng.choice(("inc", "dec", "neg", "not"))
            lines.append(f"{op} {r1}")
        elif kind == 4:
            # flag consumers must directly follow the cmp: flags after
            # imul/shifts are architecturally undefined
            lines.append(f"cmp {r1}, {r2}")
            lines.append(f"cmov{rng.choice(_CCS)} {r3}, {r1}")
        elif kind == 5:
            lines.append(f"cmp {r1}, {rng.randint(-128, 127)}")
            lines.append(f"set{rng.choice(_CCS)} al")
            lines.append("movzx eax, al")
            lines.append(f"add {r2}, rax")
        elif kind == 6:
            op = rng.choice(("add", "sub", "xor", "and", "or", "mov"))
            i1, i2 = rng.choice(_REGS32), rng.choice(_REGS32)
            lines.append(f"{op} {i1}, {i2}")
        elif kind == 7:
            lines.append(f"mov [rdx + {rng.choice(_OFFS)}], {r1}")
        else:
            lines.append(f"mov {r1}, [rdx + {rng.choice(_OFFS)}]")
    lines += [
        # fold every temporary into the return value
        "mov rax, r8",
        "add rax, r9",
        "xor rax, r10",
        "add rax, r11",
        "ret",
    ]
    return "\n".join(lines)


def gen_sse_sequence(rng: random.Random) -> str:
    """Scalar-double sequence over xmm0-xmm3 and [rdi+off] scratch."""
    lines = [
        "movsd xmm2, xmm0",
        "movsd xmm3, xmm1",
    ]
    for _ in range(rng.randint(3, 10)):
        kind = rng.randrange(4)
        x1 = f"xmm{rng.randrange(4)}"
        x2 = f"xmm{rng.randrange(4)}"
        if kind == 0:
            op = rng.choice(("addsd", "subsd", "mulsd"))
            lines.append(f"{op} {x1}, {x2}")
        elif kind == 1:
            lines.append(f"movsd {x1}, {x2}")
        elif kind == 2:
            lines.append(f"movsd [rdi + {rng.choice(_OFFS)}], {x1}")
        else:
            lines.append(f"movsd {x1}, [rdi + {rng.choice(_OFFS)}]")
    lines += [
        "addsd xmm0, xmm1",
        "addsd xmm0, xmm2",
        "addsd xmm0, xmm3",
        "ret",
    ]
    return "\n".join(lines)


GENERATORS: dict[str, Callable[[random.Random], str]] = {
    "int": gen_int_sequence,
    "sse": gen_sse_sequence,
}

KINDS = tuple(GENERATORS)


# -- single-case harness ----------------------------------------------------


def _probe_args(rng: random.Random, kind: str) -> list[tuple]:
    u64 = lambda: rng.getrandbits(64)
    if kind == "int":
        probes = [(u64(), u64()), (0, 1), ((1 << 64) - 1, 2)]
    else:
        f = lambda: rng.uniform(-1e6, 1e6)
        probes = [(f(), f()), (0.0, -1.5), (f(), 0.0)]
    return probes


def _scratch_pattern(rng: random.Random) -> bytes:
    return struct.pack(f"<{SCRATCH // 8}Q",
                       *(rng.getrandbits(64) for _ in range(SCRATCH // 8)))


def _f64_bits(v: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def _is_nan(bits: int) -> bool:
    return (bits & 0x7FF0000000000000) == 0x7FF0000000000000 \
        and (bits & 0x000FFFFFFFFFFFFF) != 0


def run_case(kind: str, seed: int, *, asm: str | None = None,
             inject: str | None = None) -> None:
    """Run one corpus case; raises :class:`CorpusDisagreement` on failure.

    ``asm`` overrides the generated sequence (the minimizer's hook); the
    generator still runs first so the scratch pattern and probe inputs —
    drawn from the same ``random.Random(seed)`` stream *after* the
    sequence — stay identical to the original failure.

    ``inject`` corrupts the post-O3 interpreter result whenever the
    assembly text contains the trigger substring.  It exists so the
    minimization machinery can be exercised end-to-end (and so CI can
    prove a planted disagreement really is caught and reduced).
    """
    from repro.cpu import Image, Simulator
    from repro.guard.verify import GateOptions
    from repro.instrument import (
        InstrumentOptions, Instrumenter, audit_probe_state,
    )
    from repro.ir import Interpreter, Module, verify
    from repro.ir import interp as _interp
    from repro.ir.passes import run_o3
    from repro.jit import BinaryTransformer
    from repro.lift import FunctionSignature, LiftOptions, lift_function
    from repro.x86 import parse_asm
    from repro.x86.asm import assemble

    rng = random.Random(seed)
    generated = GENERATORS[kind](rng)
    if asm is None:
        asm = generated
    pattern = _scratch_pattern(rng)
    probes = _probe_args(rng, kind)
    corrupt = inject is not None and inject in asm

    img = Image()
    base = img.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    img.add_function("f", code)
    scratch = img.alloc_data(SCRATCH, align=16)
    mem = img.memory
    sim = Simulator(img)

    if kind == "int":
        sig = FunctionSignature(("i", "i", "i"), "i")
    else:
        sig = FunctionSignature(("i", "f", "f"), "f")

    m = Module("corpus")
    f = lift_function(mem, base, sig, LiftOptions(name="f"), m)
    verify(f)
    f_opt = lift_function(mem, base, sig, LiftOptions(name="f_opt"), m)
    run_o3(f_opt)
    verify(f_opt)
    # machine_verify=True makes this corpus the zero-false-positive sweep
    # for the static verifier: a refuted proof raises VerificationError
    # here (hard failure), while the four-engine comparison below is the
    # dynamic oracle — any static/dynamic disagreement fails the seed
    jit_res = BinaryTransformer(img, machine_verify=True).llvm_identity(
        base, sig, name="f_jit")
    if jit_res.machine_verdict not in ("proved", "inconclusive"):
        raise CorpusDisagreement(
            f"seed={seed} kind={kind}: machine verdict "
            f"{jit_res.machine_verdict}")
    # fifth engine: the fully-instrumented JIT (edge + call counters,
    # memory tracing, return watchpoints), admitted through its own
    # machine proof and effects-whitelist gate on the corpus probes.
    # samples=1 keeps the per-seed gate cost corpus-scale
    gate_probes = tuple(
        (p[0], p[1], scratch) if kind == "int" else (scratch, p[0], p[1])
        for p in probes)
    inst_res = Instrumenter(
        img, machine_verify=True,
        gate_options=GateOptions(samples=1)).instrument(
        base, sig,
        options=InstrumentOptions(trace_memory=True, watch_returns=True,
                                  ring_capacity=1024),
        probes=gate_probes, name="f_instr")
    inst_res.buffer.reset()
    interp = Interpreter(m, mem)

    def native(args):
        st = sim.call(base, *args)
        return _f64_bits(st.f64_value) if kind == "sse" else st.rax

    def jit(args):
        st = sim.call(jit_res.addr, *args)
        return _f64_bits(st.f64_value) if kind == "sse" else st.rax

    def jit_instr(args):
        st = sim.call(inst_res.addr, *args)
        return _f64_bits(st.f64_value) if kind == "sse" else st.rax

    def interp_pre(args):
        v = interp.run(f, list(args[0]) + list(args[1]))
        return _f64_bits(v) if kind == "sse" else v

    def interp_o3(args):
        v = interp.run(f_opt, list(args[0]) + list(args[1]))
        r = _f64_bits(v) if kind == "sse" else v
        return r ^ 1 if corrupt else r

    engines = [("native", native), ("interp", interp_pre),
               ("interp+o3", interp_o3), ("jit", jit),
               ("jit+instr", jit_instr)]

    for probe in probes:
        if kind == "int":
            args = ((probe[0], probe[1], scratch), ())
        else:
            args = ((scratch,), (probe[0], probe[1]))
        results = {}
        for ename, run in engines:
            mem.write(scratch, pattern)
            val = run(args)
            results[ename] = (val, mem.read(scratch, SCRATCH))
        # stale-trace audit: the threaded interpreter must never have run
        # (nor be poised to run) a trace whose function has moved on
        for fn in (f, f_opt):
            if not _interp.trace_is_current(fn):
                raise CorpusDisagreement(
                    f"seed={seed} kind={kind}: stale trace for @{fn.name}")
        want_val, want_mem = results["native"]
        for ename, (val, memout) in results.items():
            # both-NaN disagreement in the payload bits is tolerated:
            # x86 and IEEE produce *a* qNaN, not a specific one
            if kind == "sse" and _is_nan(val) and _is_nan(want_val):
                val = want_val
            if val != want_val:
                raise CorpusDisagreement(
                    f"seed={seed} kind={kind} probe={probe}: {ename} "
                    f"returned {val:#x}, native {want_val:#x}\n{asm}")
            if memout != want_mem:
                raise CorpusDisagreement(
                    f"seed={seed} kind={kind} probe={probe}: {ename} "
                    f"scratch memory diverged from native\n{asm}")

    # probe-state audit: the instrumented engine's counters must tie out
    # (entry/return edge counts vs calls, watch hits vs returns) and every
    # traced memory address must land in a mapped region
    violations = audit_probe_state(inst_res, expected_calls=len(probes))
    if violations:
        raise CorpusDisagreement(
            f"seed={seed} kind={kind}: probe audit: "
            + "; ".join(violations) + f"\n{asm}")


# -- ddmin minimizer --------------------------------------------------------


def _ddmin(items: list[str], fails: Callable[[list[str]], bool]) -> list[str]:
    """Classic delta debugging: smallest sublist for which ``fails`` holds."""
    n = 2
    while len(items) >= 2:
        chunk = max(1, (len(items) + n - 1) // n)
        reduced = False
        for i in range(0, len(items), chunk):
            candidate = items[:i] + items[i + chunk:]
            if fails(candidate):
                items = candidate
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if chunk <= 1:
                break
            n = min(len(items), n * 2)
    return items


@dataclass
class MinimizedRepro:
    kind: str
    seed: int
    asm: str
    original_body_lines: int
    minimized_body_lines: int
    tests: int  #: number of candidate executions ddmin spent


def minimize_failure(kind: str, seed: int, *,
                     inject: str | None = None) -> MinimizedRepro:
    """Delta-debug a failing seed's assembly to a minimal reproducer.

    Only the generator's *body* lines are candidates for removal; the
    prologue (argument → temporary moves) and epilogue (fold-into-rax /
    xmm0 and ``ret``) stay pinned, so every candidate is a well-formed
    function with the same observable surface.  A candidate "fails" only
    when it raises :class:`CorpusDisagreement` — a candidate that breaks
    the lifter or assembler outright is treated as passing so the
    reduction never drifts onto an unrelated error.
    """
    rng = random.Random(seed)
    asm = GENERATORS[kind](rng)
    lines = asm.split("\n")
    npro, nepi = PINNED[kind]
    pro, body, epi = lines[:npro], lines[npro:len(lines) - nepi], lines[-nepi:]
    tests = 0

    def fails(candidate: list[str]) -> bool:
        nonlocal tests
        tests += 1
        text = "\n".join(pro + candidate + epi)
        try:
            run_case(kind, seed, asm=text, inject=inject)
        except CorpusDisagreement:
            return True
        except Exception:
            return False
        return False

    if not fails(body):
        raise ValueError(f"seed={seed} kind={kind} does not fail; "
                         "nothing to minimize")
    reduced = _ddmin(body, fails)
    return MinimizedRepro(kind=kind, seed=seed,
                          asm="\n".join(pro + reduced + epi),
                          original_body_lines=len(body),
                          minimized_body_lines=len(reduced), tests=tests)


def persist_repro(repro: MinimizedRepro, directory: Path) -> Path:
    """Write a minimized reproducer as a standalone ``.asm`` regression case.

    The header comments carry the seed metadata; ``parse_asm`` strips
    ``#`` comments, so the file replays directly through :func:`run_case`
    with ``asm=`` set to its contents.
    """
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{repro.kind}_{repro.seed}.asm"
    header = (
        f"# minimized corpus reproducer kind={repro.kind} seed={repro.seed}\n"
        f"# body reduced {repro.original_body_lines} -> "
        f"{repro.minimized_body_lines} lines in {repro.tests} ddmin tests\n"
    )
    path.write_text(header + repro.asm + "\n")
    return path


def parse_repro(path: Path) -> tuple[str, int, str]:
    """Read a persisted reproducer back as ``(kind, seed, asm)``."""
    text = path.read_text()
    kind, seed = None, None
    for token in text.split():
        if token.startswith("kind="):
            kind = token[5:]
        elif token.startswith("seed="):
            seed = int(token[5:])
    if kind not in KINDS or seed is None:
        raise ValueError(f"{path}: missing kind=/seed= header")
    return kind, seed, text


# -- multiprocess corpus runner --------------------------------------------


@dataclass
class CorpusReport:
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    stale_trace_executions: int = 0
    minimized: list[str] = field(default_factory=list)
    jobs: int = 1
    elapsed_s: float = 0.0

    @property
    def cases_per_s(self) -> float:
        return self.cases / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "failures": self.failures,
            "stale_trace_executions": self.stale_trace_executions,
            "minimized": self.minimized,
            "jobs": self.jobs,
            "elapsed_s": round(self.elapsed_s, 3),
            "cases_per_s": round(self.cases_per_s, 1),
        }


def _run_chunk(work: tuple) -> tuple[int, list[dict]]:
    """Pool worker: run a chunk of (kind, seed) cases, return failures.

    Runs in its own process; its decode memo, decoded-trace cache and
    interpreter trace cache stay hot across the whole chunk, which is
    what makes corpus throughput scale with the hot-path work this PR
    cares about.
    """
    cases, inject = work
    failures: list[dict] = []
    for kind, seed in cases:
        try:
            run_case(kind, seed, inject=inject)
        except CorpusDisagreement as exc:
            failures.append({"kind": kind, "seed": seed, "error": str(exc)})
        except Exception as exc:  # infrastructure failure: still a failure
            failures.append({"kind": kind, "seed": seed,
                             "error": f"{type(exc).__name__}: {exc}"})
    return len(cases), failures


def run_corpus(seeds: int, *, kinds: Sequence[str] = KINDS,
               jobs: int | None = None, inject: str | None = None,
               minimize: bool = True,
               repro_dir: Path | None = None) -> CorpusReport:
    """Run ``seeds`` seeds per generator across a process pool.

    Failures are collected (never short-circuited — a 10k-seed run
    reports *all* disagreements), then each distinct failing seed is
    ddmin-minimized in the parent and persisted under ``repro_dir``.
    """
    if jobs is None:
        jobs = min(os.cpu_count() or 1, 8)
    jobs = max(1, jobs)
    cases = [(kind, seed) for kind in kinds for seed in range(seeds)]
    report = CorpusReport(jobs=jobs)
    start = time.perf_counter()
    if jobs == 1 or len(cases) <= 8:
        done, failures = _run_chunk((cases, inject))
        report.cases += done
        report.failures.extend(failures)
    else:
        # ~4 chunks per worker: big enough to amortize cache warm-up,
        # small enough that a straggler chunk can't serialize the tail
        nchunks = jobs * 4
        step = max(1, (len(cases) + nchunks - 1) // nchunks)
        chunks = [(cases[i:i + step], inject)
                  for i in range(0, len(cases), step)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=jobs) as pool:
            for done, failures in pool.imap_unordered(_run_chunk, chunks):
                report.cases += done
                report.failures.extend(failures)
    report.elapsed_s = time.perf_counter() - start
    report.stale_trace_executions = sum(
        1 for fl in report.failures if "stale trace" in fl["error"])
    if minimize and report.failures:
        directory = repro_dir or Path.cwd() / "corpus_repros"
        seen: set[tuple[str, int]] = set()
        for fl in report.failures:
            key = (fl["kind"], fl["seed"])
            if key in seen:
                continue
            seen.add(key)
            try:
                repro = minimize_failure(fl["kind"], fl["seed"],
                                         inject=inject)
            except ValueError:
                continue  # flaky / infrastructure failure: nothing to reduce
            report.minimized.append(str(persist_repro(repro, directory)))
    return report


# -- CLI --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.diffcorpus",
        description="corpus-scale differential validation")
    parser.add_argument("--seeds", type=int, default=200,
                        help="seeds per generator (default 200)")
    parser.add_argument("--kinds", default=",".join(KINDS),
                        help="comma-separated generators (default all)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default min(cpus, 8))")
    parser.add_argument("--inject", default=None, metavar="SUBSTR",
                        help="corrupt post-O3 interp results for sequences "
                             "containing SUBSTR (minimizer demo)")
    parser.add_argument("--no-minimize", action="store_true",
                        help="report failures without ddmin reduction")
    parser.add_argument("--repro-dir", type=Path, default=None,
                        help="where minimized reproducers are persisted")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the report as JSON")
    args = parser.parse_args(argv)

    kinds = tuple(k for k in args.kinds.split(",") if k)
    for k in kinds:
        if k not in KINDS:
            parser.error(f"unknown generator {k!r} (have {', '.join(KINDS)})")

    report = run_corpus(args.seeds, kinds=kinds, jobs=args.jobs,
                        inject=args.inject, minimize=not args.no_minimize,
                        repro_dir=args.repro_dir)
    print(f"corpus: {report.cases} cases, {len(report.failures)} failure(s), "
          f"{report.stale_trace_executions} stale-trace execution(s), "
          f"{report.jobs} job(s), {report.elapsed_s:.1f}s "
          f"({report.cases_per_s:.1f} cases/s)")
    for fl in report.failures[:10]:
        first = fl["error"].splitlines()[0]
        print(f"  FAIL {fl['kind']}:{fl['seed']}: {first}")
    if len(report.failures) > 10:
        print(f"  ... and {len(report.failures) - 10} more")
    for path in report.minimized:
        print(f"  minimized reproducer: {path}")
    if args.json is not None:
        args.json.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"wrote {args.json}")
    # planted-injection runs are *expected* to fail; their success
    # criterion is "failures found and minimized", not "no failures"
    if args.inject is not None:
        return 0 if report.failures and report.minimized else 1
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
