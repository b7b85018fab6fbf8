"""Seeded cross-layer differential corpus (pytest front-end).

The generators, four-engine harness, multiprocess runner and ddmin
minimizer live in :mod:`repro.testing.diffcorpus`; this module is the CI
surface.  Each seed deterministically generates one x86-64 sequence and
checks

    simulator(native)  ==  interp(lifted IR)  ==  interp(O3 IR)
                       ==  simulator(JIT(O3 IR))

on shared probe inputs, plus the stale-trace audit for the threaded
interpreter's trace cache.

A disagreeing seed is appended to ``corpus_failures.txt`` next to this
file; recorded seeds are replayed by ``test_replay_recorded_failures`` on
every run, and minimized ``corpus_repros/*.asm`` reproducers (persisted
by the corpus runner's delta debugger) are replayed by
``test_replay_minimized_repros``, so a corpus bug stays covered after the
corpus moves on.

``REPRO_CORPUS_SEEDS`` scales the in-test corpus (the default keeps local
runs quick); corpus-scale sweeps (2k in CI, 10k+ locally) go through
``python -m repro.testing.diffcorpus`` which parallelizes across a
process pool.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.jit import BinaryTransformer
from repro.testing import diffcorpus
from repro.testing.diffcorpus import parse_repro, run_case

SEEDS = int(os.environ.get("REPRO_CORPUS_SEEDS", "25"))
_FAILURES = Path(__file__).with_name("corpus_failures.txt")
_REPRO_DIR = Path(__file__).with_name("corpus_repros")


def _check(kind: str, seed: int) -> None:
    try:
        run_case(kind, seed)
    except AssertionError:
        _record_failure(kind, seed)
        raise


# -- failing-seed persistence ----------------------------------------------


def _record_failure(kind: str, seed: int) -> None:
    entry = f"{kind}:{seed}"
    existing = _FAILURES.read_text().split() if _FAILURES.exists() else []
    if entry not in existing:
        with _FAILURES.open("a") as fh:
            fh.write(entry + "\n")


def _recorded_failures() -> list[tuple[str, int]]:
    if not _FAILURES.exists():
        return []
    out = []
    for token in _FAILURES.read_text().split():
        kind, _, seed = token.partition(":")
        if kind in ("int", "sse") and seed.isdigit():
            out.append((kind, int(seed)))
    return out


# -- tests ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(SEEDS))
def test_int_corpus(seed):
    _check("int", seed)


@pytest.mark.parametrize("seed", range(SEEDS))
def test_sse_corpus(seed):
    _check("sse", seed)


def test_replay_recorded_failures():
    """Seeds that ever failed stay in the corpus forever."""
    for kind, seed in _recorded_failures():
        run_case(kind, seed)


def test_replay_minimized_repros():
    """Minimized reproducers persisted by the corpus runner stay green.

    Each ``corpus_repros/*.asm`` file carries its seed in the header, so
    the probe inputs replay exactly; the assembly replayed is the reduced
    sequence, not the original generation.
    """
    if not _REPRO_DIR.is_dir():
        pytest.skip("no minimized reproducers recorded")
    paths = sorted(_REPRO_DIR.glob("*.asm"))
    if not paths:
        pytest.skip("no minimized reproducers recorded")
    for path in paths:
        kind, seed, asm = parse_repro(path)
        run_case(kind, seed, asm=asm)


def test_cli_finds_minimises_and_persists_an_injected_disagreement(tmp_path):
    """The corpus CLI end to end, in-process: ``--inject imul`` corrupts
    the post-O3 result of every sequence with an ``imul``; the run must
    report those failures and leave one ddmin-reduced ``.asm`` behind."""
    report = tmp_path / "c.json"
    assert diffcorpus.main(["--seeds", "10", "--jobs", "1", "--inject", "imul",
                            "--repro-dir", str(tmp_path),
                            "--json", str(report)]) == 0
    assert len(list(tmp_path.glob("*.asm"))) == 1
    assert json.loads(report.read_text())["failures"]


def test_bench_kernels_machine_sweep():
    """Every benchmark kernel must survive the verified production path:
    a refuted proof on this known-clean set is a static/dynamic-oracle
    disagreement and a hard failure."""
    from repro.analysis.lint import CORPORA
    from repro.cc import compile_c

    verdicts = {}
    for corpus, programs in CORPORA.items():
        for source, signatures in programs:
            prog = compile_c(source)
            for name, sig in signatures.items():
                res = BinaryTransformer(
                    prog.image, machine_verify=True).llvm_identity(
                        name, sig, name=f"{name}.mc")
                verdicts[name] = res.machine_verdict
    assert all(v in ("proved", "inconclusive") for v in verdicts.values()), \
        verdicts
    # the scalar kernels are known to prove outright; pin that so a
    # precision regression (proved -> inconclusive) is visible
    for name in ("poly", "dot", "clamp_sum"):
        assert verdicts[name] == "proved", verdicts
