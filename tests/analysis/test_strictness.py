"""Strict-SSA reporter: the verifier's rules, collected as findings.

The malformed bodies and the rule-by-rule agreement with ``verify`` live in
``tests/ir/test_verifier_strict.py``; the corpus-wide agreement of the two
reporters is here.
"""

import random
import sys
from pathlib import Path

import pytest

from repro.analysis.findings import WARNING, errors_only
from repro.analysis.lint import CORPORA, _lift_corpus
from repro.analysis.strictness import check_strict_ssa
from repro.cpu import Image
from repro.ir import Module, verify
from repro.ir.passes import run_o3
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.testing.diffcorpus import GENERATORS
from repro.x86 import parse_asm
from repro.x86.asm import assemble

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "ir"))
from test_verifier_strict import build  # noqa: E402


def _messages(findings):
    return [f.message for f in findings]


def test_clean_diamond_no_findings():
    assert check_strict_ssa(build("clean")) == []


def test_duplicate_incoming_block():
    msgs = _messages(check_strict_ssa(build("phi duplicate incoming")))
    assert any("more than once" in m for m in msgs)


def test_missing_incoming_for_predecessor():
    msgs = _messages(check_strict_ssa(build("phi missing incoming")))
    assert any("missing ['els']" in m for m in msgs)


def test_stale_incoming_for_non_predecessor():
    msgs = _messages(check_strict_ssa(build("phi stale incoming")))
    assert any("extra ['entry']" in m for m in msgs)


def test_zero_incoming_phi():
    msgs = _messages(check_strict_ssa(build("phi zero incoming")))
    assert any("no incoming edges" in m for m in msgs)


def test_operand_incoming_length_skew():
    msgs = _messages(check_strict_ssa(build("phi skew")))
    assert any("incoming block" in m and "value" in m for m in msgs)


def test_phi_after_non_phi():
    f = build("phi after non-phi")
    msgs = _messages(check_strict_ssa(f))
    assert any("phi after non-phi" in m for m in msgs)
    f.blocks[3].instructions[1].erase()  # the add between the two phis
    assert check_strict_ssa(f) == []  # consecutive phis are legal


def test_missing_terminator():
    msgs = _messages(check_strict_ssa(build("missing terminator")))
    assert any("lacks a terminator" in m for m in msgs)


def test_unreachable_block_is_warning_only():
    findings = check_strict_ssa(build("unreachable block"))
    assert len(findings) == 1
    assert findings[0].severity == WARNING
    assert errors_only(findings) == []


def test_reachable_use_of_unreachable_def():
    msgs = _messages(check_strict_ssa(
        build("reachable use of unreachable def")))
    assert any("defined in unreachable block" in m for m in msgs)


def test_use_before_definition_same_block():
    msgs = _messages(check_strict_ssa(build("use before definition")))
    assert any("used before definition" in m for m in msgs)


def test_non_dominating_definition():
    msgs = _messages(check_strict_ssa(build("non-dominating definition")))
    assert any("does not dominate use" in m for m in msgs)


def test_foreign_branch_target():
    msgs = _messages(check_strict_ssa(build("foreign branch target")))
    assert any("foreign block" in m for m in msgs)


# -- both reporters are clean on everything the repo compiles -------------------------


def _both_clean(func, where):
    verify(func)
    assert errors_only(check_strict_ssa(func)) == [], where


@pytest.mark.parametrize("corpus", CORPORA)
def test_reporters_agree_on_the_lint_corpora(corpus):
    for func, _image in _lift_corpus(corpus):
        _both_clean(func, f"{func.name} raw")
        run_o3(func)
        _both_clean(func, f"{func.name} post-O3")


@pytest.mark.parametrize("kind", GENERATORS)
def test_reporters_agree_on_the_differential_corpus(kind):
    sig = FunctionSignature(("i", "i", "i"), "i") if kind == "int" \
        else FunctionSignature(("i", "f", "f"), "f")
    for seed in range(200):
        image = Image()
        base = image.next_code_addr()
        code, _ = assemble(parse_asm(GENERATORS[kind](random.Random(seed))),
                           base=base)
        image.add_function("f", code)
        func = lift_function(image.memory, base, sig, LiftOptions(name="f"),
                             Module("corpus"))
        _both_clean(func, f"{kind}/{seed} raw")
        run_o3(func)
        _both_clean(func, f"{kind}/{seed} post-O3")
