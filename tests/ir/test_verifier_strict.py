"""The structural rule table — every rule of ``ir.verifier.violations``
under both reporters — and the verify-after-every-pass debug flag.

``ERRORS`` maps a rule to a builder of a function that breaks it and
nothing before it, and to the message it must produce: ``verify`` raises
exactly when ``check_strict_ssa`` reports an error, and with the same
words.  ``tests/analysis/test_strictness.py`` takes its bodies from
:func:`build` too.
"""

import re

import pytest

from repro.analysis.findings import WARNING, errors_only
from repro.analysis.strictness import check_strict_ssa
from repro.errors import IRError
from repro.ir import (
    I32, I64, Function, FunctionType, IRBuilder, Module, verify,
)
from repro.ir import instructions as I
from repro.ir.passes import run_o3
from repro.ir.passes.pipeline import set_verify_after_each_pass
from repro.ir.values import Constant, Value
from repro.testing.faults import inject_faults


def _diamond():
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    entry = f.add_block("entry")
    then = f.add_block("then")
    els = f.add_block("els")
    merge = f.add_block("merge")
    b = IRBuilder(entry)
    cond = b.icmp("eq", f.args[0], b.const(I64, 0))
    b.cond_br(cond, then, els)
    b.position_at_end(then)
    t = b.add(f.args[0], b.const(I64, 1))
    b.br(merge)
    b.position_at_end(els)
    e = b.add(f.args[0], b.const(I64, 2))
    b.br(merge)
    b.position_at_end(merge)
    phi = b.phi(I64)
    phi.add_incoming(t, then)
    phi.add_incoming(e, els)
    b.ret(phi)
    return f, (entry, then, els, merge), phi, (t, e)


# -- one builder per rule: the diamond, broken in exactly one way --------------------


def _clean():
    return _diamond()[0]


def _declaration_with_body():
    f = _clean()
    f.is_declaration = True
    return f


def _no_blocks():
    return Function("f", FunctionType(I64, (I64,)))


def _duplicate_block_name():
    f, (entry, then, els, merge), *_ = _diamond()
    els.name = "then"
    return f


def _wrong_block_parent():
    f, (entry, then, els, merge), *_ = _diamond()
    then.function = None
    return f


def _missing_terminator():
    f, (entry, then, els, merge), *_ = _diamond()
    merge.terminator.erase()
    return f


def _terminator_mid_block():
    f, (entry, then, els, merge), phi, _ = _diamond()
    merge.insert(1, I.Ret(phi))
    return f


def _phi_after_non_phi():
    f, (entry, then, els, merge), phi, (t, e) = _diamond()
    merge.insert(1, I.BinOp("add", phi, phi, "x"))
    late = I.Phi(I64, "late")
    late.add_incoming(t, then)
    late.add_incoming(e, els)
    merge.insert(2, late)
    return f


def _instruction_parent_mismatch():
    f, (entry, then, els, merge), phi, (t, e) = _diamond()
    t.block = els
    return f


def _binop_type_mismatch():
    f, _blocks, _phi, (t, e) = _diamond()
    t.operands[1] = Constant(I32, 1)
    return f


def _foreign_branch_target():
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    g = Function("g", FunctionType(I64, (I64,)))
    foreign = g.add_block("foreign")
    IRBuilder(f.add_block("entry")).br(foreign)
    return f


def _stale_use_list():
    f, _blocks, _phi, (t, e) = _diamond()
    list.__setitem__(t.operands, 0, e)  # a write the container never saw
    return f


def _stale_predecessor_map():
    f, (entry, then, els, merge), *_ = _diamond()
    f.predecessor_map()
    then.terminator.targets[0] = els  # an edge moved, no bump_version
    return f


def _phi_skew():
    f, _blocks, phi, _ = _diamond()
    phi.incoming_blocks.pop()  # operand without a block
    return f


def _phi_zero_incoming():
    f, (entry, then, els, merge), phi, _ = _diamond()
    phi.remove_incoming(then)
    phi.remove_incoming(els)
    return f


def _phi_duplicate_incoming():
    f, (entry, then, els, merge), phi, (t, e) = _diamond()
    phi.operands.append(t)
    phi.incoming_blocks.append(then)  # second entry for the same pred
    return f


def _phi_missing_incoming():
    f, (entry, then, els, merge), phi, _ = _diamond()
    phi.remove_incoming(els)
    return f


def _phi_stale_incoming():
    f, (entry, then, els, merge), phi, _ = _diamond()
    phi.add_incoming(Constant(I64, 9), entry)  # entry is not a merge pred
    return f


def _detached_operand():
    f, _blocks, _phi, (t, e) = _diamond()
    t.name = "gone"
    t.erase()  # the phi still reads it
    return f


def _operand_defined_nowhere():
    f, _blocks, _phi, (t, e) = _diamond()
    t.operands[1] = Value(I64, "slot")  # no instruction, argument or constant
    return f


def _unreachable_block():
    """The diamond plus ``dead: %v = add %arg0, 5; ret %v``."""
    f = _clean()
    b = IRBuilder(f.add_block("dead"))
    b.ret(b.add(f.args[0], b.const(I64, 5), "v"))
    return f


def _detached_operand_in_unreachable_block():
    f = _unreachable_block()
    v = f.blocks[-1].instructions[0]
    v.name = "gone"
    v.erase()  # dead's ret still reads it
    return f


def _reachable_use_of_unreachable_def():
    f = _unreachable_block()
    f.blocks[3].terminator.operands[0] = f.blocks[-1].instructions[0]
    return f


def _use_before_definition():
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    blk = f.add_block("entry")
    b = IRBuilder(blk)
    x = b.add(f.args[0], b.const(I64, 1))
    b.ret(b.add(x, b.const(I64, 2)))
    # swap the two adds: the second now reads x before x is defined
    blk.instructions[0], blk.instructions[1] = (
        blk.instructions[1], blk.instructions[0])
    return f


def _non_dominating_definition():
    f, (entry, then, els, merge), phi, (t, e) = _diamond()
    merge.terminator.operands[0] = t  # defined on the then path only
    return f


#: rule -> (builder, the message both reporters give, as a regex)
ERRORS = {
    "declaration with a body": (_declaration_with_body,
                                r"declaration with a body"),
    "no blocks": (_no_blocks, r"no basic blocks"),
    "duplicate block name": (_duplicate_block_name,
                             r"duplicate block name then"),
    "wrong block parent": (_wrong_block_parent,
                           r"block then has wrong parent"),
    "missing terminator": (_missing_terminator,
                           r"block merge lacks a terminator"),
    "terminator mid-block": (_terminator_mid_block,
                             r"terminator mid-block in merge"),
    "phi after non-phi": (_phi_after_non_phi, r"phi after non-phi in merge"),
    "instruction parent": (_instruction_parent_mismatch,
                           r"instruction parent mismatch in then"),
    "type": (_binop_type_mismatch, r"binop add type mismatch i64 vs i32"),
    "foreign branch target": (_foreign_branch_target,
                              r"branch from entry to foreign block foreign"),
    "use list": (_stale_use_list, r"use list: .* does not list operand 0"),
    "stale predecessor map": (_stale_predecessor_map,
                              r"stale predecessor map"),
    "phi skew": (_phi_skew, r"has 2 value\(s\) for 1 incoming block\(s\)"),
    "phi zero incoming": (_phi_zero_incoming, r"has no incoming edges"),
    "phi duplicate incoming": (_phi_duplicate_incoming,
                               r"\['then'\] more than once"),
    "phi missing incoming": (
        _phi_missing_incoming,
        r"incoming mismatch \(missing \['els'\], extra \[\]\)"),
    "phi stale incoming": (
        _phi_stale_incoming,
        r"incoming mismatch \(missing \[\], extra \['entry'\]\)"),
    "operand defined nowhere": (
        _operand_defined_nowhere,
        r"operand %slot of %\w+ is defined nowhere"),
    "detached operand": (_detached_operand, r"use of detached value %gone"),
    "detached operand, unreachable block": (
        _detached_operand_in_unreachable_block,
        r"use of detached value %gone"),
    "reachable use of unreachable def": (
        _reachable_use_of_unreachable_def,
        r"reachable use of %v in merge, defined in unreachable block dead"),
    "use before definition": (_use_before_definition,
                              r"used before definition in entry"),
    "non-dominating definition": (
        _non_dominating_definition,
        r"definition of %\w+ \(then\) does not dominate use in merge"),
}


#: bodies no rule rejects
LEGAL = {"clean": _clean, "unreachable block": _unreachable_block}


def build(name: str) -> Function:
    return (ERRORS[name][0] if name in ERRORS else LEGAL[name])()


@pytest.mark.parametrize("rule", ERRORS)
def test_rule_raises_and_is_found_with_the_same_message(rule):
    build, message = ERRORS[rule]
    errors = errors_only(check_strict_ssa(build()))
    assert errors and re.search(message, errors[0].message), errors
    with pytest.raises(IRError) as exc:
        verify(build())
    assert str(exc.value) == f"@f: {errors[0].message}"


@pytest.mark.parametrize("name", LEGAL)
def test_no_error_means_no_raise(name):
    verify(build(name))
    assert errors_only(check_strict_ssa(build(name))) == []


def test_unreachable_block_is_a_warning():
    (finding,) = check_strict_ssa(_unreachable_block())
    assert finding.severity == WARNING and finding.block == "dead"
    assert finding.message == "unreachable block dead"


def test_dominance_is_judged_on_sound_bodies_only():
    # a broken structure is reported alone: the CFG it implies means nothing
    f = _non_dominating_definition()
    f.blocks[3].terminator.erase()
    messages = [x.message for x in check_strict_ssa(f)]
    assert messages == ["block merge lacks a terminator"]


def test_clean_diamond_verifies():
    verify(_clean())


def test_duplicate_incoming_block_raises():
    with pytest.raises(IRError, match="more than once"):
        verify(build("phi duplicate incoming"))


def test_zero_incoming_phi_raises():
    with pytest.raises(IRError, match="no incoming edges"):
        verify(build("phi zero incoming"))


def test_operand_block_skew_raises():
    with pytest.raises(IRError, match="value.*incoming block"):
        verify(build("phi skew"))


def test_missing_predecessor_still_raises():
    with pytest.raises(IRError, match="incoming mismatch"):
        verify(build("phi missing incoming"))


def _fresh_opt_input():
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64, I64)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.add(b.mul(f.args[0], b.const(I64, 3)), f.args[1]))
    return f


@pytest.fixture
def verify_each_pass():
    set_verify_after_each_pass(True)
    yield
    set_verify_after_each_pass(False)


def test_verify_after_each_pass_clean(verify_each_pass):
    report = run_o3(_fresh_opt_input())
    assert report.iterations >= 1


def test_verify_after_each_pass_catches_corruption(verify_each_pass):
    def drop_terminator(result, func):
        func.blocks[-1].instructions.pop()
        return None

    f = _fresh_opt_input()
    with inject_faults("pass:dce", corrupt=drop_terminator):
        with pytest.raises(IRError, match="terminator"):
            run_o3(f)


def test_flag_off_by_default():
    # without the debug flag the same corruption sails through run_o3 —
    # the flag (not a hidden verifier call) is what catches it above
    def poison_ret(result, func):
        for blk in func.blocks:
            for ins in blk.instructions:
                if isinstance(ins, I.Ret) and ins.value is not None:
                    ins.operands[0] = Constant(I64, 7)
                    return None
        return None

    f = _fresh_opt_input()
    with inject_faults("pass:dce", corrupt=poison_ret):
        run_o3(f)  # no raise
