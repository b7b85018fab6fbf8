"""Every instruction class has exactly one place in each scalar pass's table.

``fold``, ``constprop``, ``instcombine``, ``gvn`` and ``dce`` find their
rule for an instruction by ``type(ins)`` — one dict lookup instead of an
``isinstance`` cascade — and skip the classes no rule touches in one set
test.  A class that is in neither would lose its folds (or raise in the
walk); a class in both would be skipped by one path and rewritten by the
other.  So for each pass every concrete ``Instruction`` subclass must be in
exactly one of its rule table and its declared no-rule set.
"""

from __future__ import annotations

import inspect

import pytest

from repro.ir import DOUBLE, I64, V2F64, Function, FunctionType, Module, ptr
from repro.ir import instructions as I
from repro.ir.passes import constprop, dce, fold, gvn, instcombine
from repro.ir.values import Constant, ConstantFP, ConstantVector

CLASSES = frozenset(
    cls for _name, cls in inspect.getmembers(I, inspect.isclass)
    if issubclass(cls, I.Instruction) and cls is not I.Instruction)

#: pass -> (classes with a rule, classes declared rule-free)
TABLES = {
    "fold": (set(fold.RULES), fold.NO_RULE),
    "constprop": (set(constprop.RULES), constprop.NO_RULE),
    "instcombine": (set(instcombine.RULES), instcombine.NO_RULE),
    "gvn": (set(gvn.RULES) | gvn.MEMORY, gvn.NO_RULE),
    "dce": (set(dce.ROOTS), dce.NO_RULE),
}


def test_the_instruction_classes_are_enumerated():
    assert len(CLASSES) == 17
    assert {I.BinOp, I.Phi, I.Call, I.Unreachable} <= CLASSES


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_class_is_in_exactly_one_table(name):
    ruled, no_rule = TABLES[name]
    for cls in CLASSES:
        assert (cls in ruled) + (cls in no_rule) == 1, (name, cls.__name__)
    assert ruled | no_rule == CLASSES


def test_the_skip_sets_are_the_stated_ones():
    terminators = {I.Br, I.Ret, I.Unreachable}
    assert instcombine.NO_RULE == {I.Phi, I.Load, I.Store, I.Alloca,
                                   I.Call} | terminators
    assert constprop.NO_RULE == {I.Phi, I.Store, I.Alloca, I.Call,
                                 I.ShuffleVector} | terminators


def _no_rule_instances() -> dict[type, I.Instruction]:
    """One hand-built instance of every class ``fold`` has no rule for,
    with constant operands wherever an operand can be one."""
    m = Module("t")
    f = Function("f", FunctionType(I64, ()))
    m.add_function(f)
    blk = f.add_block("entry")
    p = I.Cast("inttoptr", Constant(I64, 0x1000), ptr(I64))
    vec = ConstantVector(V2F64, (ConstantFP(DOUBLE, 1.0),
                                 ConstantFP(DOUBLE, 2.0)))
    phi = I.Phi(I64)
    phi.add_incoming(Constant(I64, 3), blk)
    return {
        I.Load: I.Load(p),
        I.Store: I.Store(Constant(I64, 1), p),
        I.Alloca: I.Alloca(I64, 8),
        I.ShuffleVector: I.ShuffleVector(vec, vec, (1, 0)),
        I.Phi: phi,
        I.Call: I.Call("llvm.sqrt", [ConstantFP(DOUBLE, 4.0)], DOUBLE),
        I.Br: I.Br(None, blk),
        I.Ret: I.Ret(Constant(I64, 0)),
        I.Unreachable: I.Unreachable(),
    }


def test_try_fold_returns_none_on_every_no_rule_class():
    instances = _no_rule_instances()
    assert set(instances) == fold.NO_RULE
    for cls, ins in instances.items():
        assert type(ins) is cls
        assert fold.try_fold(ins) is None, cls.__name__


def test_an_undeclared_class_is_loud_not_silent():
    class Renamed(I.BinOp):
        __slots__ = ()

    ins = Renamed("add", Constant(I64, 1), Constant(I64, 2))
    with pytest.raises(KeyError):
        fold.try_fold(ins)
