"""Use lists against the function scan they replaced.

``Value.uses`` is kept exact by the operand container
(:class:`repro.ir.instructions.OperandList`); ``Function.replace_all_uses``
walks it instead of the function.  The property test drives random
mutation sequences — operand set/append/delete/assign, phi incoming edits,
insertion, ``erase``, RAUW of instructions, constants and arguments,
``remove_block``, snapshot → mutate → rollback — through two identical
worlds, one using ``Function.replace_all_uses`` and one using the
pre-use-list scan kept here as the oracle.  After every step the verifier's
use-list check holds in both, an independent recomputation from
``operands`` agrees with every ``uses``, both worlds are structurally equal
and both RAUWs returned the same count.  ``REPRO_USELIST_EXAMPLES`` scales
the example count (CI raises it).  Three hand-made mutants of the container
must each fail the property.  A validator rollback leaves only live users
on the function's shared values.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import PassValidator
from repro.analysis.clone import (
    clone_function, functions_structurally_equal, restore_function,
)
from repro.errors import IRError
from repro.ir import (
    I64, Function, FunctionType, IRBuilder, Interpreter, Module, verify,
)
from repro.ir import instructions as I
from repro.ir.passes import O3Options, inline, replay_o3, run_o3, unroll
from repro.ir.passes.pipeline import set_verify_after_each_pass
from repro.ir.values import Constant, Value
from repro.ir.verifier import verify_module, verify_use_lists
from repro.testing.faults import inject_faults

from test_interp_trace import build_add_const

EXAMPLES = int(os.environ.get("REPRO_USELIST_EXAMPLES", "100"))


def scan_rauw(func: Function, old: Value, new: Value) -> int:
    """``Function.replace_all_uses`` as it was before use lists: the oracle."""
    n = 0
    for ins in func.instructions():
        for i, op in enumerate(ins.operands):
            if op is old:
                ins.operands[i] = new
                n += 1
    if n:
        func.bump_version()
    return n


def _attached(func: Function) -> set[bool]:
    """``{True}`` for a live body, ``{False}`` for a snapshot: the flag
    ``clone_region`` was given, read back off its copies."""
    return {ins.operands.user is ins for ins in func.instructions()}


OPS = ("set", "append", "delete", "pop", "assign", "slice", "add_incoming",
       "remove_incoming", "insert", "erase", "rauw", "rauw", "remove_block",
       "snapshot", "restore")

steps = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16),
              st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
    max_size=40)


class World:
    """One function under mutation.  Every choice is an index into a list
    in function order, so two worlds fed the same steps stay in lockstep."""

    def __init__(self, rauw) -> None:
        self.rauw = rauw
        self.module = Module("w")
        f = self.f = Function("f", FunctionType(I64, (I64, I64)))
        self.module.add_function(f)
        #: constants several instructions share, RAUW-able like any value
        self.pool = [Constant(I64, k) for k in (0, 1, 7)]
        self.snapshot: Function | None = None
        #: every instruction ever made, erased ones included
        self.made: list[I.Instruction] = []
        a, b = f.args
        zero, one, seven = self.pool
        entry, then, els, join, loop, exit_ = (
            f.add_block(n) for n in ("entry", "then", "els", "join", "loop",
                                     "exit"))
        bld = IRBuilder(entry)
        x = bld.add(a, b)
        bld.cond_br(bld.icmp("slt", x, seven), then, els)
        bld.position_at_end(then)
        t = bld.mul(x, seven)
        bld.br(join)
        bld.position_at_end(els)
        e = bld.sub(x, b)
        bld.br(join)
        bld.position_at_end(join)
        p = bld.phi(I64)
        p.add_incoming(t, then)
        p.add_incoming(e, els)
        bld.br(loop)
        bld.position_at_end(loop)
        i = bld.phi(I64)
        acc = bld.phi(I64)
        acc2 = bld.add(acc, i)
        i2 = bld.add(i, one)
        i.add_incoming(zero, join)
        i.add_incoming(i2, loop)
        acc.add_incoming(p, join)
        acc.add_incoming(acc2, loop)
        bld.cond_br(bld.icmp("slt", i2, seven), loop, exit_)
        bld.position_at_end(exit_)
        bld.ret(bld.add(acc2, p))
        verify(f)
        self.made.extend(f.instructions())

    # -- choices -------------------------------------------------------------

    def values(self) -> list[Value]:
        return [*self.f.args, *self.pool, *self.f.instructions()]

    def value(self, k: int) -> Value:
        vs = self.values()
        return vs[k % len(vs)]

    def instruction(self, k: int, pred=lambda ins: True):
        found = [ins for ins in self.f.instructions() if pred(ins)]
        return found[k % len(found)] if found else None

    # -- one mutation ---------------------------------------------------------

    def step(self, op: str, k1: int, k2: int, k3: int) -> object:
        f = self.f
        if op == "set":
            ins = self.instruction(k1, lambda i: i.operands)
            if ins is not None:
                ins.operands[k2 % len(ins.operands)] = self.value(k3)
        elif op == "append":
            phi = self.instruction(k1, lambda i: isinstance(i, I.Phi))
            if phi is not None:
                phi.operands.append(self.value(k2))
                phi.incoming_blocks.append(f.blocks[k3 % len(f.blocks)])
        elif op in ("delete", "pop"):
            phi = self.instruction(
                k1, lambda i: isinstance(i, I.Phi) and i.operands)
            if phi is not None:
                at = k2 % len(phi.operands)
                del phi.incoming_blocks[at]
                if op == "pop":
                    phi.operands.pop(at - len(phi.operands))  # negative index
                else:
                    del phi.operands[at]
        elif op == "assign":
            ins = self.instruction(k1, lambda i: i.operands)
            if ins is not None:
                ops = list(reversed(ins.operands))
                ops[k2 % len(ops)] = self.value(k3)
                ins.operands = ops
        elif op == "slice":
            ins = self.instruction(k1, lambda i: len(i.operands) >= 2)
            if ins is not None:
                ins.operands[0:2] = [self.value(k2), self.value(k3)]
        elif op == "add_incoming":
            phi = self.instruction(k1, lambda i: isinstance(i, I.Phi))
            if phi is not None:
                typed = [v for v in self.values() if v.type is phi.type]
                phi.add_incoming(typed[k2 % len(typed)],
                                 f.blocks[k3 % len(f.blocks)])
        elif op == "remove_incoming":
            phi = self.instruction(
                k1, lambda i: isinstance(i, I.Phi) and i.operands)
            if phi is not None:
                phi.remove_incoming(
                    phi.incoming_blocks[k2 % len(phi.incoming_blocks)])
        elif op == "insert":
            blk = f.blocks[k1 % len(f.blocks)]
            new = I.BinOp("add", self.value(k2), self.value(k3),
                          f.next_name())
            self.made.append(new)
            blk.insert(k2 % max(len(blk.instructions), 1), new)
        elif op == "erase":
            ins = self.instruction(k1, lambda i: not i.is_terminator)
            if ins is not None:
                ins.erase()
                assert ins.block is None and ins.operands.user is None
        elif op == "rauw":
            old, new = self.value(k1), self.value(k2)
            before = f.version
            n = self.rauw(f, old, new)
            assert (f.version != before) == bool(n)
            if old is not new:
                assert not any(op_ is old for ins in f.instructions()
                               for op_ in ins.operands)
            return n
        elif op == "remove_block":
            if len(f.blocks) > 1:
                f.remove_block(f.blocks[1 + k1 % (len(f.blocks) - 1)])
        elif op == "snapshot":
            self.snapshot = clone_function(f)
            assert _attached(self.snapshot) == {False}
        elif op == "restore":
            if self.snapshot is not None:
                self.made.extend(self.snapshot.instructions())
                restore_function(f, self.snapshot)
                self.snapshot = None
        return None

    # -- the invariant ---------------------------------------------------------

    def check(self) -> None:
        verify_use_lists(self.f)
        want: dict[int, set[tuple[int, int]]] = {}
        for ins in self.f.instructions():
            assert type(ins.operands) is I.OperandList
            assert ins.operands.user is ins and ins.block is not None
            for i, v in enumerate(ins.operands):
                want.setdefault(id(v), set()).add((id(ins), i))
        live = {id(i) for i in self.f.instructions()}
        for v in [*self.f.args, *self.pool, *self.made]:
            got = {(id(user), i) for user, i in v.uses}
            assert got == want.get(id(v), set()), v
            assert len(got) == len(v.uses)
            assert all(id(user) in live for user, _ in v.uses)


def run_steps(sequence) -> None:
    lists, scan = World(Function.replace_all_uses), World(scan_rauw)
    lists.check()
    for op, k1, k2, k3 in sequence:
        assert lists.step(op, k1, k2, k3) == scan.step(op, k1, k2, k3), op
        lists.check()
        scan.check()
        assert functions_structurally_equal(lists.f, scan.f), op


@settings(max_examples=EXAMPLES, deadline=None)
@given(steps)
def test_random_mutation_sequences(sequence):
    run_steps(sequence)


# -- mutants: each must fail the property ------------------------------------------


def _erase_forgets_one_operand(self: I.Instruction) -> None:
    ops = self.operands
    if ops.user is not None:
        ops.drop(1)  # slot 0 stays listed
        ops.user = None
    self.block.instructions.remove(self)
    object.__setattr__(self, "block", None)


def _delitem_without_reindexing(self: I.OperandList, i) -> None:
    if self.user is not None:
        del self[i].uses[(self.user, i)]  # later slots keep their old index
    list.__delitem__(self, i)


_copy = I.Instruction.copy


def _attached_snapshot(self: I.Instruction, block) -> I.Instruction:
    twin = _copy(self, block)
    twin.attach()  # a snapshot that registers with the shared values
    return twin


MUTANTS = {
    "erase forgets one operand": (I.Instruction, "erase",
                                  _erase_forgets_one_operand),
    "remove_incoming shifts without re-indexing": (
        I.OperandList, "__delitem__", _delitem_without_reindexing),
    "attached snapshot": (I.Instruction, "copy", _attached_snapshot),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_the_property(name, monkeypatch):
    owner, attr, mutant = MUTANTS[name]
    monkeypatch.setattr(owner, attr, mutant)
    prop = settings(max_examples=300, deadline=None, database=None,
                    derandomize=True, report_multiple_bugs=False)(
        given(steps)(run_steps))
    with pytest.raises((AssertionError, IRError, KeyError)):
        prop()


# -- the transforming passes on small bodies -------------------------------------------


def _check_module(m: Module) -> None:
    for func in m.functions.values():
        verify(func)  # includes the use-list check and the predecessor map
        assert _attached(func) == {True}


@settings(max_examples=max(EXAMPLES // 4, 10), deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(-5, 5), min_size=1, max_size=3),
       st.booleans())
def test_inline_keeps_use_lists_exact(ncalls, ks, branchy):
    m = Module("inl")
    callee = Function("g", FunctionType(I64, (I64, I64)))
    m.add_function(callee)
    b = IRBuilder(callee.add_block("entry"))
    x, y = callee.args
    v = x
    for k in ks:
        v = b.add(b.mul(v, y), b.const(I64, k))
    if branchy:
        then, els = callee.add_block("t"), callee.add_block("e")
        b.cond_br(b.icmp("slt", v, b.const(I64, 3)), then, els)
        b.position_at_end(then)
        b.ret(b.add(v, x))
        b.position_at_end(els)
        b.ret(b.sub(v, y))
    else:
        b.ret(v)
    caller = Function("f", FunctionType(I64, (I64,)))
    m.add_function(caller)
    b = IRBuilder(caller.add_block("entry"))
    acc = caller.args[0]
    shared = b.const(I64, 2)  # one constant object at every call site
    for _ in range(ncalls):
        acc = b.call(callee, [acc, shared], I64)
    b.ret(acc)
    _check_module(m)
    want = Interpreter(m).run(caller, [5])
    assert inline.run(caller)
    _check_module(m)  # the callee lists no user from the caller
    assert Interpreter(m).run(caller, [5]) == want
    run_o3(caller)
    _check_module(m)
    assert Interpreter(m).run(caller, [5]) == want


@settings(max_examples=max(EXAMPLES // 4, 10), deadline=None)
@given(st.integers(0, 6), st.integers(1, 4))
def test_unroll_keeps_use_lists_exact(trip, width):
    m = Module("unr")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    entry, loop, exit_ = (f.add_block(n) for n in ("entry", "loop", "exit"))
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    i, acc = b.phi(I64), b.phi(I64)
    nxt = acc
    for k in range(width):
        nxt = b.add(nxt, b.mul(i, b.const(I64, k + 1)))
    i2 = b.add(i, b.const(I64, 1))
    i.add_incoming(b.const(I64, 0), entry)
    i.add_incoming(i2, loop)
    acc.add_incoming(f.args[0], entry)
    acc.add_incoming(nxt, loop)
    b.cond_br(b.icmp("slt", i2, b.const(I64, trip)), loop, exit_)
    b.position_at_end(exit_)
    b.ret(nxt)
    _check_module(m)
    want = Interpreter(m).run(f, [3])
    unroll.run(f)
    _check_module(m)
    assert Interpreter(m).run(f, [3]) == want
    set_verify_after_each_pass(True)
    try:
        run_o3(f)
    finally:
        set_verify_after_each_pass(False)
    assert Interpreter(m).run(f, [3]) == want


# -- the corners the container has to get right ----------------------------------------


def test_rauw_of_a_constant_and_of_an_argument():
    m = Module("c")
    f, c = build_add_const(m, 7)
    assert [(u.opcode, i) for u, i in c.uses] == [("add", 1)]
    assert f.replace_all_uses(c, f.args[0]) == 1
    assert not c.uses and len(f.args[0].uses) == 2
    assert f.replace_all_uses(f.args[0], Constant(I64, 4)) == 2
    assert Interpreter(m).run(f, [9]) == 8
    verify(f)


def test_rauw_leaves_other_functions_alone():
    m = Module("two")
    shared = Constant(I64, 5)
    funcs = []
    for name in ("f", "g"):
        fn = Function(name, FunctionType(I64, (I64,)))
        m.add_function(fn)
        b = IRBuilder(fn.add_block("entry"))
        b.ret(b.add(fn.args[0], shared))
        funcs.append(fn)
    f, g = funcs
    assert len(shared.uses) == 2
    assert f.replace_all_uses(shared, Constant(I64, 6)) == 1
    assert [u.block.function for u, _ in shared.uses] == [g]
    assert Interpreter(m).run(g, [1]) == 6 and Interpreter(m).run(f, [1]) == 7
    _check_module(m)


def test_every_list_mutator_is_tracked():
    m = Module("ops")
    f = Function("f", FunctionType(I64, (I64, I64)))
    m.add_function(f)
    blk = f.add_block("entry")
    a, b = f.args
    phi = blk.append(I.Phi(I64, "p"))
    ops = phi.operands

    def slots() -> dict[str, list[int]]:
        return {v.name: sorted(i for u, i in v.uses if u is phi)
                for v in (a, b) if v.uses}

    ops.extend([a, b, a])
    assert slots() == {"arg0": [0, 2], "arg1": [1]}
    ops.insert(0, b)
    assert slots() == {"arg0": [1, 3], "arg1": [0, 2]}
    ops.reverse()
    assert slots() == {"arg0": [0, 2], "arg1": [1, 3]}
    ops.remove(b)
    assert slots() == {"arg0": [0, 1], "arg1": [2]}
    ops += [b]
    ops[-1] = a
    assert slots() == {"arg0": [0, 1, 3], "arg1": [2]}
    with pytest.raises(IndexError):
        ops[7] = a
    with pytest.raises(IndexError):
        ops[-9] = a
    assert ops.pop() is a and ops.pop(0) is a
    assert slots() == {"arg0": [0], "arg1": [1]}
    ops *= 2
    assert slots() == {"arg0": [0, 2], "arg1": [1, 3]}
    ops.sort(key=lambda v: v.name)
    assert slots() == {"arg0": [0, 1], "arg1": [2, 3]}
    ops.clear()
    assert slots() == {} and not a.uses and not b.uses
    assert phi.operands[:] == [] and type(phi.operands[:]) is list


def test_copy_is_detached_and_owns_its_payload_lists():
    m = Module("cp")
    f, c = build_add_const(m, 7)
    add = f.entry.instructions[0]
    add.probe = ("call", 0)
    twin = add.copy(f.entry)
    assert type(twin) is type(add) and twin.probe == ("call", 0)
    assert list(twin.operands) == list(add.operands)
    assert twin.operands.user is None and len(c.uses) == 1 and not twin.uses
    then, els = f.add_block("t"), f.add_block("e")
    br = I.Br(Constant(I64, 1), then, els)
    phi = I.Phi(I64, "p")
    phi.add_incoming(c, then)
    assert br.copy(then).targets == br.targets
    assert br.copy(then).targets is not br.targets
    assert phi.copy(then).incoming_blocks is not phi.incoming_blocks


def test_rollback_leaves_only_live_users_on_shared_values():
    m = Module("rb")
    f = Function("f", FunctionType(I64, (I64, I64)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    x, y = f.args
    dead = b.mul(x, y)  # what dce removes (and the fault then corrupts)
    b.ret(b.add(b.add(x, b.const(I64, 0)), y))
    assert dead.uses == {}

    def miscompile(result, func):
        for ins in func.instructions():
            if ins.opcode == "ret":
                ins.operands[0] = func.args[0]
        return True

    with inject_faults("pass:dce", every=True, corrupt=miscompile):
        report = replay_o3(f, O3Options(), None, PassValidator())
    assert report.rejected_passes == ["dce"]
    assert any(v.rolled_back for v in report.pass_log)
    verify_module(m)
    live = {id(i) for i in f.instructions()}
    for arg in f.args:
        assert arg.uses and all(id(u) in live for u, _ in arg.uses)
    assert Interpreter(m).run(f, [3, 4]) == 7
