"""A binding that sets no flags is invisible everywhere but in the flags.

The block engine binds an instruction none of whose written flags a later
instruction of its block reads to its variant that sets no flags
(``semantics.bind(ins, set_flags=False)``).  Over every form the effects
conformance harness enumerates, both bindings run from the same seeded
states.  They must leave identical registers, memory, next ``rip`` and
``taken``/``unaligned16`` event counts, or fault alike.  On the forms with
such a variant — the register, immediate and memory forms of
add/sub/and/or/xor/cmp/test, inc/dec, two- and three-operand imul, and the
shifts and rotates by an immediate or ``cl`` — it leaves all six flags
untouched; on every other form ``set_flags=False`` binds the
flag-setting variant.  And every flag the block engine counts as
dead above an instruction is one its binding always overwrites.
"""

from __future__ import annotations

import random

from repro.cpu.semantics import UNDEFINED_SET, bind
from repro.errors import ReproError
from repro.x86.effects import effects_of
from repro.x86.instr import Imm, Instruction, Mem
from tests.x86.test_effects_conformance import (
    DATA, FLAGS, REGION, STACK, Machine, _copy_state, _random_machine, forms,
)

#: mnemonics with a variant that sets no flags (imul: not the one-operand
#: widening form)
QUIET = {"add", "sub", "and", "or", "xor", "cmp", "test", "inc", "dec",
         "imul", "shl", "shr", "sar", "rol", "ror"}
STATES = 3


def _has_quiet(ins: Instruction) -> bool:
    return ins.mnemonic in QUIET and not (
        ins.mnemonic == "imul" and len(ins.operands) == 1)


def _shape(ins: Instruction) -> str:
    """``imm``, ``mem`` or ``reg``, with imul's operand count."""
    ops = ins.operands
    kind = ("imm" if any(isinstance(o, Imm) for o in ops)
            else "mem" if any(isinstance(o, Mem) for o in ops) else "reg")
    return f"{kind}{len(ops)}" if ins.mnemonic == "imul" else kind


def _run(op, m: Machine) -> tuple:
    st, mem = _copy_state(m.st), m.memory()
    try:
        rip = op(st, mem)
    except ReproError as exc:
        return None, (type(exc), str(exc))
    return st, (st.gpr, st.xmm, rip, st.taken, st.unaligned16,
                mem.read(DATA, REGION), mem.read(STACK, REGION))


def _flags(st) -> dict[str, bool]:
    return {f: st.flag(f) for f in FLAGS}


def test_a_binding_that_sets_no_flags_is_invisible_but_in_the_flags():
    problems = []
    covered: dict[str, set[str]] = {m: set() for m in QUIET}
    for ins in forms():
        full, quiet = bind(ins), bind(ins, set_flags=False)
        quiet_expected = _has_quiet(ins)
        if quiet_expected:
            covered[ins.mnemonic].add(_shape(ins))
        rng = random.Random(f"quiet:{ins!r}")
        for _ in range(STATES):
            m = _random_machine(rng, ins, None)
            (st_full, full_out), (st_quiet, quiet_out) = \
                _run(full, m), _run(quiet, m)
            if full_out != quiet_out:
                problems.append(f"{ins!r}: the two bindings differ outside "
                                "the flags")
            elif st_quiet is None:
                continue  # both faulted alike
            elif quiet_expected and _flags(st_quiet) != _flags(m.st):
                problems.append(f"{ins!r}: the quiet variant set a flag")
            elif not quiet_expected and _flags(st_quiet) != _flags(st_full):
                problems.append(f"{ins!r}: set_flags=False changed the "
                                "flags of a form with no quiet variant")
    assert not problems, "\n".join(problems[:40])
    want = {m: {"reg", "imm", "mem"} for m in QUIET}
    want.update(inc={"reg", "mem"}, dec={"reg", "mem"},
                imul={"reg2", "mem2", "imm3"})
    assert {m: covered[m] & want[m] for m in QUIET} == want


def test_a_flag_counted_dead_above_an_instruction_is_always_overwritten():
    """The block engine counts a flag as dead above an instruction when the
    record defines it or ``UNDEFINED_SET`` names it for the mnemonic (and
    none above a shift by ``cl``).  Such a flag must come out the same
    whatever it held before: every form runs from a state and from that
    state with each flag the form does not read inverted."""
    problems = []
    for ins in forms():
        fx = effects_of(ins)
        if fx.count_mask:
            continue
        killed = fx.flags_def + UNDEFINED_SET.get(ins.mnemonic, "")
        op = bind(ins)
        rng = random.Random(f"killed:{ins!r}")
        for _ in range(STATES):
            m = _random_machine(rng, ins, None)
            flipped = Machine(_copy_state(m.st), m.data, m.stack)
            for f in FLAGS:
                if f not in fx.flags_read:
                    flipped.st.set_flag(f, not m.st.flag(f))
            (st, _), (st_flipped, _) = _run(op, m), _run(op, flipped)
            if st is None or st_flipped is None:
                continue  # faulted
            problems += [f"{ins!r}: flag {f} is counted dead above it but "
                         "keeps its old value"
                         for f in killed if st.flag(f) != st_flipped.flag(f)]
    assert not problems, "\n".join(problems[:40])
