"""O3 pass scheduling: each pass walks only what changed since it was clean.

This is the shape of LLVM's pass manager — a pass that has nothing to do
is not run, and a pass that runs revisits only what was invalidated — kept
*output-identical*: the passes make the same mutations in the same order
as when every application walked the whole function.

**The change journal.**  While ``run_o3`` owns a function (one
:func:`_sweep <repro.ir.passes.pipeline._sweep>`), ``func._changes`` is a
:class:`Journal`; the IR core enters every change in it:

* an instruction given a new operand (the operand containers report it,
  with the value it lost and the one it got);
* an instruction inserted into or erased from a block;
* instructions moved into a block, and a block whose edges, phis or
  predecessors changed (the passes that edit those report it).

Outside ``run_o3`` the journal is ``None`` and a change costs one
attribute test, so lifting, codegen and other threads' functions pay
nothing for it.  Inside, an event is one tuple appended to a list.

**Clean points.**  Each pass records, on the journal, the point up to
which it is clean (:meth:`Journal.mark`) — the end of an application that
converged — plus what it left dirty when it stopped on a bound.  Nothing
marks a pass clean on its behalf: a pass that stops on its bound stays
dirty.  A pass never marked is dirty everywhere, so the first application
is simply the one where every instruction is dirty.  Every pass module
has an ``idle(func, ...)`` beside its ``run``: True when the journal shows
nothing since its clean point that the pass reads.

* ``constprop`` / ``instcombine`` visit only dirty instructions, in
  program order (:func:`fixpoint`).  An instruction is dirty when it, or
  a value one of their rules looks through, changed (:func:`readers`,
  with each pass's :class:`Dirt`);
* ``gvn`` re-numbers only dirty blocks (:func:`dirty_blocks`);
* ``simplifycfg`` re-runs only after a CFG, phi or branch change, or when
  an erase left a block holding only its branch;
* ``dce`` re-runs only when something that lost a use, or is new, is not
  shown to reach a root;
* ``mem2reg``, ``inline``, ``unroll`` and ``vectorize`` re-run after any
  change (:func:`quiet`).

A pass that finds itself idle may mark itself clean there and then, so
the next question starts from that point.

**Shape rules** (:data:`SHAPE_RULES`).  An application the journal would
run — the first, or one after changes that leave nothing to do — is still
skipped when the function's shape proves the pass cannot fire.

**Validator interlock**: the moment a ``PassValidator`` quarantines any
pass — before the run (negative-cache probe at scheduler construction) or
during it (a rejection, whose rollback restores the pre-pass body) — the
scheduler disables itself and drops the journal: every remaining
application runs, walks the whole function and is validated, so
scheduling can never hide a miscompile from the validator.

**Checking the journal.**  Under ``set_verify_after_each_pass(True)``
every application and every skip is followed by the IR verifier and, when
the pass then claims to be idle, by the same pass on a live copy with
every instruction dirty, which must report no change (an incomplete dirty
closure raises in the pass that relied on it).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cache
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable, Collection, \
    ContextManager, Iterable, Iterator, NamedTuple, Sequence

from repro.errors import IRError
from repro.ir import instructions as I
from repro.ir import verifier
from repro.ir.cfg import has_cycle
from repro.ir.instructions import ERASE, INSERT, MOVE, OPERAND, RESHAPE
from repro.ir.module import BasicBlock, Function, clone_region
from repro.ir.values import Constant, ConstantFP, ConstantVector, Undef
from repro.obs import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.validate import PassValidator

#: every pass name run_o3 can step (for the quarantine pre-probe)
PASS_NAMES = ("simplifycfg", "mem2reg", "inline", "constprop",
              "instcombine", "gvn", "dce", "unroll", "vectorize")

_CONSTANTS = (Constant, ConstantFP, ConstantVector, Undef)

#: the classes whose erasure can let gvn forward a load further
_MEMORY = frozenset({I.Store, I.Call})


@dataclass
class ScheduleStats:
    """Process-wide pass scheduling counts (``o3.sched.*``)."""

    #: skipped pass applications, by ``pass:journal`` / ``pass:shape``
    skips: dict[str, int] = field(default_factory=dict)
    #: executed pass applications, by pass
    runs: dict[str, int] = field(default_factory=dict)


_STATS = _metrics.REGISTRY.record("o3.sched", ScheduleStats)

#: debug flag: after *every* pass application, run the raising IR verifier
#: and check a claimed-idle pass against a full walk on a copy.  Opt-in via
#: :func:`set_verify_after_each_pass` — pass-bisection debugging, far too
#: slow for the runtime compile path.
VERIFY_AFTER_EACH_PASS = False


def set_verify_after_each_pass(enabled: bool) -> None:
    """Toggle the verify-after-every-pass debug mode (process-wide)."""
    global VERIFY_AFTER_EACH_PASS
    VERIFY_AFTER_EACH_PASS = bool(enabled)


class Journal(list):
    """What changed in one function's body while ``run_o3`` owns it — a
    log of the IR core's events (``repro.ir.instructions.OPERAND`` and
    the other tags) — and each pass's clean point in it."""

    __slots__ = ("_marks",)

    def __init__(self) -> None:
        super().__init__()
        #: pass key -> (log position, what it left dirty)
        self._marks: dict[str, tuple[int, frozenset]] = {}

    def mark(self, key: str, left: Collection = frozenset()) -> None:
        """Pass ``key`` is clean on everything so far but ``left``."""
        self._marks[key] = (len(self), frozenset(left))

    def since(self, key: str) -> tuple[list, frozenset] | None:
        """The events since ``key``'s clean point and what it left dirty
        (None: never clean)."""
        m = self._marks.get(key)
        if m is None:
            return None
        return self[m[0]:], m[1]

    def forget(self) -> None:
        """Every pass dirty everywhere (a change no event describes)."""
        self._marks.clear()


def since(func: Function, key: str) -> tuple[list, frozenset] | None:
    journal = func._changes
    return None if journal is None else journal.since(key)


def mark(func: Function, key: str, left: Collection = frozenset()) -> None:
    """Record that pass ``key`` converged (``left`` empty) or stopped on a
    bound with ``left`` still dirty; a no-op without a journal."""
    journal = func._changes
    if journal is not None:
        journal.mark(key, left)


def forget(func: Function) -> None:
    journal = func._changes
    if journal is not None:
        journal.forget()


def reshaped(func: Function, blocks: Iterable[BasicBlock]) -> None:
    """A pass edited these blocks' edges or phis' incoming blocks."""
    journal = func._changes
    if journal is not None:
        journal.extend([(RESHAPE, blk) for blk in blocks])


def moved(func: Function, blk: BasicBlock) -> None:
    """A pass moved instructions into ``blk`` from another block."""
    journal = func._changes
    if journal is not None:
        journal.append((MOVE, blk))


def quiet(func: Function, key: str) -> bool:
    """Nothing at all changed since ``key``'s clean point."""
    s = since(func, key)
    return s is not None and not s[0] and not s[1]


# -- dirty instructions: constprop and instcombine ------------------------------


def readers(changed: Iterable[I.Instruction],
            reads: Callable[[I.Instruction, I.Instruction], bool],
            ) -> set[I.Instruction]:
    """Every instruction whose rule may read the operands of one of
    ``changed`` through a chain: ``reads(user, v)`` says whether the rule
    at ``user`` may read the operands of its operand ``v``, or of what
    ``v`` links to."""
    out: set[I.Instruction] = set()
    work = list(changed)
    while work:
        v = work.pop()
        for user, _i in v.uses:
            if user not in out and reads(user, v):
                out.add(user)
                work.append(user)
    return out


class Dirt(NamedTuple):
    """What a walking pass revisits, stated next to its rules."""

    #: the classes no rule of the pass looks at
    no_rule: frozenset
    #: a rule can fire on this instruction at all (never one of those)
    visits: Callable[[I.Instruction], bool]
    #: giving it these new operands can make a rule fire that did not
    wakes: Callable[[I.Instruction, tuple], bool]
    #: the rule at ``user`` may read the operands of its operand ``v``
    #: (or of what ``v`` links to): its look-through chains
    reads: Callable[[I.Instruction, I.Instruction], bool]


def dirty_instructions(func: Function, key: str, dirt: Dirt) -> set | None:
    """The dirty live instructions pass ``key`` visits, or None when it was
    never clean (every instruction is dirty).  An instruction is dirty when
    it was inserted, when it was given new operands that wake it, or when
    it reads a changed one through a chain.  What the journal added since
    the clean point is folded into the mark, so asking twice costs one
    closure."""
    journal = func._changes
    s = None if journal is None else journal.since(key)
    if s is None:
        return None
    events, left = s
    visits, wakes = dirt.visits, dirt.wakes
    dirty = {ins for ins in left if ins.block is not None}
    changed = []
    copies = []
    for e in events:
        tag = e[0]
        if tag == OPERAND:
            ins = e[1]
            new = e[3]
            if ins.block is None:
                continue
            if visits(ins) and (new is None or wakes(ins, (new,))):
                dirty.add(ins)
        elif tag == INSERT:
            ins = e[1]
            if ins.block is None:
                continue
            if e[3] is not None:
                copies.append((ins, e[3]))
                continue
            if visits(ins):
                dirty.add(ins)
        else:
            continue
        changed.append(ins)
    if changed:
        dirty.update(r for r in readers(changed, dirt.reads) if visits(r))
    # a copy of an instruction whose rule answered None answers None too:
    # its operands are the original's or copies of them, and the rules
    # read classes, constants, types and which slots hold the same value
    dirty.update(ins for ins, original in copies if visits(ins) and (
        original in dirty or original.block is None))
    journal.mark(key, dirty)
    return dirty


def fixpoint(func: Function, key: str,
             simplify: Callable[[I.Instruction], Any], dirt: Dirt,
             rounds: int) -> bool:
    """Replace every dirty instruction ``simplify`` maps to a simpler
    value, in program order, until none is dirty (at most ``rounds``
    walks); returns True on any change.

    A walk visits, in each block, the dirty instructions of the block as
    it was when the walk reached it — what a walk over every instruction
    visits, minus instructions whose rule provably still answers None, so
    the replacements are the same and in the same order.  A replacement
    dirties the users of what it replaced that the new value wakes,
    whatever reads them through a chain and the instructions the rule
    inserted.  When every instruction is dirty the first walk visits them
    all, and only what a replacement dirties behind it is left for the
    next.
    """
    no_rule, visits, wakes = dirt.no_rule, dirt.visits, dirt.wakes
    todo = dirty_instructions(func, key, dirt)
    everything = todo is None
    if everything:
        todo = set()
    blocks = {ins.block for ins in todo}
    changed = False
    walks = 0
    while (everything or todo) and walks < rounds:
        walks += 1
        for blk in func.blocks:
            if not everything:
                if blk not in blocks:
                    continue
                blocks.discard(blk)
            body = blk.instructions
            for ins in list(body):
                if everything:
                    if todo:
                        todo.discard(ins)
                    if type(ins) in no_rule:
                        continue
                elif ins in todo:
                    todo.discard(ins)
                else:
                    continue
                size = len(body)
                repl = simplify(ins)
                if repl is None or repl is ins:
                    continue
                users = [user for user, _i in ins.uses]
                created = []
                if len(body) > size:  # the rule inserted before ``ins``
                    at = body.index(ins)
                    created = body[at - (len(body) - size):at]
                func.replace_all_uses(ins, repl)
                ins.erase()
                changed = True
                new = (repl,)
                dirty = [u for u in users if wakes(u, new)] + created
                dirty += readers(users + created, dirt.reads)
                for d in dirty:
                    if visits(d):
                        todo.add(d)
                        blocks.add(d.block)
        everything = False
    mark(func, key, todo)
    if changed:
        func.bump_version()
    return changed


# -- dirty blocks: gvn ------------------------------------------------------------


def dirty_blocks(func: Function, key: str) -> set | None:
    """The live blocks pass ``key`` must walk (None: never clean), folded
    into the mark like :func:`dirty_instructions`: blocks where an
    instruction got a new operand, was inserted or moved in, or where a
    store or call was erased."""
    journal = func._changes
    s = None if journal is None else journal.since(key)
    if s is None:
        return None
    events, left = s
    live = set(func.blocks)
    dirty = {blk for blk in left if blk in live}
    for e in events:
        tag = e[0]
        if tag == OPERAND:
            blk = e[1].block
        elif tag == INSERT:
            blk = e[2]
        elif tag == ERASE:
            if type(e[1]) not in _MEMORY:
                continue
            blk = e[2]
        elif tag == MOVE:
            blk = e[1]
        else:
            continue
        if blk in live:
            dirty.add(blk)
    journal.mark(key, dirty)
    return dirty


# -- shape rules ---------------------------------------------------------------


def _acyclic(func: Function, **_options: Any) -> bool:
    return not has_cycle(func)


def _vectorize_refuses(func: Function, force_vector_width: int = 0) -> bool:
    # the cost model refuses a loop whose store is not 16-byte aligned
    # unless the width is forced (vectorize._vectorize)
    return not has_cycle(func) or (force_vector_width != 2 and not any(
        type(ins) is I.Store and ins.align >= 16
        for ins in func.instructions()))


#: pass name -> a proof from the function's shape that the pass cannot
#: change it, for the applications the journal would run: the first, and
#: those after changes the pass reads but that leave it nothing to do
SHAPE_RULES: dict[str, Callable[..., bool]] = {
    "inline": lambda func, **_o: not any(
        type(ins) is I.Call and not ins.intrinsic
        for ins in func.instructions()),
    "mem2reg": lambda func, **_o: not any(
        type(ins) is I.Alloca for ins in func.entry.instructions),
    "unroll": _acyclic,
    "vectorize": _vectorize_refuses,
    "constprop": lambda func, **_o: not any(
        type(ins) is I.Load or type(ins) is I.Select
        or any(isinstance(o, _CONSTANTS) for o in ins.operands)
        for ins in func.instructions()),
    "simplifycfg": lambda func, **_o: len(func.blocks) == 1 and [
        type(ins) for ins in func.entry.instructions
        if type(ins) in (I.Phi, I.Br, I.Ret)] == [I.Ret],
}


def _rule_no_fire(name: str, func: Function, **options: Any) -> bool:
    """True when ``func``'s shape proves pass ``name`` cannot change it."""
    rule = SHAPE_RULES.get(name)
    return rule is not None and rule(func, **options)


# -- applying passes -------------------------------------------------------------


@cache
def pass_name(mod: ModuleType) -> str:
    return mod.__name__.rpartition(".")[2]


@contextmanager
def journaled(func: Function) -> Iterator[None]:
    """Give ``func`` a journal for the block unless it has one."""
    if func._changes is not None:
        yield
        return
    func._changes = Journal()
    try:
        yield
    finally:
        func._changes = None


def settle(func: Function, passes: Sequence[ModuleType], rounds: int) -> None:
    """Run the pass modules' ``run(func)`` in order until a round changes
    nothing (at most ``rounds`` rounds), skipping a pass the journal shows
    idle; ``run`` is looked up per call, so whoever wraps it sees every
    one.  The bound marks nothing clean: a pass left dirty by the last
    round stays dirty."""
    for _ in range(rounds):
        changed = False
        for mod in passes:
            if not mod.idle(func):
                changed |= bool(mod.run(func))
            if VERIFY_AFTER_EACH_PASS:
                check_after(func, mod)
        if not changed:
            return


def check_after(func: Function, mod: ModuleType, *args: Any,
                changed_of: Callable[[Any], bool] = bool, **kwargs: Any,
                ) -> None:
    """The debug check after an application or a skip: the body verifies,
    and when ``mod`` claims to be idle, ``mod.run`` on a live copy with
    every instruction dirty reports no change."""
    verifier.verify(func)
    if func._changes is None or not mod.idle(func, *args, **kwargs):
        return
    twin = Function(func.name, func.ftype)
    twin.args, twin.module = func.args, func.module  # shared formals
    twin._name_counter = func._name_counter
    twin.blocks = clone_region(func.blocks, twin, vmap={}, attached=True,
                               name_block=lambda blk: blk.name)
    try:
        if changed_of(mod.run(twin, *args, **kwargs)):
            raise IRError(f"{pass_name(mod)} on @{func.name}: the journal "
                          "shows it idle, but a full walk changes the body")
    finally:
        for ins in twin.instructions():
            ins.detach()


class Scheduler:
    """Per-``run_o3``-invocation skip decisions for one function."""

    def __init__(self, func: Function,
                 validator: "PassValidator | None" = None) -> None:
        self.func = func
        self.disabled_reason: str | None = None
        #: pass name -> (function version, shape verdict)
        self._shape: dict[str, tuple[int, bool]] = {}
        suspect = None if validator is None else validator.quarantined()
        if suspect is not None:
            # a pass already in quarantine means this pipeline is under
            # active suspicion: run everything, validate everything
            self.disable(f"quarantined:{suspect}")

    # -- state ---------------------------------------------------------------

    def owning(self) -> ContextManager[None]:
        """The journal's lifetime: one sweep, unless scheduling is off."""
        if self.disabled_reason is not None:
            return nullcontext()
        return journaled(self.func)

    def disable(self, reason: str) -> None:
        """Permanently stop skipping for this run (validator interlock);
        every later application walks the whole function."""
        if self.disabled_reason is None:
            self.disabled_reason = reason
        self.func._changes = None

    # -- decisions -----------------------------------------------------------

    def should_skip(self, name: str, idle: Callable[[], bool],
                    **options: Any) -> bool:
        """Whether to skip pass ``name``: the journal shows it idle, or
        (with the pass's keyword ``options``) a shape rule proves it."""
        if self.disabled_reason is not None:
            return False
        if idle():
            reason = "journal"
        elif self._shape_proves(name, options):
            reason = "shape"
        else:
            return False
        key = f"{name}:{reason}"
        _STATS.skips[key] = _STATS.skips.get(key, 0) + 1
        return True

    def _shape_proves(self, name: str, options: dict[str, Any]) -> bool:
        ver = self.func.version
        hit = self._shape.get(name)
        if hit is None or hit[0] != ver:
            hit = self._shape[name] = (
                ver, _rule_no_fire(name, self.func, **options))
        return hit[1]

    def note_result(self, name: str) -> None:
        """Count one executed pass application."""
        _STATS.runs[name] = _STATS.runs.get(name, 0) + 1
