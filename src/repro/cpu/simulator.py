"""Block-compiled execution with cycle accounting and a SysV call helper.

The simulator is the measurement instrument for every figure reproduced in
this project: DBrew output, MCC output, and JIT output all run here under
the same :class:`~repro.cpu.costs.CostModel`, so comparisons between code
variants are apples-to-apples by construction.

Execution is by block.  On first entry at a ``rip`` the run from there is
decoded once and every instruction is bound
(:func:`repro.cpu.semantics.bind`) into a closure.  The run goes on through
a direct ``jmp`` or ``call`` to a target it has not decoded yet — the
transfer's closure stays in the block, so a ``call`` still pushes — and
ends at a ``jcc``, a ``ret``, an indirect transfer, a jump back into
itself, an instruction that does not bind, or ``_BLOCK_MAX`` instructions.
The block also carries what is static about it — instruction count,
per-mnemonic counts, load and store counts and the sum of the static cycle
costs.  A call runs blocks, counts how often each ran, and settles
:class:`RunStats` from those counts at the end.  What stays dynamic: the
taken-branch and unaligned-16-byte penalties (counted as events on the
state), the misaligned-``movapd`` fault and every other fault check, and
``max_steps`` (the block that would cross it is single-stepped).

A hot block runs as one generated function.  The settlement at the end of
a call also adds each block's runs to a count on the block, on a plain
:class:`~repro.mem.memory.Memory` only; the block whose count crosses
``_HOT_RUNS`` is decoded again from the bytes it was compiled from and
written out as one Python function (:mod:`repro.cpu.blockgen`), which the
loop then calls instead of the closures.  Cold blocks, ``max_steps``
single-stepping and a gate's journaled memory keep the closures, and a
block that is never hot is never charged for more than them.

A block computes only the flags it reads.  One backward pass over the
decoded run, on the flag columns of :func:`repro.x86.effects.effects_of`,
starts with all six flags live at the exit.  The flags an instruction always
overwrites die above it: its defined flags, plus the ISA-undefined ones its
binder sets anyway (:data:`repro.cpu.semantics.UNDEFINED_SET`), and none
when a count in ``cl`` may leave them all alone.  The flags it reads are
live again.  An instruction none of whose defined or undefined flags is
live is bound to its variant that sets no flags.  So the flags are exact
at every block boundary and at return.  Only inside a
block that faults, or that crosses ``max_steps``, can a flag still hold an
older value, and only a flag that the block would have overwritten before
reading it; nothing reads ``Simulator.state``'s flags after a fault.

Cycles are a sum of products (block cost × times run, penalty × events), not
a running total in execution order.  Under a cost model whose constants are
small dyadic rationals — :data:`~repro.cpu.costs.HASWELL` and everything the
benchmarks use — every partial sum is exact in binary64, so the order cannot
show.  Under any other model (say ``unaligned16_penalty=0.3``) the result is
the same sum rounded along a different path: it may differ from an
instruction-by-instruction total in the last bits, by a relative error below
``n × 2**-53`` for ``n`` simulated instructions.

Compiled blocks live in tables keyed by ``Image.instance_token()`` and the
cost model, shared by every :class:`Simulator` on the same image.
``patch_code`` and ``add_function`` move the token and no
token is ever handed out twice, so stale blocks are never looked up again;
nothing has to be invalidated.  A table is only the index, though: a block is
a pure function of its ``rip``, the bytes it was decoded from and the cost
model, and its closures take ``(st, mem)`` and capture no image.  So on a
table miss the block is first looked up in one process-wide memo keyed by
``(rip, cost model)``; the block carries the bytes of each straight piece
the run decoded, and is served when the image's memory holds those bytes
now; otherwise it is compiled and replaces the entry.  An install moves the
token but leaves the bytes of everything else in place, so the blocks of
the code around it, and of the same code placed at the same addresses in a
fresh image, are bound once: a timed round of the ledger's
``verified_install`` compiles no block at all, and the round decodes 1 225
instructions instead of 3 203.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

from repro.arith import bits_to_f64, f64_to_bits, to_signed
from repro.errors import ReproError, SimulatorError
from repro.cpu.blockgen import generate
from repro.cpu.costs import HASWELL, CostModel
from repro.cpu.image import RETURN_SENTINEL, STACK_TOP, Image
from repro.cpu.semantics import BINDABLE, UNDEFINED_SET, Op, bind
from repro.cpu.state import MASK64, CPUState
from repro.mem.memory import Memory
from repro.x86.decoder import decode_one
from repro.x86.effects import Effects, effects_of
from repro.x86.instr import Instruction
from repro.x86.registers import SYSV_INT_ARGS


@dataclass
class RunStats:
    """Dynamic execution statistics of one or more calls."""

    instructions: int = 0
    cycles: float = 0.0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    per_mnemonic: dict[str, int] = field(default_factory=dict)


@dataclass
class CallResult:
    """Result of one simulated SysV call."""

    rax: int
    xmm0: int
    stats: RunStats

    @property
    def int_value(self) -> int:
        """Return value interpreted as signed 64-bit."""
        return to_signed(self.rax, 64)

    @property
    def f64_value(self) -> float:
        """Return value interpreted as a double in xmm0."""
        return bits_to_f64(self.xmm0)


@dataclass(eq=False, slots=True)
class _Block:
    """One decoded run, bound and pre-summed."""

    #: the instructions before the last one
    ops: tuple[Op, ...]
    #: the last one; returns the next ``rip``
    exit: Op
    n: int
    #: sum of the static cycle costs
    cost: float
    mnemonics: tuple[tuple[str, int], ...]
    loads: int
    stores: int
    #: the bytes of every instruction decoded, one ``(address, bytes)``
    #: per straight piece of the run
    code: tuple[tuple[int, bytes], ...]
    #: times run on a plain ``Memory``, and its generated function once
    #: that crosses ``_HOT_RUNS``
    runs: int = 0
    run: Op | None = None


#: ``(instance token, id(cost model)) -> (cost model, {rip: block})``, oldest
#: first.  A token names one state of one image's executable bytes (see
#: ``Image.instance_token``), so a table can never serve code that was
#: patched or added after it was keyed, nor the code of another image built
#: from the same program.  Cycle sums depend on the model, so models never
#: share a table; the table holds its model so that the id in its key stays
#: unique.
_TABLES: dict[tuple, tuple[CostModel, dict[int, _Block]]] = {}
_TABLES_MAX = 8
_TABLES_LOCK = threading.Lock()

#: ``(rip, id(cost model)) -> (cost model, block)``, oldest first: a block
#: is served to any image whose memory holds its ``code``, whatever its
#: token.  Like a table, an entry holds its model so that the id in its key
#: stays unique.
_BLOCK_MEMO: dict[tuple[int, int], tuple[CostModel, _Block]] = {}
_BLOCK_MEMO_MAX = 1024

#: longest run compiled as one block, and the bytes fetched at a time
#: while decoding it
_BLOCK_MAX = 256
_WINDOW = 256

#: runs on a plain ``Memory`` after which a block is generated
#: (:mod:`repro.cpu.blockgen`)
_HOT_RUNS = 64


def _table_for(token: tuple, costs: CostModel) -> dict[int, _Block]:
    key = (token, id(costs))
    with _TABLES_LOCK:
        table = _TABLES.get(key)
        if table is None:
            if len(_TABLES) >= _TABLES_MAX:
                del _TABLES[next(iter(_TABLES))]
            table = _TABLES[key] = (costs, {})
    return table[1]


def _block_at(memory: Memory, rip: int, costs: CostModel) -> _Block:
    """The block at ``rip`` for the code ``memory`` holds now: the memo's,
    if its bytes are all still there, else a fresh compile."""
    key = (rip, id(costs))
    entry = _BLOCK_MEMO.get(key)
    # piece by piece, so a piece is read only where a compile would decode
    if entry is not None and all(memory.window(addr, len(data)) == data
                                 for addr, data in entry[1].code):
        return entry[1]
    blk = _compile_block(memory, rip, costs)
    with _TABLES_LOCK:
        if key not in _BLOCK_MEMO and len(_BLOCK_MEMO) >= _BLOCK_MEMO_MAX:
            del _BLOCK_MEMO[next(iter(_BLOCK_MEMO))]
        _BLOCK_MEMO[key] = (costs, blk)
    return blk


def _code_window(memory: Memory, addr: int) -> bytes:
    """Up to ``_WINDOW`` bytes at ``addr``, cut at the end of its region."""
    window = memory.window(addr, _WINDOW)
    if not window:
        raise SimulatorError(f"rip at unmapped address {addr:#x}")
    return window


_FLAG_NAMES = "oszapc"
#: every flag: what is live at a block's exit
_ALL_FLAGS = (1 << len(_FLAG_NAMES)) - 1


@functools.cache
def _flag_bits(mnemonic: str, read: str, defined: str,
               undefined: str) -> tuple[int, int, int]:
    """``(read, may write, always overwrites)`` flag sets, as bit masks, of
    a ``mnemonic`` with these effects-record flag columns."""
    def bits(flags: str) -> int:
        return sum(1 << _FLAG_NAMES.index(f) for f in set(flags))
    return (bits(read), bits(defined + undefined),
            bits(defined + UNDEFINED_SET.get(mnemonic, "")))


def _writes_live(run: list[tuple[Instruction, Effects]]) -> list[bool]:
    """For each instruction of ``run``, whether a later one, or the exit,
    may read a flag it writes before that flag is overwritten: one pass
    back to front, with every flag live at the exit."""
    out = []
    live = _ALL_FLAGS
    for ins, fx in reversed(run):
        read, written, killed = _flag_bits(
            ins.mnemonic, fx.flags_read, fx.flags_def, fx.flags_undef)
        out.append(bool(written & live))
        if not fx.count_mask:  # a shift by cl may leave every flag alone
            live &= ~killed
        live |= read
    out.reverse()
    return out


def _compile_block(memory: Memory, rip: int, costs: CostModel) -> _Block:
    """Decode the run starting at ``rip``, on through direct transfers,
    then bind it, so that an instruction none of whose flags a later one
    reads before overwriting them is bound to its variant that sets no
    flags."""
    run: list[tuple[Instruction, Effects]] = []
    decoded: set[int] = set()
    window, base = b"", rip
    pc = rip
    while len(run) < _BLOCK_MAX:
        try:
            # refill when fewer than a longest instruction's bytes are
            # left — unless the window already ends with its region
            if len(window) - (pc - base) < 16 and len(window) in (0, _WINDOW):
                window, base = _code_window(memory, pc), pc
            ins = decode_one(window, pc - base, pc)
            if ins.mnemonic not in BINDABLE:
                bind(ins)  # raises: nothing binds its mnemonic
        except ReproError:
            if not run:
                raise
            break  # fails only if execution really gets to ``pc``
        fx = effects_of(ins)
        run.append((ins, fx))
        decoded.add(pc)
        pc = ins.end
        if fx.control in ("jmp", "call") and fx.target is not None \
                and fx.target not in decoded:
            # run on at the target: the window is re-based there
            window, base, pc = b"", fx.target, fx.target
        elif fx.control != "none":
            break
    pieces: list[list[Instruction]] = []
    for ins, _ in run:
        if pieces and pieces[-1][-1].end == ins.addr:
            pieces[-1].append(ins)
        else:
            pieces.append([ins])
    code = tuple((p[0].addr, b"".join(i.raw for i in p)) for p in pieces)

    while True:
        ops: list[Op] = []
        for (ins, _), flags in zip(run, _writes_live(run)):
            try:
                ops.append(bind(ins, flags))
            except ReproError:
                if not ops:
                    raise
                break
        if len(ops) == len(run):
            break
        # the run ends before the refused one, and fails only if execution
        # really gets there; all flags are live at the new exit
        del run[len(ops):]

    mnemonics: dict[str, int] = {}
    cost = 0.0
    loads = stores = 0
    for ins, fx in run:
        m = ins.mnemonic
        cost += costs.static_cost(ins)
        loads += fx.mem_read
        stores += fx.mem_write
        mnemonics[m] = mnemonics.get(m, 0) + 1
    ins, fx = run[-1]
    if fx.control != "none":  # its closure returns the next rip
        return _Block(tuple(ops[:-1]), ops[-1], len(ops), cost,
                      tuple(mnemonics.items()), loads, stores, code)
    pc = ins.end
    return _Block(tuple(ops), lambda st, mem: pc, len(ops), cost,
                  tuple(mnemonics.items()), loads, stores, code)


def _promote(blk: _Block) -> None:
    """Give ``blk`` its generated function: its run decoded again from the
    bytes it was compiled from, with the same flag choices and closures."""
    run = []
    for addr, data in blk.code:
        off = 0
        while off < len(data) and len(run) < blk.n:
            ins = decode_one(data, off, addr + off)
            run.append((ins, effects_of(ins)))
            off += ins.length
    blk.run = generate([ins for ins, _ in run], _writes_live(run),
                       (*blk.ops, blk.exit))


class Simulator:
    """Executes machine code from an :class:`Image`."""

    def __init__(self, image: Image, costs: CostModel = HASWELL) -> None:
        self.image = image
        self.costs = costs
        self.state = CPUState()

    def invalidate_code(self) -> None:
        """Drop the blocks compiled for the image's current code content,
        for every simulator and cost model.

        Only code written behind the image's back (``memory.write`` into
        an executable region) needs this; ``patch_code`` and
        ``add_function`` re-key the block tables by themselves.  The memo
        behind the tables needs nothing: it checks a block's bytes before
        serving it.
        """
        token = self.image.instance_token()
        with _TABLES_LOCK:
            for key in [k for k in _TABLES if k[0] == token]:
                del _TABLES[key]

    def call(
        self,
        target: int | str,
        int_args: tuple[int, ...] = (),
        f64_args: tuple[float, ...] = (),
        *,
        max_steps: int = 200_000_000,
        stats: RunStats | None = None,
    ) -> CallResult:
        """Call ``target`` with the System V calling convention.

        ``int_args`` fill rdi/rsi/rdx/rcx/r8/r9; ``f64_args`` fill
        xmm0..xmm7.  Stack arguments are not supported (the paper's kernels
        never need them).  Returns rax / xmm0 and execution statistics;
        ``stats`` is only updated by a call that returns.
        """
        if isinstance(target, str):
            target = self.image.symbol(target)
        if len(int_args) > 6 or len(f64_args) > 8:
            raise SimulatorError("stack-passed arguments are not supported")
        st = self.state
        st.gpr = [0] * 16
        st.xmm = [0] * 16
        st.cf = st.zf = st.sf = st.of = st.pf = st.af = False
        st.taken = st.unaligned16 = 0
        st.gpr[4] = STACK_TOP - 8  # ensure (rsp % 16) == 8 at entry, like call
        for reg, val in zip(SYSV_INT_ARGS, int_args):
            st.gpr[reg] = val & MASK64
        for i, val in enumerate(f64_args):
            st.xmm[i] = f64_to_bits(val)
        mem = self.image.memory
        mem.write_u64(st.gpr[4], RETURN_SENTINEL)

        costs = self.costs
        blocks = _table_for(self.image.instance_token(), costs)
        lookup = blocks.get
        # the inline page look-ups of a generated function read a plain
        # Memory's buffers; a gate's journaled shadow runs the closures
        plain = type(mem) is Memory
        ran: dict[_Block, int] = {}
        steps = 0
        rip = target
        try:
            while rip != RETURN_SENTINEL:
                blk = lookup(rip)
                if blk is None:
                    blk = blocks[rip] = _block_at(mem, rip, costs)
                steps += blk.n
                if steps > max_steps:
                    # single-step up to the instruction that crosses the
                    # limit, so a fault before it still wins
                    for op in (*blk.ops, blk.exit)[:blk.n + 1 + max_steps - steps]:
                        op(st, mem)
                    raise SimulatorError(
                        f"exceeded {max_steps} simulated instructions")
                if plain and blk.run is not None:
                    rip = blk.run(st, mem)
                else:
                    for op in blk.ops:
                        op(st, mem)
                    rip = blk.exit(st, mem)
                ran[blk] = ran.get(blk, 0) + 1
        finally:
            st.rip = rip  # a block's entry when one of its instructions faults

        local = stats if stats is not None else RunStats()
        per = local.per_mnemonic
        cycles = (st.taken * costs.taken_branch_penalty
                  + st.unaligned16 * costs.unaligned16_penalty)
        for blk, times in ran.items():
            cycles += blk.cost * times
            local.loads += blk.loads * times
            local.stores += blk.stores * times
            for m, count in blk.mnemonics:
                per[m] = per.get(m, 0) + count * times
            if plain:
                blk.runs += times
                if blk.runs >= _HOT_RUNS > blk.runs - times:
                    _promote(blk)
        local.instructions += steps
        local.cycles += cycles
        local.taken_branches += st.taken
        return CallResult(rax=st.gpr[0], xmm0=st.xmm[0], stats=local)

    def call_f64(self, target: int | str, int_args: tuple[int, ...] = (),
                 f64_args: tuple[float, ...] = (), **kw: object) -> float:
        """Shorthand: call and return xmm0 as a double."""
        return self.call(target, int_args, f64_args, **kw).f64_value  # type: ignore[arg-type]

    def call_int(self, target: int | str, int_args: tuple[int, ...] = (),
                 f64_args: tuple[float, ...] = (), **kw: object) -> int:
        """Shorthand: call and return rax as signed."""
        return self.call(target, int_args, f64_args, **kw).int_value  # type: ignore[arg-type]
