"""MiniLLVM containers: Module, Function, BasicBlock, GlobalVariable."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import IRError
from repro.ir.instructions import (
    INSERT, RESHAPE, Br, Call, Instruction, Phi, Ret, Unreachable,
)
from repro.ir.irtypes import FunctionType, PointerType, Type
from repro.ir.values import (
    Argument, Constant, ConstantFP, ConstantVector, Undef, Value, fresh_leaf,
)


#: the classes ``Instruction.is_terminator`` holds for
_TERMINATORS = frozenset({Br, Ret, Unreachable})


#: the constant classes, which a :meth:`Module.copy` copies like a global
_CONSTANTS = frozenset({Constant, ConstantFP, ConstantVector, Undef})


class GlobalVariable(Value):
    """A module-level constant/variable backed by initializer bytes.

    Section IV clones fixed memory regions into the module as globals; the
    JIT materializes ``initializer`` into the image's rodata and the value
    becomes the absolute address.
    """

    __slots__ = ("initializer", "constant", "addr")

    def __init__(self, name: str, pointee: Type, initializer: bytes,
                 constant: bool = True) -> None:
        super().__init__(PointerType(pointee), name)
        self.initializer = initializer
        self.constant = constant
        self.addr: int | None = None  # filled when placed in an image

    def short(self) -> str:
        return f"@{self.name}"


class BasicBlock:
    """A labeled list of instructions ending in a terminator."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: list[Instruction] = []
        self.function: Function | None = None

    @property
    def terminator(self) -> Instruction | None:
        body = self.instructions
        if body and type(body[-1]) in _TERMINATORS:
            return body[-1]
        return None

    def append(self, ins: Instruction) -> Instruction:
        if self.terminator is not None:
            raise IRError(f"appending after terminator in {self.name}")
        ins.block = self
        self.instructions.append(ins)
        f = self.function
        if f is not None:
            f.bump_version()
            if f._changes is not None:
                f._changes.append((INSERT, ins, self, None))
        return ins

    def insert(self, index: int, ins: Instruction) -> Instruction:
        ins.block = self
        self.instructions.insert(index, ins)
        f = self.function
        if f is not None:
            f.bump_version()
            if f._changes is not None:
                f._changes.append((INSERT, ins, self, None))
        return ins

    def phis(self) -> list[Phi]:
        out = []
        for ins in self.instructions:
            if isinstance(ins, Phi):
                out.append(ins)
            else:
                break
        return out

    def first_non_phi(self) -> int:
        for i, ins in enumerate(self.instructions):
            if not isinstance(ins, Phi):
                return i
        return len(self.instructions)

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return term.successors() if term else []

    def __repr__(self) -> str:
        return f"<block {self.name}: {len(self.instructions)} instrs>"


def clone_region(blocks: Sequence[BasicBlock], into: "Function", *,
                 vmap: dict[int, Value], attached: bool,
                 name_block: Callable[[BasicBlock], str],
                 name_value: Callable[[], str] | None = None,
                 ) -> list[BasicBlock]:
    """Copy ``blocks`` for ``into`` — how a region of IR is copied, once.

    Every instruction is copied first, then every copy is remapped:
    operands and a call's callee through ``vmap`` (``id(old) -> new``; the
    caller seeds it, with formals -> actuals say, and reads the instruction
    map back out of it), branch targets and phi incoming blocks through the
    block map; values and blocks outside the region stay as they are.
    Blocks are named by ``name_block`` and, when given, non-void copies by
    ``name_value`` — all blocks first, then values in body order.
    ``attached`` copies enter the use lists once remapped; detached ones
    (``analysis.clone`` snapshots, a cache's stored ``Module.copy``)
    register nowhere.  The copies are returned in order and belong to
    ``into``, which does not list them yet: placing them is the caller's,
    and so is ``bump_version``; ``into``'s change journal, if it has one,
    records attached copies as inserted (copies of its own instructions
    with their originals).
    """
    bmap: dict[int, BasicBlock] = {}
    copies: list[BasicBlock] = []
    for blk in blocks:
        nb = bmap[id(blk)] = BasicBlock(name_block(blk))
        nb.function = into
        copies.append(nb)
    for blk, nb in zip(blocks, copies):
        body = nb.instructions
        for ins in blk.instructions:
            c = vmap[id(ins)] = ins.copy(nb)
            body.append(c)
    if name_value is not None:
        for nb in copies:
            for c in nb.instructions:
                if not c.type.is_void:
                    c.name = name_value()
    get = vmap.get
    for nb in copies:
        for c in nb.instructions:
            c.operands = [get(id(op), op) for op in c.operands]
            kind = type(c)
            if kind is Br:
                c.targets = [bmap.get(id(t), t) for t in c.targets]
            elif kind is Phi:
                c.incoming_blocks = [bmap.get(id(b), b)
                                     for b in c.incoming_blocks]
            elif kind is Call:
                c.callee = get(id(c.callee), c.callee)
            if attached:
                c.attach()
    journal = into._changes if attached else None
    if journal is not None:
        own = blocks[0].function is into if blocks else False
        for blk in blocks:
            nb = bmap[id(blk)]
            journal.append((RESHAPE, nb))
            journal.extend([(INSERT, vmap[id(ins)], nb, ins if own else None)
                            for ins in blk.instructions])
    return copies


class Function(Value):
    """A function: arguments + basic blocks (first block is the entry)."""

    __slots__ = ("ftype", "args", "blocks", "module", "always_inline",
                 "_name_counter", "is_declaration", "_version", "_preds",
                 "_changes", "__weakref__")

    def __init__(self, name: str, ftype: FunctionType) -> None:
        super().__init__(PointerType(ftype), name)  # functions are pointers
        self.ftype = ftype
        self.args = [Argument(t, i) for i, t in enumerate(ftype.params)]
        self.blocks: list[BasicBlock] = []
        self.module: Module | None = None
        self.always_inline = False
        self.is_declaration = False
        self._name_counter = 0
        self._version = 0
        self._preds: tuple[int, dict[int, list[BasicBlock]]] | None = None
        #: what changed in the body, while ``run_o3`` owns it (a
        #: ``repro.ir.passes.schedule.Journal``; None otherwise)
        self._changes = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter (trace-cache invalidation epoch).

        Bumped by the structural mutators below, by every pass that reports
        a change, and by validator rollbacks — anything holding derived
        state keyed by ``(function, version)`` (the interpreter's threaded-
        dispatch traces, the predecessor map) revalidates against this
        before reuse.
        """
        return self._version

    def bump_version(self) -> None:
        self._version += 1

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str = "") -> BasicBlock:
        self._name_counter += 1
        blk = BasicBlock(name or f"bb{self._name_counter}")
        blk.function = self
        self.blocks.append(blk)
        self.bump_version()
        if self._changes is not None:
            self._changes.append((RESHAPE, blk))
        return blk

    def next_name(self, hint: str = "v") -> str:
        self._name_counter += 1
        return f"{hint}{self._name_counter}"

    def instructions(self) -> Iterator[Instruction]:
        for blk in self.blocks:
            yield from blk.instructions

    def predecessor_map(self) -> dict[int, list[BasicBlock]]:
        """``id(block)`` -> its distinct predecessors in block order.

        Cached per :attr:`version`: whoever redirects an edge or adds or
        drops a block bumps the version before the next query (the
        verifier compares the cached map with a fresh one).
        """
        cached = self._preds
        if cached is not None and cached[0] == self._version:
            return cached[1]
        preds: dict[int, list[BasicBlock]] = {id(b): [] for b in self.blocks}
        for b in self.blocks:
            for s in b.successors():
                into = preds.setdefault(id(s), [])
                if not into or into[-1] is not b:
                    into.append(b)
        self._preds = (self._version, preds)
        return preds

    def predecessors(self, block: BasicBlock) -> list[BasicBlock]:
        return list(self.predecessor_map().get(id(block), ()))

    def replace_all_uses(self, old: Value, new: Value) -> int:
        """RAUW over ``old.uses``; returns the number of replaced operands.

        Only users inside this function are rewritten: an argument, global
        or constant may have users elsewhere in the module.
        """
        n = 0
        for user, i in tuple(old.uses):
            blk = user.block
            if blk is not None and blk.function is self:
                user.operands[i] = new
                n += 1
        if n:
            self.bump_version()
        return n

    def remove_block(self, block: BasicBlock) -> None:
        # fix phis in successors first
        for succ in block.successors():
            for phi in succ.phis():
                phi.remove_incoming(block)
            if self._changes is not None:
                self._changes.append((RESHAPE, succ))  # a predecessor fewer
        for ins in list(block.instructions):
            ins.erase()
        self.blocks.remove(block)
        self.bump_version()

    def short(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        return f"<function @{self.name}: {len(self.blocks)} blocks>"


class Module:
    """A compilation unit: functions + globals."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVariable] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise IRError(f"function @{func.name} already in module")
        func.module = self
        self.functions[func.name] = func
        return func

    def add_global(self, g: GlobalVariable) -> GlobalVariable:
        if g.name in self.globals:
            raise IRError(f"global @{g.name} already in module")
        self.globals[g.name] = g
        return g

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function @{name}") from None

    def copy(self, *, attached: bool = True) -> "Module":
        """A copy that shares nothing with this module but its types.

        Globals, functions, arguments and constants are fresh, bodies are
        :func:`clone_region` copies and calls reach the copied callees.  An
        ``attached`` copy is a live module; a detached one enters no use
        list, which is what a cache keeps: it is only ever copied again.
        """
        twin = Module(self.name)
        vmap: dict[int, Value] = {}
        for name, g in self.globals.items():
            twin.globals[name] = fresh_leaf(g, vmap)
        funcs = list(self.functions.values())
        for f in funcs:
            nf = vmap[id(f)] = Function(f.name, f.ftype)
            nf.args = [fresh_leaf(a, vmap) for a in f.args]
            nf.always_inline = f.always_inline
            nf.is_declaration = f.is_declaration
            nf._name_counter = f._name_counter
            twin.add_function(nf)
        for f in funcs:
            for blk in f.blocks:
                for ins in blk.instructions:
                    for op in ins.operands:
                        if type(op) in _CONSTANTS and id(op) not in vmap:
                            fresh_leaf(op, vmap)
        for f in funcs:
            nf = vmap[id(f)]
            nf.blocks = clone_region(f.blocks, nf, vmap=vmap,
                                     attached=attached,
                                     name_block=lambda blk: blk.name)
        return twin

    def __iter__(self) -> Iterable[Function]:
        return iter(self.functions.values())
