"""Executable image: simulated memory + symbols + allocators.

An :class:`Image` is what MCC's linker produces and what DBrew / the JIT
extend at "runtime": it owns the simulated memory, a symbol table, a bump
allocator for data, and a code allocator for newly generated functions.
Layout mirrors a small static Linux binary:

* code at ``0x0040_0000``
* read-only data at ``0x0060_0000``
* mutable globals / heap at ``0x0080_0000``
* JIT code area at ``0x0100_0000``
* stack top at ``0x7fff_f000`` growing down
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.errors import SimulatorError
from repro.mem.layout import align_up
from repro.mem.memory import Memory

CODE_BASE = 0x0040_0000
RODATA_BASE = 0x0060_0000
DATA_BASE = 0x0080_0000
JIT_BASE = 0x0100_0000
#: runtime-owned probe counter/event buffers (repro.instrument) — mapped
#: lazily on the first alloc_probe so uninstrumented images never carry
#: the region
PROBE_BASE = 0x0200_0000
PROBE_SIZE = 1 << 20
STACK_TOP = 0x7FFF_F000
STACK_SIZE = 0x10_0000

#: magic return address that stops the simulator when popped by `ret`
RETURN_SENTINEL = 0x00DE_AD00


class Image:
    """A loaded program plus room for runtime code generation."""

    #: state of :meth:`instance_token`, here so that images assembled
    #: without ``__init__`` (gate shadows) start out with it
    _instance_key: object | None = None
    _code_writes = 0

    def __init__(self, *, code_size: int = 1 << 20, rodata_size: int = 1 << 20,
                 data_size: int = 1 << 22, jit_size: int = 1 << 20) -> None:
        self.memory = Memory()
        self.memory.map(CODE_BASE, code_size)
        self.memory.map(RODATA_BASE, rodata_size)
        self.memory.map(DATA_BASE, data_size)
        self.memory.map(JIT_BASE, jit_size)
        self.memory.map(STACK_TOP - STACK_SIZE, STACK_SIZE + 0x1000)
        self.symbols: dict[str, int] = {}
        self.func_sizes: dict[str, int] = {}
        self._code_cursor = CODE_BASE
        self._rodata_cursor = RODATA_BASE
        self._data_cursor = DATA_BASE
        self._jit_cursor = JIT_BASE
        self._code_limit = CODE_BASE + code_size
        self._rodata_limit = RODATA_BASE + rodata_size
        self._data_limit = DATA_BASE + data_size
        self._jit_limit = JIT_BASE + jit_size
        self._invalidation_hooks: list[Callable[[int, int], None]] = []
        #: serializes code *installation* (base-address computation through
        #: add_function) across threads — the JIT engine computes the base
        #: before assembling, so two concurrent installs without this lock
        #: would claim the same address.  Lift/optimize stages stay
        #: lock-free; only the install tail of each compile serializes.
        self.codegen_lock = threading.RLock()
        #: bumped once per *successful* patch_code; a failed patch rolls
        #: this back together with the bytes, so observers can use it as a
        #: cheap "did code change" check
        self.generation = 0

    def instance_token(self) -> tuple:
        """Key identifying one state of *this image object's* code.

        It is never shared and never reused: the first component is minted
        per ``Image`` object — two images of one program start from equal
        bytes and then diverge when different candidates of equal size are
        installed — and the second counts every write ``patch_code`` makes,
        the roll-back of a failed patch included, so the token a failed
        patch showed for a moment is not handed out again for other bytes.
        In-process state derived from executable bytes is keyed by it: the
        simulator's block tables are, but a compiled block itself outlives
        the token — it is served again, to this image or another, wherever
        memory still holds the bytes it was decoded from.
        """
        key = self._instance_key
        if key is None:
            key = self.__dict__.setdefault("_instance_key", object())
        return (key, self._code_writes, self._code_cursor, self._jit_cursor)

    # -- runtime patching --------------------------------------------------------

    def add_invalidation_hook(self, hook: Callable[[int, int], None]) -> None:
        """Register ``hook(addr, size)`` to fire when installed bytes are
        patched (the specialization cache uses this to drop entries whose
        content digests were memoized)."""
        if hook not in self._invalidation_hooks:
            self._invalidation_hooks.append(hook)

    def patch_code(self, addr: int, data: bytes) -> None:
        """Overwrite installed bytes *and tell everyone who memoized them*.

        Direct ``image.memory.write`` is still possible (and used for plain
        data), but code patches must go through here so caches keyed by
        function-content digests re-read the new bytes.

        The patch is atomic from the caller's view: if the write or any
        invalidation hook raises, the previous bytes and the generation
        counter are restored (and the hooks re-run over the restore), so a
        failed install never leaves a half-patched image behind.  It holds
        ``codegen_lock``, so whoever reads bytes and a token under that
        lock gets a matching pair.
        """
        with self.codegen_lock:
            previous = self.memory.read(addr, len(data))  # validates the range
            generation = self.generation
            self.memory.write(addr, data)
            self._code_writes += 1
            self.generation = generation + 1
            try:
                for hook in list(self._invalidation_hooks):
                    hook(addr, len(data))
            except BaseException:
                self.memory.write(addr, previous)
                self._code_writes += 1
                self.generation = generation
                # the memoizers already saw (or partially saw) the new
                # bytes: re-invalidate over the restored content, tolerating
                # repeated failure so the image itself always ends up
                # consistent
                for hook in list(self._invalidation_hooks):
                    try:
                        hook(addr, len(data))
                    except BaseException:
                        pass
                raise

    # -- allocation ------------------------------------------------------------

    def _bump(self, cursor: int, limit: int, size: int, align: int) -> tuple[int, int]:
        addr = align_up(cursor, align)
        if addr + size > limit:
            raise SimulatorError("image region exhausted")
        return addr, addr + size

    def add_function(self, name: str, code: bytes, *, jit: bool = False) -> int:
        """Install machine code under ``name``; returns the entry address.

        All-or-nothing: the allocation cursor and symbol table only commit
        after the bytes are in place, so a failed install is invisible.
        """
        with self.codegen_lock:
            if jit:
                addr, cursor = self._bump(self._jit_cursor, self._jit_limit, len(code), 16)
            else:
                addr, cursor = self._bump(self._code_cursor, self._code_limit, len(code), 16)
            self.memory.write(addr, code)
            if jit:
                self._jit_cursor = cursor
            else:
                self._code_cursor = cursor
            self.symbols[name] = addr
            self.func_sizes[name] = len(code)
        return addr

    def next_code_addr(self, *, jit: bool = False, align: int = 16) -> int:
        """The address the next add_function call would use (for label layout)."""
        cursor = self._jit_cursor if jit else self._code_cursor
        return align_up(cursor, align)

    def alloc_rodata(self, data: bytes, align: int = 16) -> int:
        """Place read-only bytes; returns their address."""
        with self.codegen_lock:
            addr, self._rodata_cursor = self._bump(
                self._rodata_cursor, self._rodata_limit, len(data), align
            )
            self.memory.write(addr, data)
        return addr

    def alloc_data(self, size: int, align: int = 16, data: bytes | None = None) -> int:
        """Allocate zeroed mutable space (the "heap"); returns its address."""
        with self.codegen_lock:
            addr, self._data_cursor = self._bump(self._data_cursor, self._data_limit, size, align)
            if data is not None:
                self.memory.write(addr, data)
        return addr

    def alloc_probe(self, size: int, align: int = 16) -> int:
        """Allocate zeroed probe-buffer space (``repro.instrument``).

        The probe region is disjoint from every program region so the
        differential gate can whitelist it wholesale: instrumented code may
        differ from the original *only* here.  Mapped on first use —
        uninstrumented images and pre-instrumentation snapshots never see
        it — which also means images assembled through ``Image.__new__``
        (gate shadows) pick it up transparently.
        """
        with self.codegen_lock:
            cursor = getattr(self, "_probe_cursor", None)
            if cursor is None:
                self.memory.map(PROBE_BASE, PROBE_SIZE)
                cursor = PROBE_BASE
                self._probe_limit = PROBE_BASE + PROBE_SIZE
            addr, self._probe_cursor = self._bump(
                cursor, self._probe_limit, size, align)
        return addr

    # -- symbols ----------------------------------------------------------------

    def symbol(self, name: str) -> int:
        """Address of a defined symbol."""
        try:
            return self.symbols[name]
        except KeyError:
            raise SimulatorError(f"undefined symbol {name!r}") from None

    def function_bytes(self, name: str) -> bytes:
        """The machine code installed for a function symbol."""
        return self.memory.read(self.symbol(name), self.func_sizes[name])

    def symbol_at(self, addr: int) -> str | None:
        """Reverse-lookup a symbol name by address (exact match)."""
        for name, a in self.symbols.items():
            if a == addr:
                return name
        return None
