"""JIT engine: optimized IR module -> machine code in a simulated Image.

The MCJIT substitute.  Responsibilities:

* place module globals (the constant-memory copies of Sec. IV) in the
  image's rodata region;
* lower each function to TAC, clean it, and emit x86-64 with the
  LLVM-flavoured instruction selection (single ``imul`` multiplies,
  RIP-relative constants);
* install the code in the image's JIT region and return entry addresses.
"""

from __future__ import annotations

from repro.backend.emit import EmitOptions, emit_function, emit_function_info
from repro.backend.opt import optimize as tac_optimize
from repro.cc.compiler import RodataPool
from repro.cpu.image import Image, RODATA_BASE
from repro.errors import CodegenError
from repro.ir.codegen.lower import lower_function, lower_function_info
from repro.ir.module import Function, Module
from repro.obs.trace import TRACER as _TR
from repro.x86.asm import Item, assemble_full


#: the one instruction selection the JIT has: LLVM uses plain multiplies
#: (Sec. VI-A) where the MCC compiler synthesizes lea/shl chains
EMIT = EmitOptions(mul_style="imul", const_addressing="riprel")


class JITEngine:
    """Compiles MiniLLVM modules into an Image at runtime."""

    def __init__(self, image: Image) -> None:
        self.image = image
        self.pool = RodataPool(image)
        #: witness of the most recent ``compile_function`` (machine verify)
        self.last_witness = None

    def place_globals(self, module: Module) -> None:
        """Copy module globals into the image's rodata."""
        with self.image.codegen_lock:
            for g in module.globals.values():
                if g.addr is None:
                    g.addr = self.image.alloc_rodata(g.initializer, align=16)

    def compile_function(self, func: Function, *, name: str | None = None,
                         extra_symbols: dict[str, int] | None = None) -> int:
        """Compile one function; returns its entry address."""
        if not _TR.enabled:
            return self._compile_function(func, name, extra_symbols)
        with _TR.span("jit.compile", {"func": func.name}):
            return self._compile_function(func, name, extra_symbols)

    def _compile_function(self, func: Function, name: str | None,
                          extra_symbols: dict[str, int] | None) -> int:
        if func.is_declaration:
            raise CodegenError(f"cannot compile declaration @{func.name}",
                               stage="codegen", function=func.name)
        self.last_witness = None
        if func.module is not None:
            self.place_globals(func.module)
        span = _TR.start("jit.lower", {"func": func.name}) \
            if _TR.enabled else None
        try:
            try:
                tf, lower_info = lower_function_info(func)
            except CodegenError as exc:
                raise exc.with_context(stage="codegen", function=func.name)
            tac_optimize(tf)
        finally:
            if span is not None:
                _TR.finish(span)
        # the base address is computed before assembling against it, so
        # emit-through-install must be one critical section per image:
        # two threads compiling into one image would otherwise claim the
        # same JIT address
        span = _TR.start("jit.install", {"func": func.name}) \
            if _TR.enabled else None
        try:
            with self.image.codegen_lock:
                symbols = dict(self.image.symbols)
                if extra_symbols:
                    symbols.update(extra_symbols)
                # declared callees must resolve through existing image symbols
                items, emit_info = emit_function_info(tf, self.pool, EMIT,
                                                      symbols)
                base = self.image.next_code_addr(jit=True)
                code, _placed, labels = assemble_full(items, base)
                install_name = name or func.name
                addr = self.image.add_function(install_name, code, jit=True)
                rodata_end = self.image._rodata_cursor
        finally:
            if span is not None:
                _TR.finish(span)
        assert addr == labels[func.name]
        from repro.analysis.machine.witness import build_witness
        mem = self.image.memory
        self.last_witness = build_witness(
            func=func, name=install_name, code=code, base=base, labels=labels,
            lower_info=lower_info, emit_info=emit_info, symbols=symbols,
            rodata_range=(RODATA_BASE, rodata_end),
            read_rodata=lambda a, n: mem.read(a, n),
        )
        return addr

    def compile_module(self, module: Module) -> dict[str, int]:
        """Compile every defined function; returns name -> address."""
        with self.image.codegen_lock:
            return self._compile_module(module)

    def _compile_module(self, module: Module) -> dict[str, int]:
        self.last_witness = None  # witnesses are per-compile_function only
        self.place_globals(module)
        out: dict[str, int] = {}
        # two passes so intra-module calls resolve: declarations first
        defined = [f for f in module.functions.values() if not f.is_declaration]
        # emit in one item stream so cross-calls resolve by label
        items: list[Item] = []
        for f in defined:
            tf = lower_function(f)
            tac_optimize(tf)
            items.extend(emit_function(tf, self.pool, EMIT,
                                       dict(self.image.symbols)))
        base = self.image.next_code_addr(jit=True)
        code, _placed, labels = assemble_full(items, base)
        blob_name = f"$jit{base:x}"
        self.image.add_function(blob_name, code, jit=True)
        del self.image.symbols[blob_name]
        addrs = sorted((labels[f.name], f.name) for f in defined)
        for i, (addr, fname) in enumerate(addrs):
            end = addrs[i + 1][0] if i + 1 < len(addrs) else base + len(code)
            self.image.symbols[fname] = addr
            self.image.func_sizes[fname] = end - addr
            out[fname] = addr
        return out
