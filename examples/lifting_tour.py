#!/usr/bin/env python3
"""A tour of the x86-64 -> IR transformation (Sec. III, Figures 4-6).

Shows, for hand-written machine-code snippets:

* Fig. 5 — how individual instructions lift (``sub`` with and without a
  flag reader, a memory load, ``addsd`` with its facet-cast chain);
* Fig. 4 — the register facet model (same xmm register viewed as i128,
  scalar double, and vector);
* Fig. 6 — the flag cache: the same ``cmp``+``cmovl`` max() function lifted
  with and without it, before and after -O3.

Run:  python examples/lifting_tour.py
"""

from repro.cpu import Image
from repro.ir import Module, print_function, verify
from repro.ir.passes import run_o3
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.x86 import parse_asm
from repro.x86.asm import assemble


def lift_snippet(asm, signature, *, name="snippet", flag_cache=True,
                 facet_cache=True, optimize=False):
    image = Image()
    base = image.next_code_addr()
    code, _ = assemble(parse_asm(asm), base=base)
    image.add_function(name, code)
    module = Module(name)
    func = lift_function(
        image.memory, base, signature,
        LiftOptions(name=name, flag_cache=flag_cache, facet_cache=facet_cache),
        module,
    )
    verify(func)
    if optimize:
        run_o3(func)
        verify(func)
    return func


def show(title, func):
    print(f"\n=== {title} ===")
    print(print_function(func))


def main() -> None:
    # --- Fig. 5: single instructions ---------------------------------------
    show("Fig 5a: sub rax, 1 (unoptimized lift; nothing reads a flag, so "
         "none is computed)",
         lift_snippet("sub rax, 1\nret", FunctionSignature((), "i")))

    show("Fig 5a': sub rdi, 1 ; sets al (the one flag that is read is "
         "built right behind the sub; the other five never are)",
         lift_snippet("sub rdi, 1\nsets al\nmovzx eax, al\nret",
                      FunctionSignature(("i",), "i")))

    show("Fig 5b: mov eax, [rdi - 0xc] -> GEP + load + zext",
         lift_snippet("mov eax, [rdi - 0xc]\nret",
                      FunctionSignature(("i",), "i"), optimize=True))

    show("Fig 5c: addsd xmm0, xmm1 -> fadd on the f64 facets; the merge "
         "into the old vector (bitcast / insertelement) is kept because "
         "movhpd reads the upper lane",
         lift_snippet("addsd xmm0, xmm1\nmovhpd [rdi], xmm0\nret",
                      FunctionSignature(("i", "f", "f"), "f")))

    # --- Fig. 4: facets after optimization ----------------------------------
    show("facet chains vanish after -O3 (paper: 'introduced overhead often "
         "is removed at a later stage')",
         lift_snippet("addsd xmm0, xmm1\nmulsd xmm0, xmm1\nret",
                      FunctionSignature(("f", "f"), "f"), optimize=True))

    # --- Fig. 6: the flag cache ---------------------------------------------
    max_asm = """
        mov rax, rdi
        cmp rdi, rsi
        cmovl rax, rsi
        ret
    """
    show("Fig 6b: max(a,b) WITHOUT flag cache, after -O3 "
         "(sign/overflow bit arithmetic survives)",
         lift_snippet(max_asm, FunctionSignature(("i", "i"), "i"),
                      flag_cache=False, optimize=True))

    show("Fig 6c: max(a,b) WITH flag cache, after -O3 (single icmp slt)",
         lift_snippet(max_asm, FunctionSignature(("i", "i"), "i"),
                      flag_cache=True, optimize=True))


if __name__ == "__main__":
    main()
