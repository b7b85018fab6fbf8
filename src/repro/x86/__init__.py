"""x86-64 ISA substrate: instruction model, encoder, decoder, printer, parser.

This package is the foundation everything else consumes:

* :mod:`repro.x86.registers` — the architectural register file and the
  sub-register ("facet") geometry of Figure 4 of the paper;
* :mod:`repro.x86.instr` — operand and instruction dataclasses;
* :mod:`repro.x86.isa` — the mnemonic/encoding/condition-code tables;
* :mod:`repro.x86.effects` — what one instruction touches (registers,
  memory, flags, control), the record every consumer reads;
* :mod:`repro.x86.encoder` / :mod:`repro.x86.decoder` — machine-code
  round-tripping (the offline substitute for an assembler + capstone);
* :mod:`repro.x86.printer` / :mod:`repro.x86.asmparser` — Intel-syntax text.
"""

from repro.x86.instr import Imm, Instruction, Mem, Reg, gp, xmm
from repro.x86.registers import GP, XMM
from repro.x86.encoder import encode
from repro.x86.decoder import decode_block, decode_one
from repro.x86.printer import format_instruction, format_operand
from repro.x86.asmparser import parse_asm

__all__ = [
    "GP",
    "XMM",
    "Imm",
    "Instruction",
    "Mem",
    "Reg",
    "decode_block",
    "decode_one",
    "encode",
    "format_instruction",
    "format_operand",
    "gp",
    "parse_asm",
    "xmm",
]
