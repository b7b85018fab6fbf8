"""Machine-level CFG reconstruction over freshly emitted bytes.

Recursive-descent decoding from the function entry plus every known
block label.  The resulting instruction map is the one decode of the bytes
the machine verifier reads (its symbolic executor fetches from it), and it
supports two audits that symbolic execution does not perform:

* **overlap** — two reachable instructions whose byte ranges intersect
  without sharing a start address mean the encoder produced ambiguous
  bytes (or a jump targets the middle of an instruction);
* **unreachable bytes** — gaps never covered by any decoded instruction
  are dead bytes the emitter paid for (or worse, a block whose label was
  dropped).  Reported as a warning: dead code is waste, not unsoundness.

The block structure (``MBlock``) is what a second-ISA backend would need
to reimplement; everything else here is ISA-neutral bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.findings import ERROR, Finding, WARNING
from repro.analysis.machine.witness import CodeWitness
from repro.x86.decoder import DecodeError, decode_one
from repro.x86.effects import effects_of
from repro.x86.instr import Instruction


@dataclass
class MBlock:
    """A maximal straight-line run of decoded instructions."""

    addr: int
    instructions: list[Instruction] = field(default_factory=list)
    successors: tuple[int, ...] = ()

    @property
    def end(self) -> int:
        if not self.instructions:
            return self.addr
        return self.instructions[-1].end


@dataclass
class MachineCFG:
    """Decoded control-flow graph of one emitted function."""

    blocks: dict[int, MBlock]
    findings: list[Finding]
    #: every decoded instruction by address
    instructions: dict[int, Instruction]

    @property
    def ok(self) -> bool:
        return not any(f.is_error for f in self.findings)


def build_mcfg(witness: CodeWitness) -> MachineCFG:
    """Reconstruct the CFG of ``witness`` and audit the encoding."""
    base, end = witness.base, witness.end
    findings: list[Finding] = []

    def finding(checker: str, message: str, severity: str = ERROR) -> None:
        findings.append(Finding(checker=checker, function=witness.name,
                                message=message, severity=severity))

    # -- pass 1: reachable instruction starts -------------------------------
    decoded: dict[int, Instruction] = {}
    roots = [witness.entry, *witness.block_addrs.values()]
    work = sorted(set(roots))
    seen_roots = set(work)
    while work:
        pc = work.pop()
        while base <= pc < end and pc not in decoded:
            try:
                ins = decode_one(witness.code, pc - base, pc)
            except DecodeError as exc:
                finding("machine.cfg.decode-error",
                        f"undecodable bytes at {pc:#x}: {exc}")
                break
            decoded[pc] = ins
            fx = effects_of(ins)
            if fx.control in ("jmp", "jcc"):
                tgt = fx.target
                if tgt is not None:
                    if base <= tgt < end:
                        if tgt not in decoded:
                            work.append(tgt)
                    else:
                        finding("machine.cfg.decode-error",
                                f"branch at {pc:#x} targets {tgt:#x} "
                                f"outside the function")
                if fx.control == "jmp":
                    break
            elif fx.control == "ret":
                break
            pc = ins.end

    # -- pass 2: overlap audit ----------------------------------------------
    starts = sorted(decoded)
    for i, s in enumerate(starts):
        e = decoded[s].end
        for j in range(i + 1, len(starts)):
            s2 = starts[j]
            if s2 >= e:
                break
            finding("machine.cfg.overlap",
                    f"instructions at {s:#x}..{e:#x} and {s2:#x} overlap")

    # -- pass 3: unreachable-byte audit --------------------------------------
    covered = 0
    gap_start = None
    gaps: list[tuple[int, int]] = []
    pc = base
    idx = 0
    while pc < end:
        if idx < len(starts) and starts[idx] == pc:
            if gap_start is not None:
                gaps.append((gap_start, pc))
                gap_start = None
            covered += decoded[pc].length
            pc = decoded[pc].end
            idx += 1
            while idx < len(starts) and starts[idx] < pc:
                idx += 1  # overlapping start, already reported above
        else:
            if gap_start is None:
                gap_start = pc
            pc += 1
    if gap_start is not None:
        gaps.append((gap_start, end))
    for lo, hi in gaps:
        finding("machine.cfg.unreachable-bytes",
                f"{hi - lo} unreachable byte(s) at {lo:#x}..{hi:#x}",
                severity=WARNING)

    # -- pass 4: fold instructions into blocks -------------------------------
    leaders = set(seen_roots)
    for s in starts:
        ins = decoded[s]
        fx = effects_of(ins)
        if fx.control in ("jmp", "jcc"):
            if fx.target is not None and base <= fx.target < end:
                leaders.add(fx.target)
            if fx.control == "jcc":
                leaders.add(ins.end)
        elif fx.control == "ret":
            leaders.add(ins.end)
    blocks: dict[int, MBlock] = {}
    cur: MBlock | None = None
    for s in starts:
        ins = decoded[s]
        if cur is None or s in leaders:
            cur = MBlock(addr=s)
            blocks[s] = cur
        cur.instructions.append(ins)
        fx = effects_of(ins)
        direct = () if fx.target is None else (fx.target,)
        succs: tuple[int, ...] | None = None
        if fx.control == "jmp":
            succs = direct
        elif fx.control == "jcc":
            succs = (*direct, ins.end)
        elif fx.control == "ret":
            succs = ()
        elif ins.end in leaders:
            succs = (ins.end,)
        if succs is not None:
            cur.successors = succs
            cur = None
    return MachineCFG(blocks=blocks, findings=findings, instructions=decoded)
