"""Differential verification gate: validate-before-swap (LeanBin's policy).

Before a specialized function is allowed to serve traffic, it is executed
against the *original* function under the deterministic CPU simulator on a
set of probe argument vectors — user-supplied probes plus deterministically
sampled ones.  Both runs execute on a copy-on-touch shadow of the image:
the first touch of a 4 KiB chunk copies it into private memory, every later
access uses that copy, and the chunks a run dirtied are rolled back
afterwards, so a gate pays for the chunks its probes touch and never walks
the whole image.  Both runs therefore see identical bytes in every chunk
either one touches.  Only code patched mid-gate could break that, so the
gate re-reads the image's patch counter after its probes and rejects if it
moved.  The gate compares return values **and** every chunk either run
dirtied (minus the stack region, whose dead slots legitimately differ
between code layouts).  Any divergence raises
:class:`~repro.errors.VerificationError`, and the guard ladder falls back to
the next rung — a wrong specialization must cost a fallback, never a
miscompile.

Probe semantics: a probe supplies one value per *free* parameter slot; the
values of fixed parameters (scalar fixations, :class:`FixedMemory` region
addresses) are substituted automatically for both sides, because the
original needs them and the specialized code ignores them.

A probe on which the *original* function itself faults (e.g. a sampled
integer used as a pointer) is inconclusive and skipped; only probes where
the original produced a result participate in the verdict.  By default at
least one conclusive probe is required for a PASS
(``GateOptions.min_conclusive``): a gate where every probe was
inconclusive proved nothing, so it must not report a verified candidate.
Functions whose free parameters are pointers need user probes carrying
real addresses — sampled integers cannot exercise them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.cpu.image import Image
from repro.cpu.simulator import Simulator
from repro.errors import ReproError, VerificationError
from repro.lift import FunctionSignature
from repro.lift.fixation import FixedMemory
from repro.mem.memory import JournaledMemory, Memory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.guard.budget import Budget

#: deterministic f64 sample values (varied signs/magnitudes, no NaN — NaN
#: compare rules would need per-kernel knowledge)
_F64_SAMPLES = (0.0, 1.0, -1.5, 2.25, 0.5, -3.0, 8.0, -0.125)
#: deterministic small i64 sample values (safe loop bounds / selectors)
_I64_SAMPLES = (0, 1, 2, 3, 5, 8, 13, 21)


@dataclass(frozen=True)
class GateOptions:
    """Verification-gate configuration."""

    #: sampled argument vectors appended to the user-supplied probes
    samples: int = 4
    #: sample-rotation seed, so repeated gates on one function vary
    seed: int = 0
    #: per-probe simulated-instruction ceiling (bounds gate latency)
    max_steps: int = 2_000_000
    #: require at least this many conclusive probes for a PASS verdict.
    #: 0 allows a gate where every probe was inconclusive to pass
    #: *vacuously* (``GateReport.vacuous``) — no comparison ever happened,
    #: so such a pass is not verification; it is off by default
    min_conclusive: int = 1
    #: [lo, hi) address ranges the memory comparison ignores — the
    #: effects-whitelist for instrumented code: only the probe buffer may
    #: legitimately differ between original and instrumented runs.  Empty
    #: for ordinary specialization gates
    ignore_regions: tuple[tuple[int, int], ...] = ()


@dataclass
class ProbeOutcome:
    """One probe's differential result."""

    args: tuple
    expected: object | None = None
    actual: object | None = None
    expected_error: str | None = None
    actual_error: str | None = None
    agreed: bool = False
    inconclusive: bool = False
    #: first memory address whose post-run contents diverged (if any)
    diverged_addr: int | None = None


@dataclass
class GateReport:
    """Outcome of one differential verification."""

    passed: bool = False
    probes: list[ProbeOutcome] = field(default_factory=list)
    conclusive: int = 0
    #: why the gate rejected (None on pass)
    reason: str | None = None
    #: passed without a single conclusive probe (only possible with
    #: ``min_conclusive=0``): nothing was actually compared
    vacuous: bool = False


class DifferentialGate:
    """Compares a specialized function against its original by execution."""

    def __init__(self, image: Image, options: GateOptions = GateOptions()) -> None:
        self.image = image
        self.options = options

    # -- probe construction -------------------------------------------------

    def _sampled_probes(self, signature: FunctionSignature,
                        fixes: dict[int, int | float | FixedMemory] | None,
                        ) -> list[tuple]:
        free = [i for i in range(len(signature.params))
                if not (fixes and i in fixes)]
        probes = []
        for k in range(self.options.samples):
            rot = k + self.options.seed
            vec = []
            for slot, i in enumerate(free):
                idx = (rot + slot * 3) % len(_I64_SAMPLES)
                if signature.params[i] == "f":
                    vec.append(_F64_SAMPLES[idx])
                else:
                    vec.append(_I64_SAMPLES[idx])
            probes.append(tuple(vec))
        return probes

    def _full_args(self, probe: tuple, signature: FunctionSignature,
                   fixes: dict[int, int | float | FixedMemory] | None,
                   ) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Substitute fixed values, split SysV-style into int/f64 args."""
        free = sum(1 for i in range(len(signature.params))
                   if not (fixes and i in fixes))
        if len(probe) != free:
            # a longer probe (say, one carrying the fixed slots too) would
            # run on shifted arguments and still say "verified"
            raise VerificationError(
                f"probe {probe!r} is "
                f"{'shorter' if len(probe) < free else 'longer'} than the "
                "free parameters of the signature", stage="verify")
        it = iter(probe)
        int_args: list[int] = []
        f64_args: list[float] = []
        for i, cls in enumerate(signature.params):
            if fixes and i in fixes:
                v = fixes[i]
                if isinstance(v, FixedMemory):
                    value: int | float = v.addr
                else:
                    value = v
            else:
                value = next(it)
            if cls == "f":
                f64_args.append(float(value))
            else:
                int_args.append(int(value) & (2**64 - 1))
        return tuple(int_args), tuple(f64_args)

    # -- execution ----------------------------------------------------------

    def _shadow_image(self, memory: Memory, token: tuple) -> Image:
        """A private image over ``memory`` for probe execution.

        The gate must never mutate the engine's live image: it runs on a
        shared, concurrently-served :class:`Image`, and the old
        snapshot/execute/restore-in-place scheme had a destructive race —
        a restore would revert JIT code another thread installed while
        the probes were running (the installed function kept serving its
        now-zeroed address).  Probes therefore execute on this shadow:
        same symbols, same bytes at the same guest addresses, separate
        backing store.  The live image is only ever *read*, a chunk at a
        time on first touch (:class:`JournaledMemory`).

        ``token`` is the live image's instance token at gate start: the
        shadow holds the same code bytes, so it answers with the same
        token and the simulator reuses the blocks already compiled for
        the original instead of rebuilding them per gate.  :meth:`check`
        rejects if a patch moved the token's patch counter meanwhile.
        """
        img = Image.__new__(Image)
        img.memory = memory
        img.symbols = self.image.symbols
        img.func_sizes = self.image.func_sizes
        img.instance_token = lambda: token  # type: ignore[method-assign]
        return img

    def _run(self, sim: Simulator, addr: int, int_args: tuple[int, ...],
             f64_args: tuple[float, ...], ret: str | None):
        """(result, error string) of one simulated call."""
        try:
            res = sim.call(addr, int_args, f64_args,
                           max_steps=self.options.max_steps)
        except ReproError as exc:
            return None, f"{type(exc).__name__}: {exc}"
        if ret == "f":
            return res.xmm0, None  # raw bits: compared bit-exactly
        if ret == "i":
            return res.rax, None
        return None, None

    def _stack_extent(self) -> tuple[int, int]:
        from repro.cpu.image import STACK_SIZE, STACK_TOP
        return (STACK_TOP - STACK_SIZE, STACK_TOP + 0x1000)

    def _mem_diff(self, base: Memory, a: dict[int, bytes],
                  b: dict[int, bytes]) -> int | None:
        """Lowest differing address outside the stack region and the
        whitelisted ``ignore_regions``, or None.

        ``a`` and ``b`` are the chunks each run dirtied
        (:meth:`JournaledMemory.rollback`); a chunk only one side dirtied
        is compared against the rolled-back ``base``."""
        skip = sorted((self._stack_extent(), *self.options.ignore_regions))
        for start in sorted(a.keys() | b.keys()):
            da, db = a.get(start), b.get(start)
            if da is None:
                da = base.read(start, len(db))
            elif db is None:
                db = base.read(start, len(da))
            if da == db:
                continue
            # compare the stretches between the skipped ranges (dead stack
            # slots / probe buffers may differ); the empty range at the
            # chunk's end closes the last stretch
            lo, end = 0, len(da)
            for s_lo, s_hi in (*skip, (start + end, start + end)):
                hi = min(max(s_lo - start, lo), end)
                if da[lo:hi] != db[lo:hi]:
                    return start + next(i for i in range(lo, hi)
                                        if da[i] != db[i])
                lo = min(max(s_hi - start, lo), end)
        return None

    # -- the gate ------------------------------------------------------------

    def check(self, original: int | str, specialized: int | str,
              signature: FunctionSignature,
              fixes: dict[int, int | float | FixedMemory] | None = None,
              probes: Sequence[tuple] = (),
              budget: "Budget | None" = None) -> GateReport:
        """Differentially execute and compare; never installs or uninstalls.

        Returns a :class:`GateReport`; ``report.passed`` is the verdict.
        Raising is left to the caller (:meth:`gate` wraps this with the
        raise-on-divergence contract).
        """
        orig = self.image.symbol(original) if isinstance(original, str) else original
        spec = self.image.symbol(specialized) if isinstance(specialized, str) else specialized
        report = GateReport()
        all_probes = list(probes) + self._sampled_probes(signature, fixes)
        # every probe runs on a copy-on-touch shadow (see _shadow_image —
        # undoing a run on the live memory would race with concurrent
        # installs into the same image).  patch_code and add_function hold
        # the lock while they write, so a token read under it is one the
        # bytes read later match — unless a patch lands meanwhile, which
        # the check after the probes catches
        with self.image.codegen_lock:
            memory = JournaledMemory(self.image.memory)
            token = self.image.instance_token()
        sim = Simulator(self._shadow_image(memory, token))
        for probe in all_probes:
            if budget is not None:
                budget.check_deadline("verify")
            out = ProbeOutcome(args=probe)
            report.probes.append(out)
            int_args, f64_args = self._full_args(probe, signature, fixes)
            out.expected, out.expected_error = self._run(
                sim, orig, int_args, f64_args, signature.ret)
            mem_orig = memory.rollback()
            if out.expected_error is not None:
                # the original itself rejects this input: inconclusive
                out.inconclusive = True
                continue
            out.actual, out.actual_error = self._run(
                sim, spec, int_args, f64_args, signature.ret)
            mem_spec = memory.rollback()
            report.conclusive += 1
            if out.actual_error is not None:
                report.reason = (f"specialized code failed on {probe!r}: "
                                 f"{out.actual_error}")
                return report
            out.diverged_addr = self._mem_diff(memory, mem_orig, mem_spec)
            if out.diverged_addr is not None:
                report.reason = (f"memory divergence at "
                                 f"{out.diverged_addr:#x} on {probe!r}")
                return report
            if out.expected != out.actual:
                report.reason = (f"return divergence on {probe!r}: "
                                 f"expected {out.expected!r}, got "
                                 f"{out.actual!r}")
                return report
            out.agreed = True
        with self.image.codegen_lock:
            patched = self.image.instance_token()[1] != token[1]
        if patched:
            # a chunk first touched after the patch holds the new code:
            # the runs may have mixed old and new bytes.  add_function
            # only writes past the cursor, at addresses no probe ran
            report.reason = "code patched during the gate"
            return report
        if report.conclusive < self.options.min_conclusive:
            report.reason = (f"only {report.conclusive} conclusive probes "
                             f"(need {self.options.min_conclusive})")
            return report
        report.passed = True
        report.vacuous = report.conclusive == 0
        return report

    def gate(self, original: int | str, specialized: int | str,
             signature: FunctionSignature,
             fixes: dict[int, int | float | FixedMemory] | None = None,
             probes: Sequence[tuple] = (),
             budget: "Budget | None" = None) -> GateReport:
        """:meth:`check`, raising :class:`VerificationError` on rejection."""
        report = self.check(original, specialized, signature, fixes,
                            probes, budget)
        if not report.passed:
            raise VerificationError(
                report.reason or "differential verification failed",
                stage="verify", conclusive=report.conclusive,
            )
        return report
