"""Resource budgets for runtime transformations (fuel + deadline).

A :class:`Budget` bounds what one transformation attempt may consume:
wall-clock time plus *fuel counters* for the stages that can blow up on
adversarial inputs — DBrew trace points and emulated instructions, lifter
blocks/instructions, -O3 sweep iterations.  The drivers charge the budget
as they work; exhaustion raises
:class:`~repro.errors.BudgetExceededError`, which is a
:class:`~repro.errors.RewriteError`, so the guard ladder (and DBrew's own
error handler) degrade to a fallback instead of hanging.

The same budget instance is shared across all rungs of one
:meth:`GuardedTransformer.transform` call: the deadline is for the whole
request, not per attempt.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.errors import BudgetExceededError

#: fuel counters a budget can bound, in charge() order of appearance
COUNTERS = ("trace_points", "emulated", "lift_blocks", "lift_instructions",
            "opt_iterations")

#: deadline is only consulted every N fuel charges (clock calls are not
#: free and charge() sits on per-instruction paths)
_DEADLINE_STRIDE = 64


class Budget:
    """Fuel counters plus a wall-clock deadline for one transform request.

    ``None`` limits are unlimited.  Call :meth:`start` when the request
    begins (re-arming the deadline and zeroing the spent counters); the
    pipeline stages call :meth:`charge` / :meth:`check_deadline`.

    ``yield_hook`` makes the budget *cooperative*: the pipeline stages call
    it at their charge/checkpoint sites (per trace point in the rewriter,
    per sweep in the -O3 pipeline, at stage boundaries), so a scheduler —
    the tiered engine's background workers — can deprioritize a compile
    mid-flight (sleep, wait on a throttle gate) without the stages knowing
    anything about threads.  The hook must return promptly or raise
    ``BudgetExceededError``-compatible errors; it runs on the compile
    thread.
    """

    def __init__(self, *, deadline_seconds: float | None = None,
                 max_trace_points: int | None = None,
                 max_emulated: int | None = None,
                 max_lift_blocks: int | None = None,
                 max_lift_instructions: int | None = None,
                 max_opt_iterations: int | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 yield_hook: Callable[[], None] | None = None) -> None:
        self.deadline_seconds = deadline_seconds
        self.limits: dict[str, int | None] = {
            "trace_points": max_trace_points,
            "emulated": max_emulated,
            "lift_blocks": max_lift_blocks,
            "lift_instructions": max_lift_instructions,
            "opt_iterations": max_opt_iterations,
        }
        self.spent: dict[str, int] = {c: 0 for c in COUNTERS}
        self._clock = clock
        self._t0: float | None = None
        self._charges = 0
        self.yield_hook = yield_hook

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Budget":
        """Arm the deadline and reset the spent counters; returns self."""
        self._t0 = self._clock()
        self._charges = 0
        for c in self.spent:
            self.spent[c] = 0
        return self

    def elapsed_seconds(self) -> float:
        return 0.0 if self._t0 is None else self._clock() - self._t0

    # -- charging ----------------------------------------------------------

    def charge(self, counter: str, n: int = 1, *, stage: str,
               addr: int | None = None) -> None:
        """Spend ``n`` units of ``counter`` fuel; raises on exhaustion.

        Also polls the deadline every few charges, so a stage that only
        charges fuel still honors the wall clock.
        """
        spent = self.spent[counter] + n
        self.spent[counter] = spent
        limit = self.limits[counter]
        if limit is not None and spent > limit:
            raise BudgetExceededError(
                f"{counter} budget exhausted ({spent} > {limit})",
                stage=stage, addr=addr, counter=counter, limit=limit,
            )
        self._charges += 1
        if self._charges % _DEADLINE_STRIDE == 0:
            self.checkpoint(stage, addr=addr)

    def checkpoint(self, stage: str, *, addr: int | None = None) -> None:
        """Cooperative yield point: run the yield hook, then the deadline.

        Stages call this where pausing is safe (between trace points,
        between -O3 sweeps, before codegen).  The hook runs *before* the
        deadline check so a throttled compile that overslept its deadline
        fails here, at a clean boundary, instead of deep inside a stage.
        """
        if self.yield_hook is not None:
            self.yield_hook()
        self.check_deadline(stage, addr=addr)

    def check_deadline(self, stage: str, *, addr: int | None = None) -> None:
        """Raise when the wall-clock deadline has passed."""
        if self.deadline_seconds is None:
            return
        if self._t0 is None:
            # arm only the clock: a budget used without an explicit
            # start() must keep its already-charged fuel counters
            self._t0 = self._clock()
        elapsed = self.elapsed_seconds()
        if elapsed > self.deadline_seconds:
            raise BudgetExceededError(
                f"deadline exceeded ({elapsed:.3f}s > "
                f"{self.deadline_seconds:.3f}s)",
                stage=stage, addr=addr, counter="deadline",
                limit=self.deadline_seconds,
            )

    def snapshot(self) -> dict[str, Any]:
        """Spent fuel and elapsed time (for GuardResult / logs)."""
        return {
            "elapsed_seconds": self.elapsed_seconds(),
            "deadline_seconds": self.deadline_seconds,
            "spent": dict(self.spent),
            "limits": dict(self.limits),
        }
