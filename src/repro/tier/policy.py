"""Promotion/demotion policy for the tiered execution engine.

The policy layer is deliberately free of threads, compiles and images: it
answers three questions from plain numbers — *should this handle request a
higher tier now?* (call-count thresholds), *should it fall back to a lower
tier?* (measured cycle costs with hysteresis), and *may it ever try tier T
again?* (rejection pinning, re-promotion back-off).  Everything
time-dependent takes an injectable clock, so the whole decision procedure
is unit-testable with a fake clock (tests/tier/test_policy.py).

The hysteresis rules exist to prevent *flapping*:

* a demotion raises that tier's re-promotion threshold by
  ``repromote_backoff``x, so a tier that measured worse is not retried
  after a handful more calls;
* a demotion requires ``demote_after`` *consecutive* worse observations,
  each beyond the ``hysteresis`` margin, so one noisy sample cannot
  demote;
* a fresh install is protected by ``min_dwell_seconds`` before any
  demotion, so warm-up noise (cold caches, first-run effects) is not
  mistaken for a regression;
* a gate rejection (or any failed upgrade) *pins* the handle strictly
  below the rejected tier — the guard's negative cache would make retries
  cheap, but the policy should not even enqueue them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: tier indices (also usable as plain ints)
T0, T1, T2 = 0, 1, 2
NUM_TIERS = 3
TIER_NAMES = ("T0", "T1", "T2")
#: dispatch slow-path cadence (calls) once every promotion is resolved
REVIEW_INTERVAL = 64


def tier_verified(tier: int, gated_now: bool, gated_before: bool) -> bool:
    """Is a compile for ``tier`` reported verified?  T1 is the ungated tier
    and never is, even when its one-off gate happened to run; above it a
    result is verified when the gate passed it conclusively on this request
    (``gated_now``) or served an entry it had admitted (``gated_before``)."""
    return tier != T1 and (gated_now or gated_before)


@dataclass(frozen=True)
class TierPolicy:
    """Tuning knobs for one engine's promotion/demotion behavior."""

    #: calls after which tier 1 / tier 2 compilation is requested
    promote_calls: tuple[int, int] = (8, 64)
    #: a higher tier must not be more than this fraction *worse* than a
    #: lower ready tier (measured cycles) before the demote streak counts
    hysteresis: float = 0.10
    #: consecutive worse-than-lower-tier observations before demoting
    demote_after: int = 3
    #: multiplier applied to a demoted tier's re-promotion threshold
    repromote_backoff: float = 4.0
    #: EWMA smoothing factor for observed per-call cycle costs
    ewma_alpha: float = 0.3
    #: no demotion until this long after the tier was installed
    min_dwell_seconds: float = 0.0

    def threshold(self, tier: int) -> int:
        return self.promote_calls[tier - 1]


class ProfileSource:
    """Where a governor's hotness numbers come from.

    The default (no source attached) is call counting — the dispatch
    handle's raw invocation count.  :class:`EdgeProfile` replaces it with
    basic-block edge heat read from an instrumented tier's probe buffer,
    so a loopy kernel gets hot per *iteration* instead of per call.
    Implementations are duck-typed: anything with ``hotness()`` /
    ``rebase()`` / ``describe()`` works.
    """

    def hotness(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def rebase(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - interface
        return type(self).__name__


class EdgeProfile(ProfileSource):
    """Edge-heat hotness from an instrumented function's probe buffer.

    Reads the per-block counters that T1's probes maintain
    (:class:`~repro.instrument.ProbeBuffer`); hotness is the hottest
    block's count, so one call through a 1000-iteration loop contributes
    1000 heat — call counting would need 1000 separate calls to see the
    same.  ``rebase`` snapshots the current raw heat as the new zero
    (the buffer itself is owned by the installed code and never reset
    under it).
    """

    def __init__(self, buffer) -> None:
        self.buffer = buffer
        self.base = 0

    def _raw(self) -> int:
        return self.buffer.hotness()

    def hotness(self) -> int:
        return max(0, self._raw() - self.base)

    def rebase(self) -> None:
        self.base = self._raw()

    def describe(self) -> str:
        return f"edges@{self.buffer.addr:#x}"


@dataclass
class TierGovernor:
    """Mutable per-handle decision state driven by a :class:`TierPolicy`.

    The governor never touches the dispatch code itself; the engine asks
    :meth:`next_target` on the dispatch slow path, :meth:`observe` when the
    caller reports measured cycles, and informs it of installs, rejections
    and demotions so the back-off state stays honest.

    With a :class:`ProfileSource` attached (``profile``), promotion
    eligibility uses ``max(effective calls, profile hotness)`` — the
    profile can only accelerate promotion, never starve it below the
    call-count baseline (a frozen or stale buffer degrades to exact
    call-count behavior).  Demotion stays cycle-EWMA-driven either way.
    """

    policy: TierPolicy = field(default_factory=TierPolicy)
    clock: Callable[[], float] = time.monotonic
    #: highest tier this handle may run at (lowered by rejections)
    pinned_max: int = NUM_TIERS - 1
    pin_reason: str | None = None
    #: per-tier effective promotion thresholds (scaled by demotion back-off)
    thresholds: dict[int, int] = field(default_factory=dict)
    #: EWMA of observed per-call cycles, per tier actually executed
    cycles: dict[int, float] = field(default_factory=dict)
    install_time: dict[int, float] = field(default_factory=dict)
    demotions: int = 0
    worse_streak: int = 0
    #: calls are counted from here (rebased when the fixation key changes)
    base_calls: int = 0
    #: optional hotness source (e.g. :class:`EdgeProfile`); None = calls
    profile: ProfileSource | None = None

    def __post_init__(self) -> None:
        if not self.thresholds:
            self.thresholds = {t: self.policy.threshold(t)
                               for t in range(1, NUM_TIERS)}

    # -- promotion ---------------------------------------------------------

    def _effective(self, calls: int) -> int:
        """Hotness at ``calls``: rebased call count, profile-boosted."""
        eff = calls - self.base_calls
        if self.profile is not None:
            eff = max(eff, self.profile.hotness())
        return eff

    def next_target(self, calls: int, current: int,
                    in_flight: set[int] | frozenset[int] = frozenset(),
                    ) -> int | None:
        """The highest tier worth requesting at this call count, or None.

        Honors the pin, the (back-off-scaled) thresholds and tiers already
        compiling.  Returns the *highest* eligible tier: a handle that got
        hot while T1 was still queued goes straight for T2 rather than
        serializing the ladder.
        """
        eff = self._effective(calls)
        for tier in range(self.pinned_max, current, -1):
            if tier in in_flight:
                continue
            if eff >= self.thresholds[tier]:
                return tier
        return None

    def next_review(self, calls: int, current: int) -> int:
        """The call count at which the dispatch slow path should run next."""
        eff = self._effective(calls)
        pending = [self.thresholds[t] for t in range(current + 1,
                                                     self.pinned_max + 1)
                   if self.thresholds[t] > eff]
        if pending:
            if self.profile is None:
                return self.base_calls + min(pending)
            # profile heat grows between calls; re-check soon enough that
            # an eligible promotion is not deferred by a stale estimate,
            # but never later than the call-count baseline would
            gap = min(pending) - eff
            return calls + max(1, min(gap, REVIEW_INTERVAL))
        return calls + REVIEW_INTERVAL

    # -- measurement / demotion --------------------------------------------

    def observe(self, tier: int, cycles: float) -> int | None:
        """Fold one measured cost in; returns a demotion target or None."""
        alpha = self.policy.ewma_alpha
        prev = self.cycles.get(tier)
        self.cycles[tier] = cycles if prev is None else (
            alpha * cycles + (1.0 - alpha) * prev)
        if tier == 0:
            self.worse_streak = 0
            return None
        best_lower = min((t for t in self.cycles if t < tier),
                         key=lambda t: self.cycles[t], default=None)
        if best_lower is None:
            return None
        if self.cycles[tier] > self.cycles[best_lower] * (
                1.0 + self.policy.hysteresis):
            self.worse_streak += 1
        else:
            self.worse_streak = 0
            return None
        if self.worse_streak < self.policy.demote_after:
            return None
        installed = self.install_time.get(tier)
        if installed is not None and self.clock() - installed < \
                self.policy.min_dwell_seconds:
            return None
        return best_lower

    # -- lifecycle notifications -------------------------------------------

    def on_install(self, tier: int) -> None:
        self.install_time[tier] = self.clock()
        self.worse_streak = 0

    def on_reject(self, tier: int, reason: str) -> None:
        """A compile for ``tier`` failed or was gate-rejected: pin below it."""
        if tier - 1 < self.pinned_max:
            self.pinned_max = tier - 1
            self.pin_reason = reason

    def on_demote(self, from_tier: int, calls: int) -> None:
        """Back off the demoted tier's re-promotion threshold."""
        self.demotions += 1
        self.worse_streak = 0
        eff = max(calls - self.base_calls, self.thresholds[from_tier])
        self.thresholds[from_tier] = int(eff * self.policy.repromote_backoff)

    def rebase(self, calls: int) -> None:
        """Start counting hotness from scratch (fixation key superseded)."""
        self.base_calls = calls
        self.thresholds = {t: self.policy.threshold(t)
                           for t in range(1, NUM_TIERS)}
        self.cycles.clear()
        self.install_time.clear()
        self.worse_streak = 0
        self.pinned_max = NUM_TIERS - 1
        self.pin_reason = None
        if self.profile is not None:
            self.profile.rebase()

    def snapshot(self) -> dict[str, Any]:
        return {
            "pinned_max": self.pinned_max,
            "pin_reason": self.pin_reason,
            "thresholds": dict(self.thresholds),
            "cycles_ewma": dict(self.cycles),
            "demotions": self.demotions,
            "worse_streak": self.worse_streak,
            "profile": self.profile.describe() if self.profile else "calls",
        }
