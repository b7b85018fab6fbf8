"""Deterministic (fake-clock) tests for the tier promotion/demotion policy."""

import pytest

from repro.tier import NUM_TIERS, T0, T1, T2, TierGovernor, TierPolicy
from repro.tier.policy import REVIEW_INTERVAL


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make(policy: TierPolicy | None = None,
         clock: FakeClock | None = None) -> TierGovernor:
    return TierGovernor(policy=policy or TierPolicy(promote_calls=(8, 64)),
                        clock=clock or FakeClock())


# -- promotion thresholds ---------------------------------------------------


def test_cold_handle_requests_nothing():
    gov = make()
    assert gov.next_target(0, T0) is None
    assert gov.next_target(7, T0) is None


def test_t1_threshold():
    gov = make()
    assert gov.next_target(8, T0) == T1
    assert gov.next_target(63, T0) == T1


def test_hot_handle_skips_straight_to_t2():
    # a handle that got hot while T1 was still queued goes for T2 directly
    gov = make()
    assert gov.next_target(64, T0) == T2


def test_in_flight_tier_not_rerequested():
    gov = make()
    assert gov.next_target(8, T0, in_flight={T1}) is None
    assert gov.next_target(64, T0, in_flight={T2}) == T1
    assert gov.next_target(64, T0, in_flight={T1, T2}) is None


def test_current_tier_upper_bounds_requests():
    gov = make()
    assert gov.next_target(1000, T2) is None


def test_next_review_targets_the_nearest_pending_threshold():
    gov = make()
    assert gov.next_review(0, T0) == 8
    assert gov.next_review(8, T0) == 64  # T1 threshold already crossed
    # everything resolved: steady-state cadence
    assert gov.next_review(100, T2) == 100 + REVIEW_INTERVAL


# -- hysteresis / no flapping ----------------------------------------------


def test_single_noisy_sample_does_not_demote():
    gov = make()
    gov.cycles[T0] = 100.0
    assert gov.observe(T1, 500.0) is None  # one bad sample: streak only
    assert gov.worse_streak == 1


def test_consecutive_worse_observations_demote():
    gov = make(TierPolicy(demote_after=3, hysteresis=0.10))
    gov.cycles[T0] = 100.0
    assert gov.observe(T1, 200.0) is None
    assert gov.observe(T1, 200.0) is None
    assert gov.observe(T1, 200.0) == T0


def test_within_hysteresis_margin_never_demotes():
    gov = make(TierPolicy(demote_after=1, hysteresis=0.10, ewma_alpha=1.0))
    gov.cycles[T0] = 100.0
    # 5% worse is inside the 10% band: not even a streak
    for _ in range(50):
        assert gov.observe(T1, 105.0) is None
    assert gov.worse_streak == 0


def test_good_sample_resets_the_streak():
    gov = make(TierPolicy(demote_after=3, hysteresis=0.10, ewma_alpha=1.0))
    gov.cycles[T0] = 100.0
    gov.observe(T1, 200.0)
    gov.observe(T1, 200.0)
    assert gov.worse_streak == 2
    assert gov.observe(T1, 90.0) is None  # better than T0: streak cleared
    assert gov.worse_streak == 0
    gov.observe(T1, 200.0)
    assert gov.observe(T1, 200.0) is None  # needs 3 consecutive again


def test_demotion_backoff_prevents_flapping():
    # T2 threshold far out so only T1's back-off is visible
    policy = TierPolicy(promote_calls=(8, 100_000), demote_after=1,
                        repromote_backoff=4.0, ewma_alpha=1.0)
    gov = make(policy)
    gov.cycles[T0] = 100.0
    assert gov.observe(T1, 200.0) == T0
    gov.on_demote(T1, calls=20)
    # the demoted tier's threshold quadrupled from the demotion point: the
    # very next threshold crossing cannot re-request it
    assert gov.thresholds[T1] == 80
    assert gov.next_target(21, T0) is None
    assert gov.next_target(79, T0) is None
    assert gov.next_target(80, T0) == T1


def test_min_dwell_blocks_demotion_until_clock_advances():
    clock = FakeClock()
    gov = make(TierPolicy(demote_after=1, min_dwell_seconds=5.0,
                          ewma_alpha=1.0), clock)
    gov.cycles[T0] = 100.0
    gov.on_install(T1)
    assert gov.observe(T1, 200.0) is None  # inside the dwell window
    clock.advance(10.0)
    assert gov.observe(T1, 200.0) == T0


def test_ewma_smoothing():
    gov = make(TierPolicy(ewma_alpha=0.5))
    gov.observe(T0, 100.0)
    gov.observe(T0, 200.0)
    assert gov.cycles[T0] == pytest.approx(150.0)


# -- gate-rejection pinning -------------------------------------------------


def test_rejection_pins_below_the_rejected_tier():
    gov = make()
    gov.on_reject(T2, "gate divergence")
    assert gov.pinned_max == T1
    assert gov.pin_reason == "gate divergence"
    assert gov.next_target(10_000, T0) == T1
    assert gov.next_target(10_000, T1) is None


def test_pin_never_rises():
    gov = make()
    gov.on_reject(T1, "compile failed")
    assert gov.pinned_max == T0
    gov.on_reject(T2, "later, higher rejection")
    assert gov.pinned_max == T0
    assert gov.pin_reason == "compile failed"


def test_pinned_handle_requests_nothing_past_the_pin():
    gov = make()
    gov.on_reject(T1, "nope")
    assert gov.next_target(1_000_000, T0) is None


# -- rebase (fixation-key supersession) -------------------------------------


def test_rebase_resets_hotness_and_pin():
    gov = make()
    gov.on_reject(T2, "old key diverged")
    gov.on_demote(T1, calls=500)
    gov.cycles[T1] = 42.0
    gov.rebase(calls=500)
    assert gov.pinned_max == NUM_TIERS - 1
    assert gov.pin_reason is None
    assert gov.cycles == {}
    assert gov.thresholds == {T1: 8, T2: 64}
    # hotness counts from the rebase point, not from zero
    assert gov.next_target(500, T0) is None
    assert gov.next_target(507, T0) is None
    assert gov.next_target(508, T0) == T1
