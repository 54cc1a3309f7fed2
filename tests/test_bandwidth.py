"""Unit tests for the console bandwidth allocator (Section 7)."""

import pytest

from repro.core.bandwidth import (
    DEFAULT_TIERS,
    BandwidthAllocator,
    QualityTier,
    TieredAllocator,
)
from repro.errors import BandwidthError
from repro.runcontext import use_run
from repro.telemetry.metrics import MetricsRegistry
from repro.units import MBPS


class TestBasics:
    def test_invalid_capacity(self):
        with pytest.raises(BandwidthError):
            BandwidthAllocator(0)

    def test_negative_request_rejected(self):
        allocator = BandwidthAllocator(100 * MBPS)
        with pytest.raises(BandwidthError):
            allocator.request(1, -1)

    def test_single_request_fully_granted(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 10 * MBPS)
        grant = allocator.grant_for(1)
        assert grant.satisfied
        assert grant.granted_bps == 10 * MBPS

    def test_unknown_client(self):
        allocator = BandwidthAllocator(100 * MBPS)
        with pytest.raises(BandwidthError):
            allocator.grant_for(99)

    def test_withdraw(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 10 * MBPS)
        allocator.withdraw(1)
        with pytest.raises(BandwidthError):
            allocator.grant_for(1)
        with pytest.raises(BandwidthError):
            allocator.withdraw(1)


class TestPaperPolicy:
    """The exact policy of Section 7: ascending grants, fair-share rest."""

    def test_all_fit(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 30 * MBPS)
        allocator.request(2, 40 * MBPS)
        assert allocator.grant_for(1).satisfied
        assert allocator.grant_for(2).satisfied
        assert allocator.unallocated_bps == pytest.approx(30 * MBPS)

    def test_small_requests_granted_before_large(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 90 * MBPS)   # big video stream
        allocator.request(2, 5 * MBPS)    # interactive session
        # Ascending order: the 5Mbps fits first, and the 90Mbps still
        # fits within the remaining 95 — both fully granted.
        assert allocator.grant_for(2).satisfied
        assert allocator.grant_for(1).satisfied
        assert allocator.unallocated_bps == pytest.approx(5 * MBPS)

    def test_fair_share_among_oversized(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 10 * MBPS)
        allocator.request(2, 80 * MBPS)
        allocator.request(3, 90 * MBPS)
        # 10 granted; 80 and 90 both exceed the remaining 90 at their
        # turn?  80 fits (90 remaining), then 90 gets the leftover 10.
        assert allocator.grant_for(1).satisfied
        assert allocator.grant_for(2).satisfied
        assert allocator.grant_for(3).granted_bps == pytest.approx(10 * MBPS)

    def test_fair_share_split(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 70 * MBPS)
        allocator.request(2, 80 * MBPS)
        # Neither fits at its turn once the first is considered: 70 fits,
        # 80 gets remainder 30.
        assert allocator.grant_for(1).satisfied
        assert allocator.grant_for(2).granted_bps == pytest.approx(30 * MBPS)

    def test_fair_share_when_first_already_too_big(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 120 * MBPS)
        allocator.request(2, 150 * MBPS)
        # Both exceed capacity at their turn -> equal shares of 100.
        assert allocator.grant_for(1).granted_bps == pytest.approx(50 * MBPS)
        assert allocator.grant_for(2).granted_bps == pytest.approx(50 * MBPS)

    def test_deterministic_tie_break(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(2, 60 * MBPS)
        allocator.request(1, 60 * MBPS)
        # Same size: lower client id is considered first.
        assert allocator.grant_for(1).satisfied
        assert allocator.grant_for(2).granted_bps == pytest.approx(40 * MBPS)

    def test_update_request_recomputes(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 90 * MBPS)
        allocator.request(2, 90 * MBPS)
        assert not allocator.grant_for(2).satisfied
        allocator.request(1, 5 * MBPS)
        assert allocator.grant_for(2).satisfied


class TestInvariants:
    def test_never_overallocates(self, rng):
        allocator = BandwidthAllocator(100 * MBPS)
        for client in range(20):
            allocator.request(client, float(rng.uniform(0, 60 * MBPS)))
        assert allocator.allocated_bps <= allocator.capacity_bps + 1e-6

    def test_grants_never_exceed_requests(self, rng):
        allocator = BandwidthAllocator(100 * MBPS)
        for client in range(20):
            allocator.request(client, float(rng.uniform(0, 60 * MBPS)))
        for grant in allocator.grants():
            assert grant.granted_bps <= grant.requested_bps + 1e-6

    def test_utilization_bounds(self):
        allocator = BandwidthAllocator(100 * MBPS)
        assert allocator.utilization() == 0.0
        allocator.request(1, 1000 * MBPS)
        assert allocator.utilization() == pytest.approx(1.0)


class TestEdgeCases:
    """Boundary conditions of the Section 7 policy."""

    def test_exact_fit_leaves_zero_bps_fair_shares(self):
        """A request consuming capacity exactly must not break the split."""
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 100 * MBPS)  # fits exactly, nothing remains
        allocator.request(2, 150 * MBPS)
        allocator.request(3, 200 * MBPS)
        assert allocator.grant_for(1).satisfied
        assert allocator.grant_for(2).granted_bps == 0.0
        assert allocator.grant_for(3).granted_bps == 0.0
        assert allocator.allocated_bps == pytest.approx(100 * MBPS)

    def test_zero_rate_request_is_satisfied_and_harmless(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 0.0)
        allocator.request(2, 60 * MBPS)
        assert allocator.grant_for(1).satisfied
        assert allocator.grant_for(1).granted_bps == 0.0
        assert allocator.grant_for(2).satisfied

    def test_shrinking_rerequest_frees_capacity(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 80 * MBPS)
        allocator.request(2, 80 * MBPS)
        assert not allocator.grant_for(2).satisfied
        allocator.request(1, 10 * MBPS)  # shrink, not a new client
        assert allocator.grant_for(1).satisfied
        assert allocator.grant_for(2).satisfied
        assert allocator.unallocated_bps == pytest.approx(10 * MBPS)

    def test_withdraw_during_contention_regrants_the_rest(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 90 * MBPS)
        allocator.request(2, 90 * MBPS)
        allocator.request(3, 5 * MBPS)
        assert not allocator.grant_for(2).satisfied
        allocator.withdraw(1)
        assert allocator.grant_for(2).satisfied
        assert allocator.grant_for(3).satisfied
        assert len(allocator.grants()) == 2


class TestQualityTier:
    def test_scale_bounds(self):
        with pytest.raises(BandwidthError):
            QualityTier("bad", 0.0)
        with pytest.raises(BandwidthError):
            QualityTier("bad", 1.5)

    def test_default_ladder_strictly_decreasing(self):
        scales = [tier.scale for tier in DEFAULT_TIERS]
        assert scales == sorted(scales, reverse=True)
        assert DEFAULT_TIERS[0].scale == 1.0


class TestTieredAllocatorConstruction:
    def test_requires_tiers(self):
        with pytest.raises(BandwidthError):
            TieredAllocator(10 * MBPS, tiers=())

    def test_requires_decreasing_scales(self):
        with pytest.raises(BandwidthError):
            TieredAllocator(
                10 * MBPS,
                tiers=(QualityTier("a", 0.5), QualityTier("b", 0.5)),
            )

    def test_requires_threshold_gap(self):
        with pytest.raises(BandwidthError):
            TieredAllocator(10 * MBPS, demote_pressure=0.2,
                            promote_pressure=0.3)

    def test_requires_positive_streaks(self):
        with pytest.raises(BandwidthError):
            TieredAllocator(10 * MBPS, demote_after=0)


class TestTieredAllocator:
    def make(self, capacity=10 * MBPS, **kw):
        kw.setdefault("demote_after", 2)
        kw.setdefault("promote_after", 3)
        return TieredAllocator(capacity, **kw)

    def test_starts_at_full_tier(self):
        tiered = self.make()
        tiered.request(1, 4 * MBPS)
        assert tiered.tier_of(1).name == "full"
        assert tiered.effective_rate(1) == pytest.approx(4 * MBPS)
        assert tiered.shortfall() == 0.0

    def test_demotes_largest_sender_after_streak(self):
        tiered = self.make()
        tiered.request(1, 30 * MBPS)  # the hog
        tiered.request(2, 2 * MBPS)
        assert tiered.observe(0.0) is None  # shortfall high, streak of 1
        transition = tiered.observe(0.0)
        assert transition == (1, "full", "progressive")
        assert tiered.tier_of(2).name == "full"  # small sender untouched
        assert tiered.stats.demotions == 1

    def test_queue_pressure_alone_can_demote(self):
        tiered = self.make(capacity=100 * MBPS)
        tiered.request(1, 10 * MBPS)  # fully granted: zero shortfall
        tiered.observe(0.9)
        transition = tiered.observe(0.9)
        assert transition is not None
        assert tiered.stats.demotions == 1

    def test_hysteresis_band_resets_both_streaks(self):
        tiered = self.make(capacity=100 * MBPS)
        tiered.request(1, 10 * MBPS)
        tiered.observe(0.9)
        tiered.observe(0.25)  # between promote (0.15) and demote (0.35)
        assert tiered.observe(0.9) is None  # streak restarted
        assert tiered.observe(0.9) is not None

    def test_parks_in_hysteresis_band_instead_of_flapping(self):
        tiered = self.make(capacity=10 * MBPS)
        tiered.request(1, 30 * MBPS)
        # Full-tier shortfall 0.67: two congested observations demote.
        tiered.observe(0.0)
        assert tiered.observe(0.0) == (1, "full", "progressive")
        # Progressive requests 13.5 against 10: shortfall 0.26 sits in
        # the hysteresis band — parked, neither demoted nor promoted.
        for _ in range(10):
            assert tiered.observe(0.0) is None
        assert tiered.tier_of(1).name == "progressive"

    def test_admission_check_blocks_oversized_promotion(self):
        tiered = self.make(capacity=10 * MBPS)
        tiered.request(1, 30 * MBPS)
        tiered.observe(0.0)
        tiered.observe(0.0)  # full -> progressive (shortfall-driven)
        # Bufferbloat pushes it the rest of the way down...
        tiered.observe(1.0)
        assert tiered.observe(1.0) == (1, "progressive", "thumbnail")
        # ...where the rate fits and the link goes quiet.  Even after
        # many clear observations the admission check refuses promotion:
        # progressive's restored request would sit at shortfall 0.26,
        # above the promote band, so the sender stays parked (no flap).
        for _ in range(12):
            assert tiered.observe(0.0) is None
        assert tiered.tier_of(1).name == "thumbnail"
        assert tiered.stats.promotions == 0

    def test_promotion_restores_full_when_it_fits(self):
        tiered = self.make(capacity=10 * MBPS)
        tiered.request(1, 30 * MBPS)
        tiered.observe(0.9)
        tiered.observe(0.9)
        assert tiered.tier_of(1).name == "progressive"
        tiered.request(1, 5 * MBPS)  # demand drops (user stopped scrolling)
        for _ in range(2):
            assert tiered.observe(0.0) is None
        assert tiered.observe(0.0) == (1, "progressive", "full")
        assert tiered.stats.promotions == 1

    def test_withdraw_forgets_tier_state(self):
        tiered = self.make()
        tiered.request(1, 30 * MBPS)
        tiered.observe(0.9)
        tiered.observe(0.9)
        tiered.withdraw(1)
        with pytest.raises(BandwidthError):
            tiered.tier_of(1)
        tiered.request(1, 1 * MBPS)
        assert tiered.tier_of(1).name == "full"  # fresh start

    def test_negative_pressure_rejected(self):
        tiered = self.make()
        with pytest.raises(BandwidthError):
            tiered.observe(-0.1)

    def test_transitions_recorded_in_stats_and_telemetry(self):
        registry = MetricsRegistry()
        with use_run(registry=registry):
            tiered = self.make()
        tiered.request(1, 30 * MBPS)
        tiered.observe(0.9)
        tiered.observe(0.9)
        assert tiered.stats.transitions == [(1, "full", "progressive")]
        assert tiered.stats.peak_pressure == pytest.approx(0.9)
        assert tiered.stats.observations == 2
        counter = registry.counter(
            "bw.tier.transitions", direction="demote", tier="progressive"
        )
        assert counter.value == 1
