"""Unit tests for the console bandwidth allocator (Section 7)."""

import pytest

from repro.core.bandwidth import BandwidthAllocator
from repro.errors import BandwidthError
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
        assert allocator.capacity_bps - allocator.allocated_bps == pytest.approx(30 * MBPS)

    def test_small_requests_granted_before_large(self):
        allocator = BandwidthAllocator(100 * MBPS)
        allocator.request(1, 90 * MBPS)   # big video stream
        allocator.request(2, 5 * MBPS)    # interactive session
        # Ascending order: the 5Mbps fits first, and the 90Mbps still
        # fits within the remaining 95 — both fully granted.
        assert allocator.grant_for(2).satisfied
        assert allocator.grant_for(1).satisfied
        assert allocator.capacity_bps - allocator.allocated_bps == pytest.approx(5 * MBPS)

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
        assert allocator.capacity_bps - allocator.allocated_bps == pytest.approx(10 * MBPS)

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

