"""Unit tests for the Section 6.3 case-study monitor."""

import pytest

from repro.monitor.casestudy import (
    ENGINEERING_GROUP,
    UNIVERSITY_LAB,
    simulate_day,
)


class TestSiteModels:
    def test_paper_configurations(self):
        assert UNIVERSITY_LAB.n_terminals == 50
        assert UNIVERSITY_LAB.machine.num_cpus == 2
        assert ENGINEERING_GROUP.n_terminals > 100
        assert ENGINEERING_GROUP.machine.num_cpus == 8

    def test_presence_curves_bounded(self):
        for site in (UNIVERSITY_LAB, ENGINEERING_GROUP):
            for hour in range(24):
                assert 0.0 <= site.presence(float(hour)) <= 1.0

    def test_lab_peaks_later_than_office(self):
        lab_peak = max(range(24), key=lambda h: UNIVERSITY_LAB.presence(float(h)))
        assert lab_peak >= 14  # afternoon/evening


class TestDayProfile:
    @pytest.fixture(scope="class")
    def lab_day(self):
        return simulate_day(UNIVERSITY_LAB, seed=3)

    @pytest.fixture(scope="class")
    def eng_day(self):
        return simulate_day(ENGINEERING_GROUP, seed=3)

    def test_shapes(self, lab_day):
        n = len(lab_day.times_hours)
        assert n == 24 * 12  # 5-minute windows
        assert len(lab_day.cpu_utilization) == n
        assert len(lab_day.net_mbps) == n
        assert len(lab_day.total_users) == n

    def test_lab_cpu_saturates(self, lab_day):
        assert lab_day.peak_cpu() == pytest.approx(1.0)

    def test_engineering_cpu_never_saturates(self, eng_day):
        assert eng_day.peak_cpu() < 0.95

    def test_network_below_5mbps(self, lab_day, eng_day):
        assert lab_day.peak_net_mbps() < 5.0
        assert eng_day.peak_net_mbps() < 5.0

    def test_active_fraction_of_total(self, lab_day, eng_day):
        assert lab_day.peak_active_users() < lab_day.peak_total_users()
        assert eng_day.peak_active_users() < 0.6 * eng_day.peak_total_users()

    def test_night_is_quiet(self, lab_day):
        # Windows covering 2-4 AM.
        night = [
            cpu
            for t, cpu in zip(lab_day.times_hours, lab_day.cpu_utilization)
            if 2.0 <= t <= 4.0
        ]
        assert max(night) < 0.6

    def test_deterministic_given_seed(self):
        a = simulate_day(UNIVERSITY_LAB, seed=9)
        b = simulate_day(UNIVERSITY_LAB, seed=9)
        assert a.cpu_utilization == b.cpu_utilization
        assert a.net_mbps == b.net_mbps

    def test_users_bounded_by_terminals(self, lab_day):
        assert lab_day.peak_total_users() <= UNIVERSITY_LAB.n_terminals
