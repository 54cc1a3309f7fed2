"""Unit tests for shared constants and helpers."""

import pytest

from repro import units


class TestConstants:
    def test_display_geometry_matches_study(self):
        assert units.DISPLAY_WIDTH == 1280
        assert units.DISPLAY_HEIGHT == 1024
        assert units.DISPLAY_PIXELS == 1280 * 1024

    def test_perception_window(self):
        assert units.PERCEPTION_LOW == pytest.approx(0.050)
        assert units.PERCEPTION_HIGH == pytest.approx(0.150)

    def test_link_speeds(self):
        assert units.ETHERNET_100 == 100e6
        assert units.ETHERNET_1G == 1e9


class TestHelpers:
    def test_bits(self):
        assert units.bits(10) == 80

    def test_transmission_delay_50kb_at_100mbps(self):
        # The paper's example: a 50KB update takes ~4ms at 100Mbps.
        delay = units.transmission_delay(50_000, units.ETHERNET_100)
        assert delay == pytest.approx(0.004)

    def test_transmission_delay_invalid_rate(self):
        with pytest.raises(ValueError):
            units.transmission_delay(100, 0)
