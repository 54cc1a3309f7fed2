"""Unit tests for the Table 5 cost model."""

import pytest

from repro.core import commands as cmd
from repro.core.commands import Opcode
from repro.core.costs import (
    ConsoleCostModel,
    CostEntry,
    SUN_RAY_1_COSTS,
    _interpolate_cscs,
)
from repro.errors import ProtocolError
from repro.framebuffer import Rect


class TestCostEntry:
    def test_linear_model(self):
        entry = CostEntry(startup_ns=1000, per_pixel_ns=10)
        assert entry.service_time(0) == pytest.approx(1e-6)
        assert entry.service_time(100) == pytest.approx(2e-6)

    def test_negative_pixels_rejected(self):
        with pytest.raises(ProtocolError):
            CostEntry(1, 1).service_time(-1)


class TestPublishedTable:
    def test_table5_values_verbatim(self):
        assert SUN_RAY_1_COSTS[Opcode.SET] == CostEntry(5000.0, 270.0)
        assert SUN_RAY_1_COSTS[Opcode.BITMAP] == CostEntry(11080.0, 22.0)
        assert SUN_RAY_1_COSTS[Opcode.FILL] == CostEntry(5000.0, 2.0)
        assert SUN_RAY_1_COSTS[Opcode.COPY] == CostEntry(5000.0, 10.0)
        assert SUN_RAY_1_COSTS[(Opcode.CSCS, 16)] == CostEntry(24000.0, 205.0)
        assert SUN_RAY_1_COSTS[(Opcode.CSCS, 5)] == CostEntry(24000.0, 150.0)

    def test_fill_is_cheapest_per_pixel(self):
        per_pixel = {
            k: v.per_pixel_ns
            for k, v in SUN_RAY_1_COSTS.items()
            if not isinstance(k, tuple)
        }
        assert min(per_pixel, key=per_pixel.get) == Opcode.FILL


class TestServiceTimes:
    def setup_method(self):
        self.model = ConsoleCostModel()

    def test_set_cost(self):
        c = cmd.SetCommand(rect=Rect(0, 0, 100, 100))
        assert self.model.service_time(c) == pytest.approx(
            (5000 + 270 * 10_000) * 1e-9
        )

    def test_fill_cost_dominated_by_startup(self):
        c = cmd.FillCommand(rect=Rect(0, 0, 10, 10))
        assert self.model.service_time(c) == pytest.approx((5000 + 200) * 1e-9)

    def test_cscs_uses_source_pixels(self):
        c = cmd.CscsCommand(
            rect=Rect(0, 0, 640, 480), src_w=320, src_h=240, bits_per_pixel=16
        )
        assert self.model.billable_pixels(c) == 320 * 240
        assert self.model.service_time(c) == pytest.approx(
            (24000 + 205 * 320 * 240) * 1e-9
        )

    def test_cscs_interpolation_for_6bpp(self):
        entry = _interpolate_cscs(SUN_RAY_1_COSTS, 6)
        assert 150.0 < entry.per_pixel_ns < 178.0

    def test_cscs_interpolation_clamps(self):
        low = _interpolate_cscs(SUN_RAY_1_COSTS, 3)
        high = _interpolate_cscs(SUN_RAY_1_COSTS, 20)
        assert low.per_pixel_ns == 150.0
        assert high.per_pixel_ns == 205.0

    def test_input_messages_cheap(self):
        assert self.model.service_time(cmd.KeyEvent(code=1, pressed=True)) < 1e-5

    def test_sustained_rate_inverse_of_service(self):
        c = cmd.FillCommand(rect=Rect(0, 0, 10, 10))
        assert self.model.sustained_rate(c) == pytest.approx(
            1.0 / self.model.service_time(c)
        )

    def test_missing_entry_raises(self):
        model = ConsoleCostModel(costs={Opcode.FILL: CostEntry(1, 1)})
        with pytest.raises(ProtocolError):
            model.service_time(cmd.SetCommand(rect=Rect(0, 0, 2, 2)))

    def test_custom_cscs_table_required_for_interpolation(self):
        model = ConsoleCostModel(costs={Opcode.SET: CostEntry(1, 1)})
        with pytest.raises(ProtocolError):
            model.service_time(cmd.CscsCommand(rect=Rect(0, 0, 2, 2)))
