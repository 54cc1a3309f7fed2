"""Unit tests for server machines, the SLIM driver, and the x11perf model."""

import numpy as np
import pytest

from repro.core.encoder import SlimEncoder
from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Rect
from repro.server.host import E4500, ULTRA_2
from repro.server.slimdriver import SlimDriver
from repro.server.xserver import XPerfSuite, build_default_suite, xmark
from repro.core import commands as cmd


class TestMachineSpec:
    def test_speed_factor(self):
        assert ULTRA_2.speed_factor == pytest.approx(1.0)
        assert E4500.speed_factor == pytest.approx(336 / 296)


class TestSlimDriver:
    def test_update_produces_record(self):
        driver = SlimDriver()
        ops = [PaintOp(PaintKind.FILL, Rect(0, 0, 64, 64), color=(1, 2, 3))]
        record = driver.update(1.5, ops)
        assert record.time == 1.5
        assert record.pixels == 64 * 64
        assert record.commands_by_opcode == {"FILL": 1}
        assert record.wire_bytes > 0
        assert record.service_time > 0

    def test_baselines_tracked(self):
        driver = SlimDriver()
        ops = [PaintOp(PaintKind.IMAGE, Rect(0, 0, 32, 32))]
        record = driver.update(0.0, ops)
        assert record.x_bytes > record.pixels * 3  # X pads to 4B/px
        assert record.raw_bytes == record.pixels * 3

    def test_baselines_optional(self):
        driver = SlimDriver(track_baselines=False)
        record = driver.update(0.0, [PaintOp(PaintKind.FILL, Rect(0, 0, 4, 4))])
        assert record.x_bytes == 0
        assert record.raw_bytes == 0

    def test_send_callback_receives_commands(self):
        sent = []
        driver = SlimDriver(send=sent.append)
        driver.update(0.0, [PaintOp(PaintKind.FILL, Rect(0, 0, 4, 4))])
        assert len(sent) == 1
        assert isinstance(sent[0], cmd.FillCommand)

    def test_materialized_driver_uses_framebuffer(self):
        fb = FrameBuffer(64, 48)
        op = PaintOp(PaintKind.TEXT, Rect(0, 0, 40, 26), seed=1)
        driver = SlimDriver(
            encoder=SlimEncoder(materialize=True), framebuffer=fb
        )
        record = driver.update(0.0, [op])  # paints, then encodes
        assert "BITMAP" in record.commands_by_opcode

    def test_stats_accumulate(self):
        driver = SlimDriver()
        for t in range(3):
            driver.update(float(t), [PaintOp(PaintKind.FILL, Rect(0, 0, 8, 8))])
        assert driver.stats.updates == 3
        assert driver.stats.commands == 3
        assert driver.stats.encode_cpu_seconds > 0

    def test_mean_bandwidth(self):
        driver = SlimDriver()
        driver.update(0.0, [PaintOp(PaintKind.FILL, Rect(0, 0, 8, 8))])
        assert driver.mean_bandwidth_bps(10.0) == pytest.approx(
            driver.stats.wire_bytes * 8 / 10.0
        )

    def test_encode_overhead_small_fraction(self):
        """Server-side encode should stay near the paper's 1.7%."""
        driver = SlimDriver()
        rng = np.random.default_rng(0)
        from repro.workloads.apps import NETSCAPE

        display = NETSCAPE.display_model()
        total_cpu = 0.0
        for i in range(200):
            ops = display.sample_update(rng, seed=i)
            record = driver.update(i * 0.5, ops)
            total_cpu += NETSCAPE.cpu_per_event + NETSCAPE.cpu_per_pixel * record.pixels
        fraction = driver.stats.encode_cpu_seconds / (
            total_cpu + driver.stats.encode_cpu_seconds
        )
        assert fraction < 0.08


class TestXPerf:
    def test_suite_nonempty_and_consistent(self):
        suite = XPerfSuite()
        assert len(suite.ops) >= 8
        for op in suite.ops:
            assert op.wire_nbytes > 0
            assert op.rate(send=False) > op.rate(send=True)

    def test_xmark_without_send_matches_paper(self):
        assert xmark(send=False) == pytest.approx(7.505, rel=0.10)

    def test_xmark_with_send_matches_paper(self):
        assert xmark(send=True) == pytest.approx(3.834, rel=0.10)

    def test_transmission_roughly_halves_throughput(self):
        suite = XPerfSuite()
        ratio = suite.xmark(send=False) / suite.xmark(send=True)
        assert 1.6 < ratio < 2.4

    def test_byte_heavy_ops_hit_hardest_by_send(self):
        suite = XPerfSuite()
        degradation = {
            op.name: op.rate(send=False) / op.rate(send=True) for op in suite.ops
        }
        # Image transfers and many-command ops degrade far more than
        # accelerated fills/copies.
        assert degradation["put-image-500"] > 3 * degradation["rect-fill-500"]
        assert degradation["segments-100x10"] > 3 * degradation["rect-fill-500"]
        assert degradation["scroll-500x500"] < 1.5

    def test_reference_rates_positive(self):
        for op in build_default_suite():
            assert op.reference_rate() > 0
