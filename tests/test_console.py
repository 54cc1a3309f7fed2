"""Unit tests for the console and its micro-op timing model."""

import pytest

from repro.core import commands as cmd
from repro.core.commands import Opcode
from repro.core.costs import SUN_RAY_1_COSTS, ConsoleCostModel
from repro.core.wire import WireCodec
from repro.console import Console, MicroOpModel
from repro.console.calibration import (
    calibrate_command,
    fit_linear_cost,
    probe_sustained_rate,
)
from repro.errors import ProtocolError
from repro.framebuffer import Rect
from repro.netsim import Network, Packet, Simulator
from repro.units import ETHERNET_100


class TestMicroOpModel:
    def setup_method(self):
        self.model = MicroOpModel()

    def test_derived_slopes_match_table5(self):
        for opcode in (Opcode.SET, Opcode.BITMAP, Opcode.FILL, Opcode.COPY):
            derived = self.model.derived_per_pixel_ns(opcode)
            published = SUN_RAY_1_COSTS[opcode].per_pixel_ns
            assert derived == pytest.approx(published, rel=0.02)

    def test_derived_cscs_slopes_match_table5(self):
        for bpp in (16, 12, 8, 5):
            derived = self.model.derived_per_pixel_ns(Opcode.CSCS, bpp)
            published = SUN_RAY_1_COSTS[(Opcode.CSCS, bpp)].per_pixel_ns
            assert derived == pytest.approx(published, rel=0.01)

    def test_cscs_6bpp_interpolates(self):
        six = self.model.derived_per_pixel_ns(Opcode.CSCS, 6)
        assert 150 < six < 178

    def test_row_overhead_absorbed_not_in_derivation(self):
        command = cmd.SetCommand(rect=Rect(0, 0, 10, 100))  # tall & thin
        base = (
            self.model.derived_startup_ns(Opcode.SET)
            + self.model.derived_per_pixel_ns(Opcode.SET) * 1000
        ) * 1e-9
        assert self.model.service_time(command) > base

    def test_non_display_opcode_rejected(self):
        with pytest.raises(ProtocolError):
            self.model.derived_startup_ns(Opcode.KEY_EVENT)


class TestCalibration:
    def test_probe_matches_model_rate(self):
        console = Console(timing=MicroOpModel())
        command = cmd.FillCommand(rect=Rect(0, 0, 64, 64))
        rate = probe_sustained_rate(console, command)
        expected = 1.0 / console.service_time(command)
        assert rate == pytest.approx(expected, rel=1e-6)

    def test_fit_recovers_exact_line(self):
        samples = [(100, 5000 + 270 * 100), (10_000, 5000 + 270 * 10_000)]
        startup, slope, rms = fit_linear_cost(samples)
        assert startup == pytest.approx(5000)
        assert slope == pytest.approx(270)
        assert rms < 1e-6

    def test_fit_needs_two_samples(self):
        with pytest.raises(ProtocolError):
            fit_linear_cost([(1, 1.0)])

    @pytest.mark.parametrize(
        "key",
        [Opcode.SET, Opcode.BITMAP, Opcode.FILL, Opcode.COPY, (Opcode.CSCS, 16), (Opcode.CSCS, 5)],
    )
    def test_calibration_lands_on_table5(self, key):
        result = calibrate_command(key)
        reference = SUN_RAY_1_COSTS[key]
        assert result.startup_ns == pytest.approx(reference.startup_ns, rel=0.05)
        assert result.per_pixel_ns == pytest.approx(reference.per_pixel_ns, rel=0.05)


class TestStandAloneConsole:
    def test_process_applies_pixels_and_charges_time(self):
        console = Console(64, 48)
        service = console.process(
            cmd.FillCommand(rect=Rect(0, 0, 8, 8), color=(1, 2, 3))
        )
        assert console.framebuffer.is_uniform(Rect(0, 0, 8, 8)) == (1, 2, 3)
        assert service > 0
        assert console.stats.busy_time == pytest.approx(service)

    def test_published_cost_model_accepted(self):
        console = Console(64, 48, timing=ConsoleCostModel())
        service = console.process(cmd.FillCommand(rect=Rect(0, 0, 10, 10)))
        assert service == pytest.approx((5000 + 200) * 1e-9)

    def test_input_messages_free(self):
        console = Console(64, 48)
        assert console.service_time(cmd.KeyEvent(code=1, pressed=True)) == 0.0

    def test_offered_rate_knee(self):
        console = Console()
        command = cmd.SetCommand(rect=Rect(0, 0, 64, 64))
        service = console.service_time(command)
        assert console.offered_rate_sustainable(command, 0.5 / service)
        assert not console.offered_rate_sustainable(command, 2.0 / service)

    def test_record_service_times(self):
        console = Console(64, 48, record_service_times=True)
        console.process(cmd.FillCommand(rect=Rect(0, 0, 4, 4)))
        console.process(cmd.KeyEvent(code=1, pressed=True))
        assert len(console.stats.service_times) == 1

    def test_standalone_enqueue_drains_synchronously(self):
        console = Console(64, 48)
        console.enqueue(cmd.FillCommand(rect=Rect(0, 0, 4, 4), color=(5, 5, 5)))
        assert console.queue_depth == 0
        assert console.framebuffer.pixel(0, 0) == (5, 5, 5)

    def test_key_and_mouse_events_forwarded(self):
        console = Console(64, 48)
        seen = []
        console.on_input = seen.append
        console.key_event(65, True)
        console.mouse_event(10, 20, 1)
        assert len(seen) == 2
        assert isinstance(seen[0], cmd.KeyEvent)
        assert isinstance(seen[1], cmd.MouseEvent)


class TestTimedConsole:
    def test_decode_takes_simulated_time(self):
        sim = Simulator()
        console = Console(64, 48, sim=sim)
        console.enqueue(cmd.FillCommand(rect=Rect(0, 0, 8, 8), color=(1, 1, 1)))
        assert console.framebuffer.pixel(0, 0) == (0, 0, 0)  # not yet
        sim.run()
        assert console.framebuffer.pixel(0, 0) == (1, 1, 1)
        assert sim.now == pytest.approx(console.service_time(
            cmd.FillCommand(rect=Rect(0, 0, 8, 8))
        ))

    def test_queue_overflow_drops(self):
        sim = Simulator()
        console = Console(64, 48, sim=sim, queue_limit=2)
        command = cmd.SetCommand(rect=Rect(0, 0, 64, 48))
        results = [console.enqueue(command) for _ in range(5)]
        # One decoding + two queued; the rest dropped.
        assert results.count(False) == 2
        assert console.stats.commands_dropped == 2
        sim.run()
        assert console.stats.commands_processed == 3

    def test_full_queue_drains_in_arrival_order(self):
        sim = Simulator()
        console = Console(64, 48, sim=sim, record_service_times=True)
        decoded = []
        console.decoder.apply = decoded.append
        # One decoding, 512 queued, the 514th dropped.
        offered = [
            cmd.FillCommand(rect=Rect(0, 0, 1 + i % 64, 1 + i % 48), color=(i % 256, 0, 0))
            for i in range(514)
        ]
        results = [console.enqueue(command) for command in offered]
        assert results == [True] * 513 + [False]
        assert console.queue_depth == 512
        sim.run()
        assert decoded == offered[:513]
        assert console.queue_depth == 0
        assert console.stats.commands_processed == 513
        assert console.stats.commands_dropped == 1
        assert console.stats.service_times == [
            console.service_time(command) for command in offered[:513]
        ]

    def test_receives_datagrams_from_network(self):
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        console = Console(64, 48, sim=sim, address="console")
        network.attach(console.make_endpoint())
        network.attach(__import__("repro.netsim", fromlist=["Endpoint"]).Endpoint("server"))
        codec = WireCodec()
        for datagram in codec.fragment(
            cmd.FillCommand(rect=Rect(0, 0, 8, 8), color=(3, 3, 3))
        ):
            network.send(
                Packet(src="server", dst="console", nbytes=datagram.wire_nbytes, payload=datagram)
            )
        sim.run()
        assert console.framebuffer.is_uniform(Rect(0, 0, 8, 8)) == (3, 3, 3)

    def test_accounting_only_commands_charge_time_without_pixels(self):
        sim = Simulator()
        console = Console(64, 48, sim=sim)
        console.enqueue(cmd.SetCommand(rect=Rect(0, 0, 32, 32)))
        sim.run()
        assert console.stats.commands_processed == 1
        assert (console.framebuffer.pixels == 0).all()


class TestCalibrationEdges:
    def test_probe_floor_failure(self):
        """A command slower than the floor rate is reported, not looped."""
        from repro.core.costs import ConsoleCostModel, CostEntry
        from repro.core.commands import Opcode

        # An absurdly slow console: 10 seconds per command.
        slow = Console(timing=ConsoleCostModel(costs={Opcode.FILL: CostEntry(1e10, 0)}))
        with pytest.raises(ProtocolError):
            probe_sustained_rate(slow, cmd.FillCommand(rect=Rect(0, 0, 2, 2)))

    def test_custom_edge_ladder(self):
        result = calibrate_command(Opcode.FILL, edges=(8, 64, 256))
        assert len(result.samples) == 3
