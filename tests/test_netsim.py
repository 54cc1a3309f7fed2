"""Unit tests for the discrete-event engine and the network fabric."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.netsim import (
    Endpoint,
    GilbertElliottLoss,
    Link,
    Network,
    Packet,
    Simulator,
    Switch,
)
from repro.netsim.transport import _split_rng
from repro.units import ETHERNET_100, MBPS, transmission_delay


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.2, lambda: order.append("b"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.schedule(0.3, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == pytest.approx(0.3)

    def test_fifo_tie_break(self):
        sim = Simulator()
        order = []
        sim.schedule(0.1, lambda: order.append(1))
        sim.schedule(0.1, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_epsilon_negative_delay_clamped_to_now(self):
        # Float arithmetic like (deadline - now) can come out a hair
        # below zero; that is round-off, not a scheduling bug, and must
        # not kill the run.
        sim = Simulator()
        sim.schedule(0.1 + 0.2, lambda: None)  # 0.30000000000000004
        sim.run()
        fired = []
        sim.schedule(-1e-12, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [sim.now]
        # Just past the epsilon is still an error.
        with pytest.raises(SimulationError):
            sim.schedule(-1e-6, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(1.5)
        assert fired == [1]
        assert sim.now == pytest.approx(1.5)
        assert sim.pending == 1

    def test_run_until_stop_does_not_teleport_clock(self):
        """stop() mid-slice must leave the clock at the aborted event."""
        sim = Simulator()
        fired = []
        sim.schedule(0.1, lambda: (fired.append(1), sim.stop()))
        sim.schedule(0.2, lambda: fired.append(2))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == pytest.approx(0.1)  # not teleported to 5.0
        assert sim.pending == 1
        # Resuming still runs the leftover event at its original time.
        times = []
        sim.schedule(0.0, lambda: times.append(sim.now))
        sim.run_until(5.0)
        assert sim.now == pytest.approx(5.0)
        assert fired[-1] == 2

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(0.1, lambda: chain(n + 1))

        sim.schedule(0.1, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]

    def test_stop(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, lambda: (fired.append(1), sim.stop()))
        sim.schedule(0.2, lambda: fired.append(2))
        sim.run()
        assert fired == [(1, None)] or fired[0] is not None  # stop consumed
        assert len(fired) == 1

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i * 0.1 + 0.1, lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4

    def test_stop_while_idle_does_not_poison_next_run(self):
        """A stray stop() outside any run must not abort the next one."""
        sim = Simulator()
        sim.stop()  # nothing running: a no-op, not a time bomb
        fired = []
        sim.schedule(0.1, lambda: fired.append(1))
        sim.schedule(0.2, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]

    def test_stop_after_completed_run_is_inert(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.run()
        sim.stop()  # late stop, after the run already drained
        fired = []
        sim.schedule(0.1, lambda: fired.append(sim.now))
        sim.run_until(1.0)
        assert fired and sim.now == pytest.approx(1.0)


class TestLink:
    def make_link(self, rate=ETHERNET_100, **kw):
        sim = Simulator()
        delivered = []
        link = Link(sim, rate, 5e-6, deliver=delivered.append, **kw)
        return sim, link, delivered

    def test_serialization_plus_propagation(self):
        sim, link, delivered = self.make_link()
        link.send(Packet(src="a", dst="b", nbytes=1500))
        sim.run()
        expected = transmission_delay(1500, ETHERNET_100) + 5e-6
        assert sim.now == pytest.approx(expected)
        assert len(delivered) == 1

    def test_fifo_queueing(self):
        sim, link, delivered = self.make_link(rate=1 * MBPS)
        times = []
        link.deliver = lambda p: times.append(sim.now)
        for _ in range(3):
            link.send(Packet(src="a", dst="b", nbytes=1250))  # 10ms each
        sim.run()
        assert times == pytest.approx([0.010005, 0.020005, 0.030005], rel=1e-3)
        assert link.stats.packets_sent == 3

    def test_queue_delay_tracked(self):
        sim, link, _ = self.make_link(rate=1 * MBPS)
        link.send(Packet(src="a", dst="b", nbytes=1250))
        link.send(Packet(src="a", dst="b", nbytes=1250))
        sim.run()
        assert link.stats.mean_queue_delay() == pytest.approx(0.005, rel=1e-2)

    def test_queue_limit_drops(self):
        sim, link, delivered = self.make_link(
            rate=1 * MBPS, queue_limit_bytes=2000
        )
        sent = [link.send(Packet(src="a", dst="b", nbytes=1500)) for _ in range(3)]
        sim.run()
        assert sent.count(False) >= 1
        assert link.stats.packets_dropped >= 1
        assert link.stats.packets_lost == 0  # congestion, not corruption

    def test_loss_requires_rng(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Link(sim, 1e6, 0, deliver=lambda p: None, loss_rate=0.5)

    def test_lossy_link_drops_fraction(self, rng):
        sim = Simulator()
        delivered = []
        link = Link(
            sim, 1e9, 0, deliver=delivered.append, loss_rate=0.5, rng=rng
        )
        for _ in range(200):
            link.send(Packet(src="a", dst="b", nbytes=100))
        sim.run()
        assert 60 < len(delivered) < 140
        # Wire corruption is accounted separately from queue tail-drops.
        assert link.stats.packets_lost == 200 - len(delivered)
        assert link.stats.packets_dropped == 0

    def test_utilization(self):
        sim, link, _ = self.make_link(rate=1 * MBPS)
        link.send(Packet(src="a", dst="b", nbytes=1250))
        sim.run()
        assert 0.9 < link.utilization(elapsed=0.010) <= 1.0

    def test_invalid_rate(self):
        with pytest.raises(SimulationError):
            Link(Simulator(), 0, 0, deliver=lambda p: None)

    def test_utilization_prorates_in_flight_packet(self):
        """Sampling mid-serialization must not credit the whole packet.

        busy_time used to be credited at transmission *start*, so a
        monitor sampling halfway through a long packet saw utilization
        above the truth (clamped to 1.0).
        """
        sim, link, _ = self.make_link(rate=1 * MBPS)
        link.send(Packet(src="a", dst="b", nbytes=1250))  # 10 ms on wire
        sim.run_until(0.004)
        # 4 ms of a 10 ms serialization elapsed: half of an 8 ms window.
        assert link.utilization(elapsed=0.008) == pytest.approx(0.5, rel=0.01)
        sim.run()
        assert link.utilization(elapsed=0.010005) <= 1.0
        assert link.stats.busy_time == pytest.approx(0.010, rel=1e-6)

    def test_jitter_requires_rng(self):
        with pytest.raises(SimulationError):
            Link(Simulator(), 1e6, 0, deliver=lambda p: None, jitter=0.001)

    def test_jitter_varies_delay_within_bounds(self, rng):
        sim = Simulator()
        times = []
        link = Link(
            sim,
            1e9,
            propagation_delay=0.010,
            deliver=lambda p: times.append(sim.now - p.created_at),
            jitter=0.005,
            rng=rng,
        )
        for i in range(50):
            packet = Packet(src="a", dst="b", nbytes=125)
            packet.created_at = i * 0.1
            sim.schedule_at(i * 0.1, lambda p=packet: link.send(p))
        sim.run()
        serialization = transmission_delay(125, 1e9)
        assert len(times) == 50
        for delay in times:
            assert 0.010 <= delay - serialization <= 0.015 + 1e-9
        assert max(times) - min(times) > 0.001  # actually varies


class TestGilbertElliott:
    def test_probability_validation(self):
        with pytest.raises(SimulationError):
            GilbertElliottLoss(1.5, 0.5, 0.0, 0.5)
        with pytest.raises(SimulationError):
            GilbertElliottLoss(0.1, 0.5, -0.1, 0.5)

    def test_absorbing_bad_state_rejected(self):
        with pytest.raises(SimulationError):
            GilbertElliottLoss(0.1, 0.0, 0.0, 0.5)

    def test_mean_loss_rate_stationary(self):
        chain = GilbertElliottLoss(0.05, 0.2, 0.01, 0.9)
        # bad share = 0.05 / 0.25 = 0.2
        assert chain.mean_loss_rate() == pytest.approx(0.2 * 0.9 + 0.8 * 0.01)

    def test_never_entering_bad_state(self):
        chain = GilbertElliottLoss(0.0, 0.0, 0.02, 0.9)
        assert chain.mean_loss_rate() == pytest.approx(0.02)

    def test_losses_are_bursty(self, rng):
        """P(loss | previous loss) must far exceed the marginal rate."""
        chain = GilbertElliottLoss(0.05, 0.2, 0.01, 0.9)
        draws = [chain.sample(rng) for _ in range(30_000)]
        overall = np.mean(draws)
        after_loss = [b for a, b in zip(draws, draws[1:]) if a]
        assert overall == pytest.approx(chain.mean_loss_rate(), rel=0.15)
        assert np.mean(after_loss) > 3 * overall

    def test_fresh_resets_state_keeps_params(self):
        chain = GilbertElliottLoss(0.05, 0.2, 0.01, 0.9)
        chain.bad = True
        copy = chain.fresh()
        assert copy is not chain
        assert not copy.bad
        assert copy.p_enter_bad == chain.p_enter_bad
        assert copy.loss_bad == chain.loss_bad

    def test_link_burst_loss_requires_rng(self):
        with pytest.raises(SimulationError):
            Link(
                Simulator(),
                1e6,
                0,
                deliver=lambda p: None,
                burst_loss=GilbertElliottLoss(0.05, 0.2, 0.01, 0.9),
            )

    def test_link_burst_loss_rate_matches_chain(self, rng):
        sim = Simulator()
        delivered = []
        chain = GilbertElliottLoss(0.05, 0.2, 0.01, 0.9)
        link = Link(
            sim, 1e9, 0, deliver=delivered.append, burst_loss=chain, rng=rng
        )
        n = 5000
        for _ in range(n):
            link.send(Packet(src="a", dst="b", nbytes=100))
        sim.run()
        observed = 1 - len(delivered) / n
        assert observed == pytest.approx(chain.mean_loss_rate(), abs=0.05)
        assert link.stats.packets_lost == n - len(delivered)


class TestSwitchAndNetwork:
    def test_switch_routes_by_destination(self):
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        got = {"b": [], "c": []}
        network.attach(Endpoint("a"))
        network.attach(Endpoint("b", on_receive=got["b"].append))
        network.attach(Endpoint("c", on_receive=got["c"].append))
        network.send(Packet(src="a", dst="b", nbytes=100))
        network.send(Packet(src="a", dst="c", nbytes=100))
        sim.run()
        assert len(got["b"]) == 1
        assert len(got["c"]) == 1

    def test_unknown_destination_rejected(self):
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        network.attach(Endpoint("a"))
        with pytest.raises(SimulationError):
            network.send(Packet(src="a", dst="ghost", nbytes=100))

    def test_unknown_source_rejected(self):
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        network.attach(Endpoint("a"))
        with pytest.raises(SimulationError):
            network.send(Packet(src="ghost", dst="a", nbytes=100))

    def test_duplicate_address_rejected(self):
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        network.attach(Endpoint("a"))
        with pytest.raises(SimulationError):
            network.attach(Endpoint("a"))

    def test_asymmetric_rates(self):
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        network.attach(Endpoint("server"), rate_bps=1e9)
        network.attach(Endpoint("console"))
        assert network.uplink("server").rate_bps == 1e9
        assert network.uplink("console").rate_bps == ETHERNET_100

    def test_rtt_through_switch(self):
        """A 64B request + 1200B reply RTT is well under a millisecond."""
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        done = {}

        def server_rx(packet):
            network.send(Packet(src="server", dst="console", nbytes=1200))

        def console_rx(packet):
            done["rtt"] = sim.now

        network.attach(Endpoint("console", on_receive=console_rx))
        network.attach(Endpoint("server", on_receive=server_rx))
        network.send(Packet(src="console", dst="server", nbytes=64))
        sim.run()
        assert done["rtt"] < 0.001

    def test_endpoint_counters(self):
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        sink = network.attach(Endpoint("sink"))
        network.attach(Endpoint("src"))
        network.send(Packet(src="src", dst="sink", nbytes=500))
        sim.run()
        assert sink.packets_received == 1
        assert sink.bytes_received == 500

    def test_switch_counts_unrouteable(self):
        sim = Simulator()
        switch = Switch(sim)
        switch.ingress(Packet(src="a", dst="nowhere", nbytes=10))
        sim.run()
        assert switch.packets_unrouteable == 1

    def test_split_rng_streams_are_independent(self):
        up, down = _split_rng(np.random.default_rng(7))
        assert up is not down
        assert list(up.integers(0, 1 << 30, 8)) != list(
            down.integers(0, 1 << 30, 8)
        )
        assert _split_rng(None) == (None, None)

    def test_direction_loss_streams_do_not_couple(self):
        """Reverse-path traffic must not shift the forward loss pattern.

        attach() used to hand the *same* generator to both directions of
        the link pair, so every reverse-path packet advanced the forward
        path's loss stream — NACK volume changed which display packets
        died.  With per-direction streams the uplink's fate depends only
        on the uplink's own draw sequence.
        """

        def uplink_survivors(with_reverse_traffic):
            sim = Simulator()
            network = Network(sim, default_rate_bps=ETHERNET_100)
            got = []
            network.attach(
                Endpoint("server", on_receive=lambda p: got.append(p.payload))
            )
            network.attach(
                Endpoint("console"),
                loss_rate=0.3,
                rng=np.random.default_rng(99),
            )
            for index in range(200):
                network.send(
                    Packet(src="console", dst="server", nbytes=100, payload=index)
                )
                if with_reverse_traffic:
                    network.send(Packet(src="server", dst="console", nbytes=100))
            sim.run()
            return got

        assert uplink_survivors(False) == uplink_survivors(True)


class _GapRig:
    """A console channel fed a scripted datagram arrival order.

    Gap detection lives in :class:`~repro.transport.ConsoleChannel` (the
    packet layer no longer tracks sequence numbers): a hole is
    *suspected* when a higher seq arrives and *reported* — NACKed —
    only once ``nack_delay`` has passed without it filling.  Datagrams
    are handed straight to the channel's receive hook, so arrival order
    and timing are exactly what the test says.
    """

    def __init__(self, nack_delay):
        from repro.core import commands as cmd
        from repro.core.wire import WireCodec
        from repro.framebuffer import FrameBuffer, Rect
        from repro.transport import DisplayChannel

        self.channel = DisplayChannel(FrameBuffer(32, 24), nack_delay=nack_delay)
        self.sim = self.channel.sim
        self.console = self.channel.console_channel
        codec = WireCodec()
        fill = cmd.FillCommand(rect=Rect(0, 0, 4, 4), color=(1, 2, 3))
        self._datagrams = {
            seq: next(iter(codec.fragment(fill, seq=seq))) for seq in range(8)
        }
        self.nacked = []
        real_nack = self.console._send_nack

        def spy(record):
            self.nacked.append(record.seq)
            real_nack(record)

        self.console._send_nack = spy

    def arrive(self, seq, at):
        datagram = self._datagrams[seq]
        packet = Packet(
            src="server", dst="console", nbytes=datagram.wire_nbytes,
            payload=datagram,
        )
        self.sim.schedule_at(at, lambda: self.console.handle_packet(packet))


class TestGapDetectionAndReplay:
    def test_gap_detection_immediate_with_zero_window(self):
        rig = _GapRig(nack_delay=0.0)
        for i, seq in enumerate((0, 1, 4)):
            rig.arrive(seq, at=0.001 * i)
        rig.sim.run_until(0.002)  # the instant seq 4 exposes the hole
        assert rig.nacked == [2, 3]

    def test_reordering_does_not_fire_gap(self):
        """A merely reordered stream must produce zero recovery traffic."""
        rig = _GapRig(nack_delay=0.005)
        for i, seq in enumerate((0, 2, 1, 4, 3, 5)):
            rig.arrive(seq, at=0.001 * i)
        rig.sim.run_until(0.05)
        assert rig.nacked == []
        assert rig.console.stats.nacks_sent == 0

    def test_gap_reported_once_window_expires(self):
        rig = _GapRig(nack_delay=0.003)
        # Seq 1 goes missing; the window runs from the arrival of seq 2.
        for i, seq in enumerate((0, 2, 3, 4)):
            rig.arrive(seq, at=0.001 * i)
        rig.sim.run_until(0.0039)
        assert rig.nacked == []  # suspected at 1 ms, not yet ripe
        rig.sim.run_until(0.0041)
        assert rig.nacked == [1]

    def test_gap_not_refired_on_later_reordering(self):
        """A reported seq is remembered: later packets never re-report it."""
        rig = _GapRig(nack_delay=0.0)
        rig.arrive(0, at=0.0)
        rig.arrive(3, at=0.001)  # reports 1 and 2
        # The very-late originals finally arrive, then the stream resumes:
        # the already-reported seqs must not be reported a second time.
        rig.arrive(1, at=0.002)
        rig.arrive(2, at=0.003)
        rig.arrive(4, at=0.004)
        rig.sim.run_until(0.01)
        assert rig.nacked == [1, 2]
        assert rig.console.pending_recoveries == 0

    def test_late_arrival_cancels_suspicion(self):
        rig = _GapRig(nack_delay=0.002)
        rig.arrive(0, at=0.0)
        rig.arrive(3, at=0.001)  # suspects 1 and 2
        rig.arrive(1, at=0.002)  # fills one hole within the window
        rig.arrive(4, at=0.0025)
        rig.sim.run_until(0.0035)
        assert rig.nacked == [2]  # only the genuinely lost seq is reported
        assert rig.console.stats.suspects == 2

    def test_negative_reorder_window_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            _GapRig(nack_delay=-0.001)
