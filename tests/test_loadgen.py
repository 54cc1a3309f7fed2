"""Unit tests for network load generation and yardsticks."""

import pytest

from repro.errors import WorkloadError
from repro.loadgen.generator import NetworkLoadGenerator, TrafficPattern
from repro.loadgen.yardstick import (
    CPU_YARDSTICK_BURST,
    CPU_YARDSTICK_THINK,
    NET_YARDSTICK_REQUEST_NBYTES,
    NET_YARDSTICK_RESPONSE_NBYTES,
    NetworkYardstick,
)
from repro.netsim import Endpoint, Network, Packet, Simulator
from repro.units import ETHERNET_100
from repro.workloads.session import ResourceProfile


def make_profile(net_bytes, interval=5.0):
    return ResourceProfile(
        application="App",
        user="u",
        interval=interval,
        cpu=[0.1] * len(net_bytes),
        net_bytes=list(net_bytes),
        memory_mb=10.0,
    )


def make_network():
    sim = Simulator()
    network = Network(sim, default_rate_bps=ETHERNET_100)
    network.attach(Endpoint("server"))
    sink = network.attach(Endpoint("sink"))
    return sim, network, sink


class TestTrafficPattern:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            TrafficPattern(updates_per_second=0)
        with pytest.raises(WorkloadError):
            TrafficPattern(active_fraction=0)
        with pytest.raises(WorkloadError):
            TrafficPattern(active_fraction=1.5)


class TestNetworkLoadGenerator:
    def test_emits_profile_bytes(self, rng):
        sim, network, sink = make_network()
        generator = NetworkLoadGenerator(
            sim, network, "server", "sink", make_profile([100_000]), rng=rng
        )
        generator.start()
        sim.run_until(5.0)
        assert generator.bytes_emitted == pytest.approx(100_000, rel=0.05)
        assert sink.bytes_received == pytest.approx(generator.bytes_emitted, rel=0.01)

    def test_profile_loops(self, rng):
        sim, network, sink = make_network()
        generator = NetworkLoadGenerator(
            sim, network, "server", "sink", make_profile([50_000], interval=1.0), rng=rng
        )
        generator.start()
        sim.run_until(4.0)
        assert generator.bytes_emitted == pytest.approx(200_000, rel=0.1)

    def test_zero_interval_emits_nothing(self, rng):
        sim, network, sink = make_network()
        generator = NetworkLoadGenerator(
            sim, network, "server", "sink", make_profile([0, 0]), rng=rng
        )
        generator.start()
        sim.run_until(9.0)
        assert generator.bytes_emitted == 0

    def test_scale_multiplies_bytes(self, rng):
        sim, network, _ = make_network()
        generator = NetworkLoadGenerator(
            sim, network, "server", "sink", make_profile([10_000]), rng=rng, scale=3.0
        )
        generator.start()
        sim.run_until(5.0)
        assert generator.bytes_emitted == pytest.approx(30_000, rel=0.05)

    def test_invalid_scale(self, rng):
        sim, network, _ = make_network()
        with pytest.raises(WorkloadError):
            NetworkLoadGenerator(
                sim, network, "server", "sink", make_profile([1]), rng=rng, scale=0
            )

    def test_double_start_rejected(self, rng):
        sim, network, _ = make_network()
        generator = NetworkLoadGenerator(
            sim, network, "server", "sink", make_profile([1000]), rng=rng
        )
        generator.start()
        with pytest.raises(WorkloadError):
            generator.start()

    def test_packets_bounded_by_mtu(self, rng):
        sim, network, sink = make_network()
        got = []
        sink.on_receive = got.append
        generator = NetworkLoadGenerator(
            sim, network, "server", "sink", make_profile([20_000]), rng=rng
        )
        generator.start()
        sim.run_until(5.0)
        assert all(64 <= p.nbytes <= 1500 for p in got)

    def test_a_receive_hook_may_keep_what_it_is_handed(self):
        """The generator's trains become packets for a hooked sink, and
        a display channel's datagrams ride packets to the console: each
        is an object of its own that stays as it was inside the hook."""
        import numpy as np

        from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Rect
        from repro.transport import DisplayChannel

        def fields(p):
            return p.src, p.dst, p.flow, p.created_at, p.payload

        def keeping(endpoint, then=lambda packet: None):
            got, seen = [], []

            def hook(packet):
                got.append(packet)
                seen.append(fields(packet))
                then(packet)

            endpoint.on_receive = hook
            return got, seen

        def assert_kept(endpoint, got, seen):
            assert len(got) > 10
            assert len({id(p) for p in got}) == len(got)
            assert sum(p.nbytes for p in got) == endpoint.bytes_received
            assert [fields(p) for p in got] == seen

        sim, network, sink = make_network()
        got, seen = keeping(sink)
        NetworkLoadGenerator(
            sim, network, "server", "sink", make_profile([20_000]),
            rng=np.random.default_rng(0),
        ).start()
        sim.run_until(5.0)
        assert_kept(sink, got, seen)

        channel = DisplayChannel(FrameBuffer(160, 120))
        console = channel.network.endpoint("console")
        got, seen = keeping(console, then=console.on_receive)
        channel.make_driver(track_baselines=False).update(
            0.0, [PaintOp(PaintKind.IMAGE, Rect(0, 0, 160, 120), seed=3)]
        )
        channel.run()
        assert_kept(console, got, seen)
        assert channel.converged

    def test_the_fig11_cell_reads_the_same_one_packet_at_a_time(
        self, monkeypatch
    ):
        """The generator's bursts are anonymous trains that wait on the
        fabric's record; sent as packets through ``Network.send``, one at
        a time and each burst on its event, the Fig 11 cell returns the
        identical floats.  The twin taps the sink's port, so no burst
        can wait there and every one goes through ``_burst_sender``."""
        import numpy as np

        from repro.experiments import fig11
        from repro.obs import RingSlimcapWriter
        from tests.work_rigs import synthetic_profile

        profiles = [
            synthetic_profile(i, np.random.default_rng(i)) for i in range(4)
        ]
        sent = []

        def one_at_a_time(self, burst_bytes):
            def send():
                sent.append(burst_bytes)
                remaining = burst_bytes
                while remaining > 0:
                    size = max(min(1500, remaining), 64)
                    self.network.send(
                        Packet(self.src, self.dst, size, flow=self.flow)
                    )
                    remaining -= size

            return send

        attach = Network.attach

        def cell(tapped):
            """The cell's floats, and what its sink and the server's
            uplink counted: a mis-sized runt moves the bytes."""
            networks = []

            def attaching(self, endpoint, **kwargs):
                attach(self, endpoint, **kwargs)
                if endpoint.address == "sink":
                    networks.append(self)
                    if tapped:
                        self.downlink("sink").capture = RingSlimcapWriter()
                return endpoint

            monkeypatch.setattr(Network, "attach", attaching)
            floats = fig11.yardstick_rtt(profiles, n_users=6, sim_seconds=7.0)
            (network,) = networks
            sink, uplink = network.endpoint("sink"), network.uplink("server").stats
            return (
                floats, sink.packets_received, sink.bytes_received,
                uplink.packets_sent, uplink.bytes_sent, uplink.queue_delay_total,
            )

        as_trains = cell(tapped=False)
        assert not sent
        monkeypatch.setattr(NetworkLoadGenerator, "_burst_sender", one_at_a_time)
        assert cell(tapped=True) == as_trains
        assert len(sent) > 100 and any(0 < size % 1500 < 64 for size in sent)
        (rtt, loss), *_ = as_trains
        assert 0 < rtt < float("inf") and loss == 0.0

    @pytest.mark.parametrize("nbytes", [7, 1_499, 60_000, 2_358_017])
    def test_an_intervals_bursts_are_the_scalar_loops(self, nbytes):
        """One numpy pass sizes and times an interval's bursts; the
        per-burst loop it replaced is kept here, and the two agree to
        the last bit, skipped empty bursts included."""
        import copy
        from types import SimpleNamespace

        import numpy as np

        pattern = TrafficPattern(updates_per_second=5.0, active_fraction=0.9)
        for seed in range(25):
            sim, network, _ = make_network()
            generator = NetworkLoadGenerator(
                sim, network, "server", "sink", make_profile([0]),
                pattern=pattern, rng=np.random.default_rng(seed),
            )
            offered = []
            generator._uplink = SimpleNamespace(
                offer=lambda dst, bursts, train, sender: offered.extend(bursts)
            )
            twin = copy.deepcopy(generator.rng)
            generator._emit_bursts(3.25, 5.0, nbytes)

            n_bursts = max(1, int(twin.poisson(pattern.updates_per_second * 5.0)))
            weights = twin.lognormal(0.0, 1.2, size=n_bursts)
            weights /= weights.sum()
            times = np.sort(twin.uniform(0.0, 5.0 * 0.9, size=n_bursts))
            expected = []
            for t, w in zip(times, weights):
                burst_bytes = int(round(nbytes * float(w)))
                if burst_bytes <= 0:
                    continue
                expected.append((3.25 + float(t), burst_bytes))
            assert offered == expected
            assert all(type(b) is int and type(t) is float for t, b in offered)
        assert nbytes > 100 or len(expected) < n_bursts  # some were skipped

    def test_counts_read_between_slices_do_not_depend_on_who_read_first(self):
        """``packets_emitted`` / ``bytes_emitted`` between two
        ``run_until`` slices, before any link is read, bare and armed:
        what the same rig reports with its sink's port tapped — every
        burst an event — at that instant."""
        import numpy as np

        from repro.obs import FlightRecorder, RingSlimcapWriter
        from repro.runcontext import use_run
        from tests.work_rigs import synthetic_profile

        def counts(tapped):
            sim, network, _sink = make_network()
            if tapped:
                network.downlink("sink").capture = RingSlimcapWriter()
            generators = [
                NetworkLoadGenerator(
                    sim, network, "server", "sink",
                    synthetic_profile(i, np.random.default_rng(i)),
                    pattern=TrafficPattern(updates_per_second=5.0),
                    rng=np.random.default_rng(100 + i),
                )
                for i in range(3)
            ]
            for generator in generators:
                generator.start()
            read = []
            for deadline in (0.37, 1.0, 2.61):
                sim.run_until(deadline)
                read.append(
                    [(g.packets_emitted, g.bytes_emitted) for g in generators]
                )
            return read, sim.events_processed

        on_events, events = counts(tapped=True)
        bare, bare_events = counts(tapped=False)
        with use_run(recorder=FlightRecorder(out_dir=None, label="counts")):
            armed, armed_events = counts(tapped=False)
        assert bare == armed == on_events
        assert bare[0] != bare[1] != bare[2]
        assert bare_events == armed_events < events

    @pytest.mark.parametrize(
        "src, dst", [("nowhere", "sink"), ("server", "nowhere")]
    )
    def test_an_unknown_address_is_refused_at_start(self, rng, src, dst):
        from repro.errors import SimulationError

        sim, network, _ = make_network()
        generator = NetworkLoadGenerator(
            sim, network, src, dst, make_profile([1000]), rng=rng
        )
        with pytest.raises(SimulationError, match="nowhere"):
            generator.start()
        assert sim.pending == 0

    def test_a_profile_with_no_intervals_is_refused_at_start(self, rng):
        sim, network, _ = make_network()
        generator = NetworkLoadGenerator(
            sim, network, "server", "sink", make_profile([]), rng=rng
        )
        with pytest.raises(WorkloadError, match="no network intervals"):
            generator.start()
        assert sim.pending == 0


class TestCpuYardstickConstants:
    def test_paper_values(self):
        assert CPU_YARDSTICK_BURST == pytest.approx(0.030)
        assert CPU_YARDSTICK_THINK == pytest.approx(0.150)
        # ~17% of a processor, more demanding than any benchmark app.
        share = CPU_YARDSTICK_BURST / (CPU_YARDSTICK_BURST + CPU_YARDSTICK_THINK)
        assert share == pytest.approx(1 / 6)


class TestNetworkYardstick:
    def make(self, warmup=0.0):
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        yardstick = NetworkYardstick(
            sim, network, console_addr="console", server_addr="server", warmup=warmup
        )
        network.attach(Endpoint("console", on_receive=yardstick.handle_console_packet))
        network.attach(Endpoint("server", on_receive=yardstick.handle_server_packet))
        return sim, network, yardstick

    def test_packet_sizes(self):
        assert NET_YARDSTICK_REQUEST_NBYTES == 64
        assert NET_YARDSTICK_RESPONSE_NBYTES == 1200

    def test_unloaded_rtt_sub_millisecond(self):
        sim, _network, yardstick = self.make()
        yardstick.start()
        sim.run_until(3.0)
        assert len(yardstick.rtts) >= 15
        assert yardstick.mean_rtt() < 0.001
        assert yardstick.loss_rate() == 0.0

    def test_think_time_paces_probes(self):
        sim, _network, yardstick = self.make()
        yardstick.start()
        sim.run_until(1.6)
        # ~1.6s / 150ms think -> about 10 probes.
        assert 8 <= len(yardstick.rtts) <= 11

    def test_no_samples_raises(self):
        """No answered round is an unbounded mean, not an error."""
        sim, _network, yardstick = self.make()
        assert yardstick.mean_rtt() == float("inf")

    def test_warmup_discards(self):
        sim, _network, yardstick = self.make(warmup=1.0)
        yardstick.start()
        sim.run_until(2.0)
        assert len(yardstick.rtts) <= 8

    def test_ignores_foreign_flows(self):
        sim, network, yardstick = self.make()
        yardstick.start()
        network.send(Packet(src="server", dst="console", nbytes=100, flow="other"))
        sim.run_until(1.0)
        assert yardstick.loss_rate() == 0.0

    def test_response_loss_times_out_and_recovers(self):
        """A lost response is retried after 500 ms and counted exactly once."""
        sim, network, yardstick = self.make()
        real_send = network.send
        state = {"swallowed": 0}

        def swallow_first_response(packet):
            if packet.flow == "yardstick-response" and state["swallowed"] == 0:
                state["swallowed"] += 1
                return True
            return real_send(packet)

        network.send = swallow_first_response
        yardstick.start()
        sim.run_until(3.0)
        assert state["swallowed"] == 1
        assert yardstick.lost == 1
        # The probe loop did not wedge: it resumed after the timeout.
        assert len(yardstick.rtts) >= 10
        assert yardstick.loss_rate() == pytest.approx(
            1 / (len(yardstick.rtts) + 1)
        )

    def test_late_response_is_not_double_counted(self):
        """A response arriving after its timeout is ignored, not re-scored."""
        sim, network, yardstick = self.make()
        real_send = network.send
        held = []

        def hold_first_response(packet):
            if packet.flow == "yardstick-response" and not held:
                held.append(packet)
                return True
            return real_send(packet)

        network.send = hold_first_response
        yardstick.start()
        console = network.endpoint("console")
        # Hand the held response over well after the 500 ms timeout fired
        # (by then a newer probe round is in flight).
        sim.schedule(1.0, lambda: console.deliver(held[0]))
        sim.run_until(3.0)
        assert yardstick.lost == 1  # the timeout, counted exactly once
        # The stale response recorded no RTT for the dead round and the
        # probe loop kept going at its normal cadence.
        assert len(yardstick.rtts) >= 10

    def test_loss_rate_matches_injected_request_drops(self):
        sim, network, yardstick = self.make()
        real_send = network.send
        state = {"requests": 0}

        def drop_every_third_request(packet):
            if packet.flow == "yardstick-request":
                state["requests"] += 1
                if state["requests"] % 3 == 0:
                    return False  # the uplink refused the packet
            return real_send(packet)

        network.send = drop_every_third_request
        yardstick.start()
        sim.run_until(6.0)
        assert yardstick.lost == state["requests"] // 3
        expected = yardstick.lost / (len(yardstick.rtts) + yardstick.lost)
        assert yardstick.loss_rate() == pytest.approx(expected)
        assert yardstick.loss_rate() == pytest.approx(1 / 3, abs=0.05)

    def test_a_lost_round_is_observed_when_the_console_gives_up(self):
        """The registry's RTT histogram counts every round past warm-up:
        a timed-out one at the 500 ms it waited, a refused request at 0.
        ``rtts`` and ``mean_rtt`` keep counting answered rounds only: with
        none answered, the mean is unbounded."""
        from repro.runcontext import use_run
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with use_run(registry=registry):
            sim, network, yardstick = self.make(warmup=1.0)
        real_send = network.send
        requests = []

        def starve(packet):
            if packet.flow == "yardstick-response":
                return True  # swallowed: the round times out
            requests.append(sim.now)
            return len(requests) != 4 and real_send(packet)  # 4th refused

        network.send = starve
        yardstick.start()
        sim.run_until(4.0)
        hist = registry.get("net.yardstick.rtt_seconds")
        # Rounds given up on at 0.65 s (inside the warm-up), 1.3 s, 1.95 s,
        # 2.1 s (refused on the spot), 2.75 s, 3.4 s.
        assert yardstick.lost == 6 and not yardstick.rtts
        assert hist.count == 5
        assert hist.min == 0.0
        assert hist.max == 0.5  # exactly: it stays inside the 500 ms bucket
        assert hist.sum == 4 * 0.5
        assert yardstick.mean_rtt() == float("inf")

    def test_contention_raises_rtt(self, rng):
        sim, network, yardstick = self.make()
        network.attach(Endpoint("sink"))
        generator = NetworkLoadGenerator(
            sim,
            network,
            "server",
            "sink",
            make_profile([40_000_000], interval=5.0),  # 64 Mbps background
            pattern=TrafficPattern(updates_per_second=20, active_fraction=1.0),
            rng=rng,
        )
        generator.start()
        yardstick.start()
        sim.run_until(5.0)
        assert yardstick.mean_rtt() > 0.0005
