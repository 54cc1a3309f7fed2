"""The reliable display channel (repro.transport).

The end-to-end matrix is environment-parametrizable so CI can sweep
seeds and loss rates without editing the file:

    SLIM_CHANNEL_SEEDS=7,42 SLIM_CHANNEL_LOSSES=0.05,0.2 pytest ...
"""

import os

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.core import commands as cmd
from repro.core.commands import StatusKind
from repro.core.wire import decode_message
from repro.errors import ProtocolError
from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Rect
from repro.netsim import Network, Simulator
from repro.runcontext import use_run
from repro.telemetry.metrics import MetricsRegistry
from repro.transport import DamageMap, DisplayChannel
from repro.units import ETHERNET_100
from repro.workloads.apps import NETSCAPE


def _env_numbers(name, default, convert):
    raw = os.environ.get(name)
    if not raw:
        return default
    return tuple(convert(part) for part in raw.split(",") if part.strip())


MATRIX_SEEDS = _env_numbers("SLIM_CHANNEL_SEEDS", (42,), int)
MATRIX_LOSSES = _env_numbers("SLIM_CHANNEL_LOSSES", (0.05, 0.2), float)


def make_channel(loss_rate, seed=42, width=160, height=120, **kwargs):
    server_fb = FrameBuffer(width, height)
    channel = DisplayChannel(server_fb, loss_rate=loss_rate, seed=seed, **kwargs)
    driver = channel.make_driver(track_baselines=False)
    return server_fb, channel, driver


def intercept_sends(network, per_packet):
    """Route both fabric send APIs through a per-packet interceptor.

    Channels now emit fragment trains via ``send_burst``, so tests that
    spy on / drop traffic must hook both entry points.  Returns a
    restore function.
    """
    real_send, real_burst = network.send, network.send_burst

    def restore():
        network.send, network.send_burst = real_send, real_burst

    network.send = per_packet
    network.send_burst = lambda packets: [per_packet(p) for p in packets]
    return restore


def run_session(channel, driver, updates=10, width=160, height=120, seed=7):
    rng = np.random.default_rng(seed)
    display = NETSCAPE.display_model()
    display.display_w, display.display_h = width, height
    display.display_area = width * height
    for i in range(updates):
        driver.update(float(i), display.sample_update(rng, seed=i))
        channel.sim.run()


class TestDamageMap:
    def test_record_and_lookup(self):
        damage = DamageMap(capacity=4)
        damage.record(0, Rect(0, 0, 8, 8))
        damage.record(1, None)
        assert damage.lookup(0) == (True, Rect(0, 0, 8, 8))
        assert damage.lookup(1) == (True, None)
        assert damage.lookup(2) == (False, None)
        assert 0 in damage and 2 not in damage

    def test_eviction_is_fifo_and_counted(self):
        damage = DamageMap(capacity=2)
        for seq in range(5):
            damage.record(seq, Rect(seq, 0, 1, 1))
        assert len(damage) == 2
        assert damage.evictions == 3
        assert damage.lookup(0) == (False, None)
        assert damage.lookup(4) == (True, Rect(4, 0, 1, 1))

    def test_capacity_positive(self):
        with pytest.raises(ProtocolError):
            DamageMap(capacity=0)


class TestEndToEndMatrix:
    @pytest.mark.parametrize("seed", MATRIX_SEEDS)
    @pytest.mark.parametrize("loss_rate", MATRIX_LOSSES)
    def test_converges_pixel_exact(self, loss_rate, seed):
        server_fb, channel, driver = make_channel(loss_rate, seed=seed)
        run_session(channel, driver)
        assert server_fb.equals(channel.console.framebuffer)
        assert channel.resolved
        if loss_rate > 0:
            assert channel.console_channel.stats.nacks_sent > 0
            # Recovery traffic is real fabric traffic: the console's
            # uplink carried the NACK bytes.
            uplink = channel.network.uplink("console")
            assert uplink.stats.bytes_sent >= channel.console_channel.stats.nack_bytes


class TestReorderTolerance:
    def test_reordering_only_produces_zero_recovery_traffic(self):
        server_fb, channel, driver = make_channel(
            0.0, width=64, height=48, nack_delay=0.005
        )
        captured = []
        restore = intercept_sends(
            channel.network, lambda packet: bool(captured.append(packet)) or True
        )
        ops = [
            PaintOp(PaintKind.FILL, Rect(16 * i, 0, 16, 48), color=(10 * i, 5, 5))
            for i in range(4)
        ]
        driver.update(0.0, ops)
        restore()
        assert captured  # the spy really did divert the display train
        # Deliver the display datagrams fully reversed, 0.5 ms apart —
        # inside the reorder window, so no NACK may fire.
        endpoint = channel.console_channel.endpoint
        for i, packet in enumerate(reversed(captured)):
            channel.sim.schedule(0.0005 * (i + 1), lambda p=packet: endpoint.deliver(p))
        channel.sim.run()
        assert channel.console_channel.stats.nacks_sent == 0
        assert channel.server_channel.stats.nacks_received == 0
        assert channel.recoveries == 0 and channel.refreshes == 0
        assert server_fb.equals(channel.console.framebuffer)


class TestRecoveryPaths:
    def test_lost_nack_is_retried_via_status_exchange(self):
        server_fb, channel, driver = make_channel(0.0)
        real_send = channel.network.send
        # Lose one display update entirely, then also lose the first NACK.
        restore = intercept_sends(channel.network, lambda packet: True)
        driver.update(
            0.0, [PaintOp(PaintKind.FILL, Rect(0, 0, 32, 32), color=(77, 0, 0))]
        )
        restore()
        state = {"dropped": 0}

        def flaky(packet):
            if packet.flow == "display-control" and state["dropped"] == 0:
                command, _ = decode_message(packet.payload.payload)
                if (
                    isinstance(command, cmd.StatusMessage)
                    and command.kind == StatusKind.NACK
                ):
                    state["dropped"] += 1
                    return True  # swallow the first NACK
            return real_send(packet)

        intercept_sends(channel.network, flaky)
        channel.sim.run()
        assert state["dropped"] == 1
        assert channel.console_channel.stats.nacks_sent >= 2
        assert server_fb.equals(channel.console.framebuffer)
        assert channel.resolved

    def test_partial_fragment_loss_recovers_and_cleans_reassembly(self):
        server_fb, channel, driver = make_channel(0.0)
        real_send = channel.network.send
        state = {"index": 0}

        def drop_second_fragment(packet):
            state["index"] += 1
            if state["index"] == 2:
                return True
            return real_send(packet)

        restore = intercept_sends(channel.network, drop_second_fragment)
        # A noisy image op encodes as multi-fragment SET messages.
        driver.update(
            0.0, [PaintOp(PaintKind.IMAGE, Rect(0, 0, 64, 64), seed=3)]
        )
        restore()
        channel.sim.run()
        assert server_fb.equals(channel.console.framebuffer)
        assert channel.recoveries >= 1
        assert channel.console.codec.pending_messages() == 0

    def test_recovery_latency_is_recorded(self):
        server_fb, channel, driver = make_channel(0.2, seed=1)
        run_session(channel, driver, updates=6)
        stats = channel.console_channel.stats
        assert stats.recoveries_timed > 0
        assert stats.mean_recovery_latency() > 0.0
        assert stats.recovery_latency_max >= stats.mean_recovery_latency()

    def test_input_events_reach_the_server(self):
        events = []
        server_fb, channel, driver = make_channel(0.0)
        channel.server_channel.on_input = events.append
        channel.console.key_event(42, True)
        channel.console.mouse_event(5, 6, buttons=1)
        channel.sim.run()
        assert [type(e) for e in events] == [cmd.KeyEvent, cmd.MouseEvent]
        assert events[0].code == 42 and events[1].buttons == 1


class TestStatusExchange:
    def test_timer_quiesces_after_convergence(self):
        server_fb, channel, driver = make_channel(0.0)
        driver.update(
            0.0, [PaintOp(PaintKind.FILL, Rect(0, 0, 16, 16), color=(1, 1, 1))]
        )
        channel.sim.run()
        assert channel.sim.pending == 0  # nothing left: the timer stopped
        drained_at = channel.sim.now
        # A later update re-arms the exchange and converges again.
        driver.update(
            drained_at, [PaintOp(PaintKind.FILL, Rect(16, 0, 16, 16), color=(2, 2, 2))]
        )
        channel.sim.run()
        assert channel.sim.pending == 0
        assert server_fb.equals(channel.console.framebuffer)

    def test_lost_sync_seq_is_acked_as_ephemeral(self):
        """A lost status message must not trigger a pixel refresh."""
        server_fb, channel, driver = make_channel(0.0)
        driver.update(
            0.0, [PaintOp(PaintKind.FILL, Rect(0, 0, 16, 16), color=(3, 3, 3))]
        )
        real_send = channel.network.send
        state = {"dropped": False}

        def drop_first_sync(packet):
            payload = packet.payload
            if (
                not state["dropped"]
                and packet.flow == "display"
                and payload.count == 1
            ):
                command, _ = decode_message(payload.payload)
                if (
                    isinstance(command, cmd.StatusMessage)
                    and command.kind == StatusKind.SYNC
                ):
                    state["dropped"] = True
                    return True
            return real_send(packet)

        intercept_sends(channel.network, drop_first_sync)
        channel.sim.run()
        assert state["dropped"]
        assert channel.refreshes == 0  # ephemeral seq: no pixels re-sent
        assert server_fb.equals(channel.console.framebuffer)
        assert channel.resolved


@st.composite
def _lan_sessions(draw):
    """A session's seed, its gaps between updates (0-50 ms, so the next
    update can leave with the last one still in flight) and the update
    the user hot-desks before."""
    gaps_ms = draw(st.lists(st.integers(0, 50), min_size=1, max_size=12))
    swap = draw(st.integers(0, len(gaps_ms) - 1))
    return draw(st.integers(0, 2**16)), gaps_ms, swap


class TestHotDesk:
    """A console is disposable: the session moves to a fresh console by
    redirecting its driver to a channel built for that console on the
    same server framebuffer, then refreshing over it (paper §2)."""

    @seed(1999)
    @settings(deadline=None)
    @given(session=_lan_sessions())
    def test_fresh_console_converges_pixel_exact(self, session):
        session_seed, gaps_ms, swap = session
        width, height = 96, 64
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        server_fb = FrameBuffer(width, height)
        old = DisplayChannel(
            server_fb, sim=sim, network=network,
            console_address="console-a", server_address="server-a",
        )
        driver = old.make_driver(track_baselines=False)
        rng = np.random.default_rng(session_seed)
        display = NETSCAPE.display_model()
        display.display_w, display.display_h = width, height
        display.display_area = width * height
        now = 0.0
        for i, gap_ms in enumerate(gaps_ms):
            if i == swap:
                fresh = DisplayChannel(
                    server_fb, sim=sim, network=network,
                    console_address="console-b", server_address="server-b",
                )
                driver.send = fresh.send_command
                fresh.server_channel.refresh()
            driver.update(now, display.sample_update(rng, seed=i))
            now += gap_ms / 1000
            sim.run_until(now)
        sim.run()
        assert fresh.resolved
        assert fresh.converged


class TestTelemetry:
    def test_recovery_metrics_recorded(self):
        registry = MetricsRegistry()
        server_fb = FrameBuffer(96, 64)
        with use_run(registry=registry):
            channel = DisplayChannel(server_fb, loss_rate=0.2, seed=3)
            driver = channel.make_driver(track_baselines=False)
        run_session(channel, driver, updates=6, width=96, height=64)
        assert server_fb.equals(channel.console.framebuffer)
        assert registry.get("transport.channel.nacks_sent").value > 0
        assert registry.get("transport.channel.nack_bytes").value > 0
        reencodes = registry.get(
            "transport.channel.recoveries", outcome="reencode"
        )
        assert reencodes is not None and reencodes.value > 0
        latency = registry.get("transport.channel.recovery_latency_seconds")
        assert latency is not None and latency.count > 0

    def test_make_driver_reports_to_the_channels_registry(self):
        """The driver and its encoder report where the channel does: to
        the registry of the run they are built under."""
        registry = MetricsRegistry()
        with use_run(registry=registry):
            channel = DisplayChannel(FrameBuffer(96, 64))
            driver = channel.make_driver(track_baselines=False)
        run_session(channel, driver, updates=3, width=96, height=64)
        names = {instrument.name for instrument in registry}
        assert {"encoder.commands", "server.driver.updates"} <= names
        assert any(name.startswith("span.server.") for name in names)
