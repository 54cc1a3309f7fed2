"""Integration tests across modules: paint -> encode -> wire -> decode.

These exercise the promise the whole system rests on — the console is a
faithful remote framebuffer — over the real wire format and, in the
timed variants, over the simulated interconnect fabric.
"""

import numpy as np
import pytest

from repro.core import commands as cmd
from repro.core.encoder import EncoderConfig, SlimEncoder
from repro.core.video import StreamGeometry, VideoStream
from repro.core.wire import Datagram, WireCodec
from repro.console import Console
from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Rect
from repro.framebuffer.painter import synth_video_frame
from repro.netsim import Endpoint, Network, Packet, Simulator
from repro.server.slimdriver import SlimDriver
from repro.transport import DisplayChannel
from repro.units import ETHERNET_100


def wire_channel(console):
    """A send() callback that pushes commands through real datagrams."""
    tx, rx = WireCodec(), WireCodec()

    def send(command):
        for datagram in tx.fragment(command):
            result = rx.accept(Datagram.from_bytes(datagram.to_bytes()))
            if result is not None:
                console.enqueue(result[0])

    return send


def a_desktop_scene(w, h):
    return [
        PaintOp(PaintKind.FILL, Rect(0, 0, w, h), color=(40, 44, 52)),
        PaintOp(PaintKind.TEXT, Rect(8, 8, w // 2, 52), seed=1, char_count=120),
        PaintOp(PaintKind.IMAGE, Rect(w // 2, 8, w // 3, h // 3), seed=2, uniform_fraction=0.25),
        PaintOp(PaintKind.FILL, Rect(8, h - 24, w - 16, 16), color=(200, 200, 210)),
        PaintOp(PaintKind.COPY, Rect(8, 8, w // 2, 39), src=Rect(8, 21, w // 2, 39)),
    ]


class TestLosslessFidelity:
    def test_full_pipeline_pixel_exact(self):
        w, h = 320, 240
        server_fb = FrameBuffer(w, h)
        console = Console(w, h)
        driver = SlimDriver(
            encoder=SlimEncoder(materialize=True),
            framebuffer=server_fb,
            send=wire_channel(console),
        )
        for op in a_desktop_scene(w, h):
            driver.update(0.0, [op])  # paints then encodes each op
        assert server_fb.equals(console.framebuffer)

    def test_pipeline_with_every_encoder_ablation(self):
        """Correctness must hold regardless of which commands are enabled."""
        for config in (
            EncoderConfig(use_fill=False),
            EncoderConfig(use_bitmap=False),
            EncoderConfig(use_copy=False),
            EncoderConfig(use_fill=False, use_bitmap=False, use_copy=False),
        ):
            w, h = 160, 120
            server_fb = FrameBuffer(w, h)
            console = Console(w, h)
            driver = SlimDriver(
                encoder=SlimEncoder(config=config, materialize=True),
                framebuffer=server_fb,
                send=wire_channel(console),
            )
            for op in a_desktop_scene(w, h):
                driver.update(0.0, [op])
            assert server_fb.equals(console.framebuffer), config

    def test_video_region_within_tolerance(self):
        console = Console(160, 120)
        region = Rect(10, 10, 96, 64)
        stream = VideoStream(
            StreamGeometry(dst=region, src_w=96, src_h=64, bits_per_pixel=16)
        )
        frame = synth_video_frame(region, seed=4)
        wire_channel(console)(stream.encode_frame(frame))
        err = np.abs(
            frame.astype(int) - console.framebuffer.read(region).astype(int)
        ).mean()
        assert err < 6.0

    def test_incremental_session_stays_synchronized(self, rng):
        """Many random updates: the console never drifts."""
        w, h = 200, 150
        server_fb = FrameBuffer(w, h)
        console = Console(w, h)
        driver = SlimDriver(
            encoder=SlimEncoder(materialize=True),
            framebuffer=server_fb,
            send=wire_channel(console),
        )
        from repro.workloads.apps import NETSCAPE

        display = NETSCAPE.display_model()
        display.display_w, display.display_h = w, h
        display.display_area = w * h
        for i in range(30):
            ops = display.sample_update(rng, seed=i)
            driver.update(float(i), ops)
        assert server_fb.equals(console.framebuffer)


class TestOverTheFabric:
    def test_timed_delivery_through_switch(self):
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        w, h = 160, 120
        console = Console(w, h, sim=sim, address="console")
        network.attach(console.make_endpoint())
        network.attach(Endpoint("server"))
        server_fb = FrameBuffer(w, h)
        tx = WireCodec()

        def send(command):
            for datagram in tx.fragment(command):
                network.send(
                    Packet(
                        src="server",
                        dst="console",
                        nbytes=datagram.wire_nbytes,
                        payload=datagram,
                    )
                )

        driver = SlimDriver(
            encoder=SlimEncoder(materialize=True), framebuffer=server_fb, send=send
        )
        for op in a_desktop_scene(w, h):
            driver.update(sim.now, [op])
        sim.run()
        assert server_fb.equals(console.framebuffer)
        assert sim.now > 0  # time actually passed

    def test_input_travels_console_to_server(self):
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        received = []

        def server_rx(packet):
            if isinstance(packet.payload, Datagram):
                codec = WireCodec()
                result = codec.accept(packet.payload)
                if result:
                    received.append(result[0])

        console = Console(64, 48, sim=sim, address="console")
        network.attach(console.make_endpoint())
        network.attach(Endpoint("server", on_receive=server_rx))
        tx = WireCodec()

        def forward(event):
            for datagram in tx.fragment(event):
                network.send(
                    Packet(
                        src="console",
                        dst="server",
                        nbytes=datagram.wire_nbytes,
                        payload=datagram,
                    )
                )

        console.on_input = forward
        console.key_event(0x41, True)
        console.mouse_event(10, 20, 1)
        sim.run()
        assert len(received) == 2
        assert isinstance(received[0], cmd.KeyEvent)
        assert isinstance(received[1], cmd.MouseEvent)


class TestMobilityOverTheWire:
    def test_hotdesk_restores_exact_screen(self):
        """The session moves by redirecting its driver to a channel for
        the new console and refreshing over it."""
        sim = Simulator()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        server_fb = FrameBuffer(96, 64)
        first = DisplayChannel(
            server_fb, sim=sim, network=network,
            console_address="c1", server_address="s1",
        )
        driver = first.make_driver(track_baselines=False)
        for op in a_desktop_scene(96, 64):
            driver.update(sim.now, [op])
        sim.run()
        second = DisplayChannel(
            server_fb, sim=sim, network=network,
            console_address="c2", server_address="s2",
        )
        driver.send = second.send_command
        second.server_channel.refresh()
        sim.run()
        assert second.converged and second.resolved


class TestDriverTraceConsistency:
    def test_trace_bytes_match_wire_bytes(self):
        """The instrumented driver's byte accounting equals actual bytes."""
        from repro.core.wire import message_wire_nbytes

        w, h = 160, 120
        server_fb = FrameBuffer(w, h)
        sent = []
        driver = SlimDriver(
            encoder=SlimEncoder(materialize=True),
            framebuffer=server_fb,
            send=sent.append,
        )
        op = PaintOp(PaintKind.TEXT, Rect(0, 0, 80, 39), seed=1)
        record = driver.update(0.0, [op])
        assert record.wire_bytes == sum(message_wire_nbytes(c) for c in sent)

    def test_service_time_matches_console(self):
        w, h = 160, 120
        server_fb = FrameBuffer(w, h)
        console = Console(w, h)
        sent = []
        driver = SlimDriver(
            encoder=SlimEncoder(materialize=True),
            framebuffer=server_fb,
            send=sent.append,
        )
        op = PaintOp(PaintKind.IMAGE, Rect(0, 0, 64, 64), seed=2)
        record = driver.update(0.0, [op])
        actual = sum(console.process(c) for c in sent)
        assert record.service_time == pytest.approx(actual)
