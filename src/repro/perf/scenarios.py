"""The pinned benchmark scenarios (import to register).

Scenarios spanning the reproduction's hot paths, ordered roughly
inner-loop to full-system:

=======================  ================================================
``wire_roundtrip``       encode -> fragment -> reassemble -> decode of a
                         mixed command stream (per-message protocol cost)
``netsim_events``        bare discrete-event engine: timer chains only
``netsim_events_batch``  engine cohort trains: producers emit
                         same-timestamp batches via ``schedule_batch``
``switch_forward``       packets crossing the switched star (links +
                         switch), one ``network.send`` per packet
``switch_forward_rec``   the same star with the flight recorder armed:
                         same events, same cost, or arming is not free
``switch_burst``         the same star driven with packet trains through
                         ``network.send_burst`` / ``ingress_burst``
``encode_damage``        paint + SLIM-encode display-model updates (the
                         server's per-update path)
``console_decode``       console-side decode + paint of a materialized
                         command stream (pixels onto the framebuffer)
``channel_lossy``        the reliable display channel under 15% loss:
                         damage chasing, NACKs, re-encodes, status
                         exchange
``yardstick_load``       the Figure 11 fabric-contention rig: yardstick
                         probe plus background load on a shared link
``e2e_session``          a complete session: driver -> wire -> fabric ->
                         console, verified pixel-exact
``fleet_scale``          the sharded fleet backend: a small campus across
                         two worker processes, lookahead barriers
=======================  ================================================

Every scenario is seeded and returns deterministic counts; end-to-end
scenarios additionally *assert* correctness (pixel equality), so a
perf run that silently broke the system fails loudly instead of
producing a fast-but-wrong number.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

import numpy as np

from repro.console.console import Console
from repro.core import commands as cmd
from repro.core.encoder import SlimEncoder
from repro.core.wire import WireCodec
from repro.framebuffer.framebuffer import FrameBuffer
from repro.framebuffer.painter import (
    PaintKind,
    PaintOp,
    synth_glyph_bitmap,
    synth_image,
)
from repro.framebuffer.regions import Rect
from repro.loadgen.generator import NetworkLoadGenerator, TrafficPattern
from repro.loadgen.yardstick import NetworkYardstick
from repro.netsim.backend import LocalBackend
from repro.netsim.packet import Packet
from repro.netsim.transport import Endpoint, Network
from repro.perf.harness import ScenarioContext, scenario
from repro.server.slimdriver import SlimDriver
from repro.transport.channel import DisplayChannel
from repro.units import ETHERNET_100
from repro.workloads.apps import NETSCAPE
from repro.workloads.session import ResourceProfile

__all__: List[str] = []


def _mixed_commands(seed: int) -> List[cmd.Command]:
    """A materialized command mix exercising every encode path."""
    rng = np.random.default_rng(seed)
    set_rect = Rect(10, 10, 64, 48)
    text_rect = Rect(4, 4, 160, 104)
    commands: List[cmd.Command] = [
        cmd.SetCommand(
            rect=set_rect, data=synth_image(set_rect, int(rng.integers(1 << 30)))
        ),
        cmd.BitmapCommand(
            rect=text_rect,
            fg=(0, 0, 0),
            bg=(255, 255, 255),
            bitmap=synth_glyph_bitmap(text_rect, int(rng.integers(1 << 30)), 0.12),
        ),
        cmd.FillCommand(rect=Rect(0, 0, 200, 150), color=(52, 70, 90)),
        cmd.CopyCommand(rect=Rect(20, 20, 120, 90), src_x=20, src_y=33),
        cmd.CscsCommand(
            rect=Rect(0, 0, 64, 48),
            src_w=32,
            src_h=24,
            bits_per_pixel=16,
            payload=bytes(rng.integers(0, 256, size=32 * 24 * 2, dtype=np.uint8)),
        ),
        cmd.MouseEvent(x=100, y=80, buttons=1),
    ]
    return commands


@scenario("wire_roundtrip", title="Wire encode/fragment/reassemble/decode roundtrip")
def wire_roundtrip(ctx: ScenarioContext) -> Dict[str, float]:
    rounds = ctx.scale(full=400, quick=80)
    commands = _mixed_commands(ctx.seed)
    tx, rx = WireCodec(), WireCodec()
    messages = packets = wire_bytes = 0
    for _ in range(rounds):
        for command in commands:
            completed = None
            for datagram in tx.fragment(command):
                packets += 1
                wire_bytes += datagram.wire_nbytes
                completed = rx.accept(datagram)
            assert completed is not None, "message failed to reassemble"
            messages += 1
    return {"messages": messages, "packets": packets, "bytes": wire_bytes}


def _netsim_events_body(ctx: ScenarioContext) -> Dict[str, float]:
    total_events = ctx.scale(full=240_000, quick=50_000)
    chains = 64
    sim = LocalBackend()
    budget = {"left": total_events}

    def make_chain(period: float):
        def fire() -> None:
            if budget["left"] > 0:
                budget["left"] -= 1
                sim.schedule(period, fire)

        return fire

    for index in range(chains):
        # Coprime-ish periods so the heap sees interleaved timestamps,
        # not one sorted batch.
        sim.schedule(0.0, make_chain(0.0005 + 0.000013 * index))
    sim.run()
    return {"sim_events": sim.events_processed, "sim_seconds": sim.now}


@scenario("netsim_events", title="Discrete-event engine: timer-chain event loop")
def netsim_events(ctx: ScenarioContext) -> Dict[str, float]:
    return _netsim_events_body(ctx)


@scenario(
    "netsim_events_batch",
    title="Discrete-event engine: schedule_batch cohort trains",
)
def netsim_events_batch(ctx: ScenarioContext) -> Dict[str, float]:
    # The amortization counterpart of ``netsim_events``: the same event
    # volume, but producers hand the engine same-timestamp cohorts, so
    # the heap sees one entry (and the monitored loops one clock write)
    # per train instead of per event.
    total_events = ctx.scale(full=240_000, quick=50_000)
    burst = 32
    chains = 16
    sim = LocalBackend()
    budget = {"left": total_events}

    def member() -> None:
        pass

    def make_chain(period: float):
        def tick() -> None:
            left = budget["left"]
            if left <= 0:
                return
            n = burst if left >= burst else left
            budget["left"] = left - n
            sim.schedule_batch(period * 0.5, [member] * n)
            sim.schedule(period, tick)

        return tick

    for index in range(chains):
        sim.schedule(0.0, make_chain(0.0005 + 0.000013 * index))
    sim.run()
    assert budget["left"] == 0, "batch chains under-delivered events"
    return {"sim_events": sim.events_processed, "sim_seconds": sim.now}


def _switch_forward_body(ctx: ScenarioContext) -> Dict[str, float]:
    per_sender = ctx.scale(full=2500, quick=500)
    nodes = 8
    sim = LocalBackend()
    network = Network(sim, default_rate_bps=ETHERNET_100)
    addresses = [f"node{i}" for i in range(nodes)]
    for address in addresses:
        network.attach(Endpoint(address))

    def make_sender(src: str, dst: str, offset: float):
        remaining = {"left": per_sender}

        def send() -> None:
            if remaining["left"] <= 0:
                return
            remaining["left"] -= 1
            network.send(
                Packet(src=src, dst=dst, nbytes=1000, flow=f"{src}->{dst}")
            )
            sim.schedule(0.0004, send)

        sim.schedule(offset, send)

    for index, address in enumerate(addresses):
        make_sender(
            address, addresses[(index + 1) % nodes], offset=index * 0.00005
        )
    sim.run()
    packets = sum(
        network.endpoint(address).packets_received for address in addresses
    )
    assert packets == nodes * per_sender, "fabric dropped lossless traffic"
    return {
        "sim_events": sim.events_processed,
        "sim_seconds": sim.now,
        "packets": packets,
    }


@scenario("switch_forward", title="Switched star fabric: packet forwarding")
def switch_forward(ctx: ScenarioContext) -> Dict[str, float]:
    return _switch_forward_body(ctx)


@scenario(
    "switch_forward_rec",
    title="Switched star fabric with the flight recorder armed",
)
def switch_forward_rec(ctx: ScenarioContext) -> Dict[str, float]:
    # The guard for the recorder's happy-path claim where it can fail:
    # every link carries the tracer and every uplink the ring tap, yet
    # none of this traffic is traced or framed, so the armed run must
    # fire the same events as ``switch_forward`` and cost the same.
    from repro.obs import FlightRecorder
    from repro.runcontext import use_run

    with use_run(recorder=FlightRecorder(out_dir=None, label="perf-switch")):
        return _switch_forward_body(ctx)


@scenario(
    "switch_burst", title="Switched star fabric: packet-train burst transit"
)
def switch_burst(ctx: ScenarioContext) -> Dict[str, float]:
    # The burst-path counterpart of ``switch_forward``: the same star,
    # but each sender emits 8-packet trains through ``send_burst`` (and
    # the switch forwards them via ``ingress_burst`` semantics), with
    # packets drawn from the freelist.
    bursts_per_sender = ctx.scale(full=320, quick=64)
    burst = 8
    nodes = 8
    sim = LocalBackend()
    network = Network(sim, default_rate_bps=ETHERNET_100)
    addresses = [f"node{i}" for i in range(nodes)]
    for address in addresses:
        network.attach(Endpoint(address))

    def make_sender(src: str, dst: str, offset: float):
        remaining = {"left": bursts_per_sender}
        flow = f"{src}->{dst}"

        def send() -> None:
            if remaining["left"] <= 0:
                return
            remaining["left"] -= 1
            network.send_burst(
                [
                    Packet.acquire(src, dst, 1000, flow=flow)
                    for _ in range(burst)
                ]
            )
            sim.schedule(0.0004, send)

        sim.schedule(offset, send)

    for index, address in enumerate(addresses):
        make_sender(
            address, addresses[(index + 1) % nodes], offset=index * 0.00005
        )
    sim.run()
    packets = sum(
        network.endpoint(address).packets_received for address in addresses
    )
    assert packets == nodes * bursts_per_sender * burst, (
        "fabric dropped lossless burst traffic"
    )
    return {
        "sim_events": sim.events_processed,
        "sim_seconds": sim.now,
        "packets": packets,
    }


def _display_model(width: int, height: int):
    display = NETSCAPE.display_model()
    display.display_w, display.display_h = width, height
    display.display_area = width * height
    return display


@scenario("encode_damage", title="Server path: paint + SLIM-encode display updates")
def encode_damage(ctx: ScenarioContext) -> Dict[str, float]:
    updates = ctx.scale(full=220, quick=50)
    width, height = 640, 480
    framebuffer = FrameBuffer(width, height)
    driver = SlimDriver(
        encoder=SlimEncoder(materialize=True),
        framebuffer=framebuffer,
        track_baselines=False,
    )
    display = _display_model(width, height)
    rng = np.random.default_rng(ctx.seed)
    for index in range(updates):
        driver.update(0.0, display.sample_update(rng, seed=index))
    stats = driver.stats
    return {
        "updates": stats.updates,
        "commands": stats.commands,
        "pixels": stats.pixels,
        "bytes": stats.wire_bytes,
    }


@functools.lru_cache(maxsize=2)
def _decode_stream(quick: bool, seed: int) -> Tuple[cmd.DisplayCommand, ...]:
    """Materialized command stream for the decode scenario (cached so the
    timed iterations measure decode, not content synthesis)."""
    updates = 120 if quick else 400
    width, height = 640, 480
    framebuffer = FrameBuffer(width, height)
    encoder = SlimEncoder(materialize=True)
    display = _display_model(width, height)
    rng = np.random.default_rng(seed)
    commands: List[cmd.DisplayCommand] = []
    from repro.framebuffer.painter import Painter

    painter = Painter(framebuffer)
    for index in range(updates):
        for op in display.sample_update(rng, seed=index):
            painter.apply(op)
            commands.extend(encoder.encode_op(op, framebuffer))
    return tuple(commands)


@scenario("console_decode", title="Console path: decode + paint a command stream")
def console_decode(ctx: ScenarioContext) -> Dict[str, float]:
    commands = _decode_stream(ctx.quick, ctx.seed)
    console = Console(640, 480)
    pixels = 0
    for command in commands:
        console.process(command)
        pixels += command.pixels
    return {
        "commands": console.stats.commands_processed,
        "pixels_painted": pixels,
        # The decode cost model's simulated seconds: how much faster
        # than a real Sun Ray 1 the decode simulation runs.
        "sim_seconds": console.virtual_time,
    }


@scenario("channel_lossy", title="Reliable display channel under 15% loss")
def channel_lossy(ctx: ScenarioContext) -> Dict[str, float]:
    updates = ctx.scale(full=14, quick=6)
    width, height = 320, 240
    server_fb = FrameBuffer(width, height)
    channel = DisplayChannel(
        server_fb, loss_rate=0.15, seed=ctx.seed, nack_delay=0.002
    )
    driver = channel.make_driver(track_baselines=False)
    display = _display_model(width, height)
    rng = np.random.default_rng(ctx.seed + 1)
    for index in range(updates):
        driver.update(channel.sim.now, display.sample_update(rng, seed=index))
        channel.run()
    assert server_fb.equals(channel.console.framebuffer), (
        "lossy channel failed to converge pixel-exact"
    )
    server = channel.server_channel.stats
    console = channel.console_channel.stats
    return {
        "sim_events": channel.sim.events_processed,
        "sim_seconds": channel.sim.now,
        "messages": server.messages_sent,
        "bytes": server.wire_bytes,
        "nacks": console.nacks_sent,
        "recoveries": server.recoveries,
    }


def _synthetic_profile(index: int, rng: np.random.Generator) -> ResourceProfile:
    """A Netscape-intensity network profile without running a user study."""
    intervals = 40
    net_bytes = rng.integers(4_000, 60_000, size=intervals).tolist()
    return ResourceProfile(
        application="Netscape",
        user=f"perf{index}",
        interval=1.0,
        cpu=[0.05] * intervals,
        net_bytes=net_bytes,
        memory_mb=32.0,
    )


@scenario("yardstick_load", title="Fabric contention: yardstick + background users")
def yardstick_load(ctx: ScenarioContext) -> Dict[str, float]:
    n_users = ctx.scale(full=24, quick=8)
    sim_seconds = ctx.scale(full=20, quick=8)
    sim = LocalBackend()
    network = Network(sim, default_rate_bps=ETHERNET_100)
    yardstick = NetworkYardstick(
        sim, network, console_addr="console", server_addr="server", warmup=1.0
    )
    network.attach(
        Endpoint("console", on_receive=yardstick.handle_console_packet)
    )
    network.attach(
        Endpoint("server", on_receive=yardstick.handle_server_packet),
        queue_limit_bytes=512 * 1024,
    )
    network.attach(Endpoint("sink"))
    rng = np.random.default_rng(ctx.seed)
    generators = []
    for index in range(n_users):
        generator = NetworkLoadGenerator(
            sim,
            network,
            src="server",
            dst="sink",
            profile=_synthetic_profile(index, rng),
            pattern=TrafficPattern(updates_per_second=5.0, active_fraction=0.9),
            rng=np.random.default_rng(int(rng.integers(0, 2**63))),
            flow=f"bg{index}",
        )
        generator.start()
        generators.append(generator)
    yardstick.start()
    sim.run_until(float(sim_seconds))
    assert yardstick.rtts, "yardstick collected no samples"
    return {
        "sim_events": sim.events_processed,
        "sim_seconds": sim.now,
        "packets": sum(g.packets_emitted for g in generators)
        + len(yardstick.rtts) * 2,
        "rtt_samples": len(yardstick.rtts),
    }


def _e2e_session_body(ctx: ScenarioContext) -> Dict[str, float]:
    width, height = (320, 240) if ctx.quick else (640, 480)
    repeats = ctx.scale(full=3, quick=2)
    sim = LocalBackend()
    server_fb = FrameBuffer(width, height)
    channel = DisplayChannel(server_fb, sim=sim)
    driver = channel.make_driver(track_baselines=False)
    desktop = [
        PaintOp(PaintKind.FILL, Rect(0, 0, width, height), color=(52, 70, 90)),
        PaintOp(
            PaintKind.FILL,
            Rect(width // 16, height // 12, width // 2, height // 2),
            color=(255, 255, 255),
        ),
        PaintOp(
            PaintKind.TEXT,
            Rect(width // 16 + 8, height // 12 + 8, width // 2, height // 2),
            fg=(0, 0, 0),
            bg=(255, 255, 255),
            seed=ctx.seed,
            char_count=600,
        ),
        PaintOp(
            PaintKind.IMAGE,
            Rect(width // 2 + 16, height // 8, width // 4, height // 4),
            seed=ctx.seed + 1,
            uniform_fraction=0.2,
        ),
        PaintOp(
            PaintKind.COPY,
            Rect(width // 16 + 8, height // 12 + 8, width // 2, height // 2 - 13),
            src=Rect(width // 16 + 8, height // 12 + 21, width // 2, height // 2 - 13),
        ),
    ]
    pixels = 0
    for round_index in range(repeats):
        for op in desktop:
            driver.update(sim.now, [op])
            channel.run()
            pixels += op.pixels_changed
    assert server_fb.equals(channel.console.framebuffer), (
        "session ended with divergent framebuffers"
    )
    stats = driver.stats
    return {
        "sim_events": sim.events_processed,
        "sim_seconds": sim.now,
        "updates": stats.updates,
        "commands": stats.commands,
        "bytes": stats.wire_bytes,
        "pixels_painted": pixels,
    }


@scenario("e2e_session", title="Full session: driver -> wire -> fabric -> console")
def e2e_session(ctx: ScenarioContext) -> Dict[str, float]:
    return _e2e_session_body(ctx)


@scenario(
    "e2e_session_rec",
    title="Full session with the flight recorder armed (rings live)",
)
def e2e_session_rec(ctx: ScenarioContext) -> Dict[str, float]:
    # Same pixel-exact session, but every wire frame lands in the
    # byte-budgeted ring and every completed trace in the trace ring —
    # the real cost of arming the recorder on an observed run.
    from repro.obs import FlightRecorder
    from repro.runcontext import use_run

    with use_run(recorder=FlightRecorder(out_dir=None, label="perf-e2e")):
        return _e2e_session_body(ctx)


@scenario("wan_matrix", title="WAN adversity cell: cellular overload, static vs adaptive")
def wan_matrix(ctx: ScenarioContext) -> Dict[str, float]:
    from repro.experiments.wan_matrix import CellProbe
    from repro.netsim.profiles import get_profile

    profile = get_profile("cellular")
    seconds = float(ctx.scale(full=20, quick=8))
    demand = 2.0 * profile.down_rate_bps
    static = CellProbe(
        profile, demand, adaptive=False, seconds=seconds, seed=ctx.seed
    ).run()
    adaptive = CellProbe(
        profile, demand, adaptive=True, seconds=seconds, seed=ctx.seed
    ).run()
    assert adaptive.allocator.stats.demotions >= 1, (
        "adaptive cell failed to shed load under overload"
    )
    assert adaptive.downlink.stats.packets_dropped == 0, (
        "adaptive cell still overran the downlink queue"
    )
    return {
        "sim_events": static.sim.events_processed
        + adaptive.sim.events_processed,
        "sim_seconds": 2 * seconds,
        "static_drops": static.downlink.stats.packets_dropped,
        "demotions": adaptive.allocator.stats.demotions,
        "rtt_samples": len(static.yardstick.rtts)
        + len(adaptive.yardstick.rtts),
    }


@scenario("fleet_scale", title="Sharded fleet: campus day across 2 worker shards")
def fleet_scale(ctx: ScenarioContext) -> Dict[str, float]:
    from repro.experiments.fleet_scale import fleet_spec, run_fleet_sharded

    spec = fleet_spec(
        n_desktops=ctx.scale(full=2000, quick=500),
        n_workgroups=ctx.scale(full=32, quick=8),
        seed=ctx.seed,
        duration=ctx.scale(full=6, quick=2) * 3600.0,
    )
    aggregator, collection = run_fleet_sharded(spec, 2)
    expected_cells = spec.n_windows * spec.n_workgroups
    assert len(aggregator.cells) == expected_cells, (
        "fleet lost demand reports across the shard barrier"
    )
    samples = sum(result["samples"] for result in collection.results)
    return {
        "samples": samples,
        "cells": expected_cells,
        "desktops": spec.total_desktops(),
        "sim_seconds": spec.duration,
    }
