"""Seven small seeded rigs whose work counters are exact.

Each rig drives one slice of the system — the switched star per packet
and per train, the Fig 11 contention cell and its past-the-knee inbound
twin, a display session, the reliable channel under loss, a WAN
adversity cell — at a fixed size on a fixed seed, checks its own
correctness, and returns raw counts.
``tests/test_work_counters.py`` pins those counts with ``==``;
``tests/test_fabric_observers.py`` runs the same rigs under every
observer flag.  The sizes are constants: changing one changes the
pinned table.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.experiments.wan_matrix import CellProbe
from repro.framebuffer.framebuffer import FrameBuffer
from repro.framebuffer.painter import PaintKind, PaintOp
from repro.framebuffer.regions import Rect
from repro.loadgen.generator import NetworkLoadGenerator, TrafficPattern
from repro.loadgen.yardstick import NetworkYardstick
from repro.netsim.backend import LocalBackend
from repro.netsim.packet import Packet
from repro.netsim.profiles import get_profile
from repro.netsim.transport import Endpoint, Network
from repro.transport.channel import DisplayChannel
from repro.units import ETHERNET_100
from repro.workloads.apps import NETSCAPE
from repro.workloads.session import ResourceProfile

SEED = 17

STAR_NODES = 8
STAR_SENDS = 500  # switch_forward: packets per node
STAR_TRAINS = 64  # switch_burst: trains per node ...
STAR_TRAIN = 8  # ... of this many packets
YARDSTICK_USERS = 8
YARDSTICK_SECONDS = 8.0
INBOUND_USERS = 64  # inbound_knee: generators, half on each peer ...
INBOUND_LOAD = 1.04  # ... together offering this share of the server's link
INBOUND_BUFFER = 128 * 1024
INBOUND_SECONDS = 1.0
SESSION_SIZE = (320, 240)
SESSION_ROUNDS = 2
LOSSY_UPDATES = 6
WAN_SECONDS = 8.0

Counts = Dict[str, float]


def _star(rounds: int, per_round: int, emit: Callable) -> Counts:
    """Eight nodes on a switched star, each sending ``rounds`` times to
    its neighbour; ``emit(network, src, dst, flow)`` puts ``per_round``
    packets on the wire."""
    sim = LocalBackend()
    network = Network(sim, default_rate_bps=ETHERNET_100)
    addresses = [f"node{i}" for i in range(STAR_NODES)]
    for address in addresses:
        network.attach(Endpoint(address))

    def make_sender(src: str, dst: str, offset: float) -> None:
        remaining = {"left": rounds}
        flow = f"{src}->{dst}"

        def send() -> None:
            if remaining["left"] <= 0:
                return
            remaining["left"] -= 1
            emit(network, src, dst, flow)
            sim.schedule(0.0004, send)

        sim.schedule(offset, send)

    for index, address in enumerate(addresses):
        make_sender(
            address, addresses[(index + 1) % STAR_NODES], offset=index * 0.00005
        )
    sim.run()
    packets = sum(
        network.endpoint(address).packets_received for address in addresses
    )
    assert packets == STAR_NODES * rounds * per_round, (
        "fabric dropped lossless traffic"
    )
    return {
        "sim_events": sim.events_processed,
        "sim_seconds": sim.now,
        "packets": packets,
    }


def switch_forward() -> Counts:
    """The star, one ``network.send`` per packet."""
    return _star(
        STAR_SENDS,
        1,
        lambda network, src, dst, flow: network.send(
            Packet(src=src, dst=dst, nbytes=1000, flow=flow)
        ),
    )


def switch_burst() -> Counts:
    """The star driven with packet trains through ``send_burst``."""
    return _star(
        STAR_TRAINS,
        STAR_TRAIN,
        lambda network, src, dst, flow: network.send_burst(
            [Packet(src, dst, 1000, flow=flow) for _ in range(STAR_TRAIN)]
        ),
    )


def synthetic_profile(index: int, rng: np.random.Generator) -> ResourceProfile:
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


def yardstick_load() -> Counts:
    """The Fig 11 cell: yardstick probe plus background load from the
    server into a hook-less sink."""
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
    rng = np.random.default_rng(SEED)
    generators = []
    bursts = [0]

    def counted(train):
        def build(when, nbytes):
            bursts[0] += 1
            return train(when, nbytes)

        return build

    for index in range(YARDSTICK_USERS):
        generator = NetworkLoadGenerator(
            sim,
            network,
            src="server",
            dst="sink",
            profile=synthetic_profile(index, rng),
            pattern=TrafficPattern(updates_per_second=5.0, active_fraction=0.9),
            rng=np.random.default_rng(int(rng.integers(0, 2**63))),
            flow=f"bg{index}",
        )
        # Every burst is built here, whether it waited on record or
        # rode an event.
        generator.train = counted(generator.train)
        generator.start()
        generators.append(generator)
    yardstick.start()
    sim.run_until(YARDSTICK_SECONDS)
    assert yardstick.rtts, "yardstick collected no samples"
    # Reading a generator's count settles its uplink: first, so that
    # ``bursts`` holds every burst due by now.
    packets = sum(g.packets_emitted for g in generators)
    return {
        "sim_events": sim.events_processed,
        "sim_seconds": sim.now,
        "packets": packets + len(yardstick.rtts) * 2,
        "bursts": bursts[0],
        "rtt_samples": len(yardstick.rtts),
    }


def inbound_knee() -> Counts:
    """Past the knee: two peers send background trains at a *hooked*
    server behind a bounded switch port, which backlogs and tail-drops."""
    sim = LocalBackend()
    network = Network(sim, default_rate_bps=ETHERNET_100)
    deliveries = [0]

    def hear(_packet) -> None:
        deliveries[0] += 1

    network.attach(
        Endpoint("server", on_receive=hear), queue_limit_bytes=INBOUND_BUFFER
    )
    network.attach(Endpoint("peer0"))
    network.attach(Endpoint("peer1"))
    per_user = round(INBOUND_LOAD * ETHERNET_100 / 8 / INBOUND_USERS)
    profile = ResourceProfile(
        application="Netscape",
        user="inbound",
        interval=1.0,
        cpu=[0.05],
        net_bytes=[per_user],
        memory_mb=32.0,
    )
    rng = np.random.default_rng(SEED)
    generators = []
    for index in range(INBOUND_USERS):
        generator = NetworkLoadGenerator(
            sim,
            network,
            src=f"peer{index % 2}",
            dst="server",
            profile=profile,
            pattern=TrafficPattern(updates_per_second=5.0, active_fraction=0.9),
            rng=np.random.default_rng(int(rng.integers(0, 2**63))),
            flow=f"bg{index}",
        )
        generator.start()
        generators.append(generator)
    sim.run_until(INBOUND_SECONDS)
    packets = sum(g.packets_emitted for g in generators)
    port = network.downlink("server")
    drops = port.stats.packets_dropped
    in_flight = packets - deliveries[0] - drops
    assert drops, "the port never filled"
    # What has neither arrived nor died fits in the port's buffer plus
    # what the wires and the switch hold.
    assert 0 <= in_flight <= INBOUND_BUFFER // 64 + 6, "packets went missing"
    assert deliveries[0] == network.endpoint("server").packets_received
    return {
        "sim_events": sim.events_processed,
        "sim_seconds": sim.now,
        "packets": packets,
        "drops": drops,
        "deliveries": deliveries[0],
    }


def e2e_session() -> Counts:
    """A complete session, driver -> wire -> fabric -> console, verified
    pixel-exact."""
    width, height = SESSION_SIZE
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
            seed=SEED,
            char_count=600,
        ),
        PaintOp(
            PaintKind.IMAGE,
            Rect(width // 2 + 16, height // 8, width // 4, height // 4),
            seed=SEED + 1,
            uniform_fraction=0.2,
        ),
        PaintOp(
            PaintKind.COPY,
            Rect(width // 16 + 8, height // 12 + 8, width // 2, height // 2 - 13),
            src=Rect(width // 16 + 8, height // 12 + 21, width // 2, height // 2 - 13),
        ),
    ]
    pixels = 0
    for _ in range(SESSION_ROUNDS):
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


def channel_lossy() -> Counts:
    """The reliable display channel under 15% loss: damage chasing,
    NACKs, re-encodes, converging pixel-exact."""
    width, height = 320, 240
    server_fb = FrameBuffer(width, height)
    channel = DisplayChannel(
        server_fb, loss_rate=0.15, seed=SEED, nack_delay=0.002
    )
    driver = channel.make_driver(track_baselines=False)
    display = NETSCAPE.display_model()
    display.display_w, display.display_h = width, height
    display.display_area = width * height
    rng = np.random.default_rng(SEED + 1)
    for index in range(LOSSY_UPDATES):
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


def wan_matrix() -> Counts:
    """One WAN adversity cell, cellular at twice its downlink rate, with
    the static and then the adaptive sender."""
    profile = get_profile("cellular")
    demand = 2.0 * profile.down_rate_bps
    static = CellProbe(
        profile, demand, adaptive=False, seconds=WAN_SECONDS, seed=SEED
    ).run()
    adaptive = CellProbe(
        profile, demand, adaptive=True, seconds=WAN_SECONDS, seed=SEED
    ).run()
    assert adaptive.downlink.stats.packets_dropped == 0, (
        "adaptive cell still overran the downlink queue"
    )
    return {
        "sim_events": static.sim.events_processed
        + adaptive.sim.events_processed,
        "sim_seconds": 2 * WAN_SECONDS,
        "static_drops": static.downlink.stats.packets_dropped,
        "demotions": adaptive.allocator.stats.demotions,
        "rtt_samples": len(static.yardstick.rtts)
        + len(adaptive.yardstick.rtts),
    }
