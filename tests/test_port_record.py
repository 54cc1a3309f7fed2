"""A port somebody hears, fed from its record == the same port fed by events.

An arrival at a switch port costs an event only if nothing already due
on the port admits it in time (DESIGN.md section 16.2, rules (a)-(c)).
Nothing may tell a port fed that way from one fed an ``ingress`` event
per arrival except the engine's event count.  The twins here are the
stars of ``tests/test_passive_sink.py`` with a drawn many-to-one hot
spot, so ports backlog, and receive hooks that *reply* at the delivery
instant, so what a hook hears late or out of order changes the traffic:

* twin A as built;
* twin B with a throw-away ring writer tapped on every downlink, which
  keeps every port on events (``test_tapping_a_loaded_link_mid_run``
  pins that a tap changes nothing else; the packets here carry no
  datagram, so the ring stays empty).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet, Train
from repro.netsim.transport import Endpoint, Network
from repro.obs import RingSlimcapWriter

from tests.test_passive_sink import (
    SPAN,
    _link_readings,
    _profile,
    _script,
    _stars,
)
from tests.test_source_record import _run_stretches, _stretch_cases


@st.composite
def _hot_stars(draw):
    """A star plus a hot spot: ``waves`` times, every other node sends a
    train of full-size packets to node ``hot`` within a millisecond."""
    star = draw(_stars())
    star["hot"] = draw(st.integers(0, len(star["hookless"]) - 1))
    star["waves"] = draw(st.integers(1, 6))
    return star


#: Six nodes on clean 5 Mbps access links, all hooked and replying: the
#: hot port backlogs under each wave, and hops into it ride its record.
BACKLOGGED = {
    "hookless": [False] * 6,
    "access": [{"rate": 5e6, "queue": None, "loss": None, "jitter": 0.0}] * 6,
    "sends": 20,
    "seed": 1999,
    "hot": 2,
    "waves": 4,
}


def _run_twin(star, on_events: bool):
    """One twin: a reading per sample instant, one after the drain,
    what every hook heard, and the events fired."""
    sends, samples = _script(star)
    rng = np.random.default_rng(star["seed"] + 2)
    names = [f"n{i}" for i in range(len(star["hookless"]))]
    hot = names[star["hot"]]
    sim = Simulator()
    network = Network(sim, default_rate_bps=10e6)
    heard = []
    offered = [0]

    def replying(name):
        def hook(packet):
            heard.append((name, sim.now, packet.src, packet.nbytes, packet.flow))
            if packet.flow != "reply":
                # Sent from inside the delivery event, at its instant.
                offered[0] += 1
                network.send(
                    Packet(name, packet.src, 64 + packet.nbytes % 400, flow="reply")
                )

        return hook

    attach_rng = np.random.default_rng(star["seed"] + 1)
    for i, (name, hookless) in enumerate(zip(names, star["hookless"])):
        network.attach(
            Endpoint(name, on_receive=None if hookless else replying(name)),
            profile=_profile(i, star["access"][i]),
            rng=np.random.default_rng(int(attach_rng.integers(2**63))),
        )
    if on_events:
        for name in names:
            network.downlink(name).capture = RingSlimcapWriter()

    def fire(burst, train):
        offered[0] += len(train)
        packets = [
            Packet(names[src], names[dst], nbytes, flow=names[src])
            for src, dst, nbytes in train
        ]
        if burst:
            network.send_burst(packets)
        else:
            for packet in packets:
                network.send(packet)

    def wave(src, sizes):
        offered[0] += len(sizes)
        network.send_burst(Train(src, hot, sizes, flow="wave"))

    for when, burst, train in sends:
        sim.schedule_at(when, lambda b=burst, t=train: fire(b, t))
    for start in np.sort(rng.uniform(0.0, SPAN, size=star["waves"])):
        for src in names:
            if src != hot:
                sizes = [1500] * int(rng.integers(3, 12))
                sizes.append(int(rng.integers(64, 1500)))
                sim.schedule_at(
                    float(start + rng.uniform(0.0, 1e-3)),
                    lambda s=src, z=sizes: wave(s, z),
                )

    links = [network.uplink(name) for name in names]
    links += [network.downlink(name) for name in names]

    def reading(window=None):
        per_link, lost, dropped = _link_readings(links, window)
        endpoints = [
            (network.endpoint(n).packets_received, network.endpoint(n).bytes_received)
            for n in names
        ]
        # Every link has just been settled:
        # offered = received + lost + dropped + in flight.
        in_flight = offered[0] - sum(count for count, _ in endpoints) - lost - dropped
        assert in_flight >= 0
        return {
            "links": per_link,
            "endpoints": endpoints,
            "forwarded": network.switch.packets_forwarded,
            "in_flight": in_flight,
            "heard": len(heard),
            "now": sim.now,
        }

    readings = []
    for instant in samples:
        sim.run_until(instant)
        readings.append(reading())
    sim.run()
    final = reading(window=4 * SPAN)
    assert final["in_flight"] == 0  # drained: no record outlived its port
    return readings, final, heard, sim.events_processed


@seed(1999)
@settings(deadline=None)
@given(star=_hot_stars())
@example(star=BACKLOGGED)
def test_a_heard_port_on_record_is_the_same_port_on_events(star):
    """Mutation check: with rule (c) removed (``Link._pull`` no longer
    calls ``_cover``) this fails — a record outlives the last delivery
    due on its port, the next read admits it after its own delivery
    instant, and the engine refuses to schedule in the past."""
    ours, ours_final, ours_heard, ours_events = _run_twin(star, on_events=False)
    theirs, theirs_final, theirs_heard, theirs_events = _run_twin(star, on_events=True)
    assert ours == theirs
    # Drained, twin B's clock may rest on a hop into a port nobody hears
    # (an event there, a record here): never on anything a hook heard.
    assert ours_final.pop("now") <= theirs_final.pop("now")
    assert ours_final == theirs_final
    # The same packets, at the same float instants, in the same order.
    assert ours_heard == theirs_heard
    # A record saves its ``ingress`` event; a wake admits at least one.
    assert ours_events <= theirs_events


def test_a_backlogged_heard_port_fires_strictly_fewer_events():
    *_, heard, on_record = _run_twin(BACKLOGGED, on_events=False)
    *_, on_events = _run_twin(BACKLOGGED, on_events=True)
    assert len(heard) == 460
    # Exact for the seed: 40 sender ticks and 460 deliveries in both;
    # of the 460 hops into the switch, 158 found a delivery due on
    # their port in time and no port was left needing a wake.
    assert (on_record, on_events) == (40 + 460 + 302, 40 + 460 + 460)


#: Two feeders fill a slow port's small buffer at once: a stretch must
#: end where the limit comes in reach.
LIMIT_IN_REACH = {
    "rates": [50e6, 50e6, 2e6],
    "port_limit": 4_000,
    "uplink_limit": None,
    "hook_at": None,
    "armed": False,
    "sends": [(0, 0, "train", [1500] * 6), (1, 0, "train", [1500] * 6)],
    "reads": [],
}

#: A traced packet between two trains, still on the port's wire when a
#: hook arrives: it is heard with its hop across the port.
PACKET_IN_A_STRETCH = {
    "rates": [50e6, 2e6],
    "port_limit": None,
    "uplink_limit": None,
    "hook_at": 3,
    "armed": True,
    "sends": [
        (0, 0, "train", [1500] * 12),
        (0, 1, "packet", [700]),
        (0, 1, "train", [1500] * 4),
    ],
    "reads": [],
}


@seed(1999)
@settings(deadline=None)
@given(case=_stretch_cases(offered=False))
@example(case=LIMIT_IN_REACH)
@example(case=PACKET_IN_A_STRETCH)
def test_a_stretch_crosses_a_port_as_admit_would(case):
    """A port nobody hears takes stretches of train packets off its
    1-3 inboxes in one pass (``Link._admit_record``), each ending where
    another inbox's head comes first, a single packet, or a queue limit
    in reach: nothing may tell that from the same arrivals through
    ``Link.admit``, the engine's event count included.  Mutation check:
    a stretch allowed past another inbox's head (``stop`` left at
    ``through``) admits one feeder's later arrivals ahead of another's
    earlier ones, and the port's queue-delay sum moves."""
    assert _run_stretches(case, passes=True) == _run_stretches(case, passes=False)
