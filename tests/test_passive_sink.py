"""An arrival nobody receives costs no event.

A link that feeds an endpoint with no receive hook records each arrival
as a pending credit instead of scheduling a delivery; the fold credits
the endpoint's counters.  Nothing may tell the two apart except the
engine's event count:

* a star drawn by Hypothesis, run as drawn and with every hook-less
  endpoint given a no-op hook, reads the same link statistics, queue
  occupancy, utilization and endpoint counters at random mid-run
  instants and after a drained ``run()``, conserves packets at every
  sample, and differs in ``events_processed`` by exactly the arrivals
  absorbed plus the hops into the switch that no event carried (less
  the wakes a heard port needed for what it kept on record);
* the same script sent as anonymous :class:`Train` records and as one
  ``send`` per packet reads the same everywhere, events included,
  and hooked endpoints hear the same packets at the same instants;
* a hook assigned while packets are on the wire receives exactly the
  packets that arrive from then on, at their arrival instants — whether
  they were a pending credit, or still on record at the switch.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.link import GilbertElliottLoss, Link
from repro.netsim.packet import Packet, Train
from repro.netsim.profiles import NetworkProfile
from repro.netsim.transport import Endpoint, Network


# ---------------------------------------------------------------------------
# Passive sink == counting hook, over generated stars
# ---------------------------------------------------------------------------

SPAN = 0.2  # seconds of scripted traffic

_losses = st.one_of(
    st.none(),
    st.floats(0.02, 0.4),
    st.just(GilbertElliottLoss(0.1, 0.3, loss_good=0.01, loss_bad=0.6)),
)

_access = st.fixed_dictionaries(
    {
        "rate": st.sampled_from([1e6, 5e6, 20e6]),
        "queue": st.sampled_from([None, 2_000, 8_000]),
        "loss": _losses,
        "jitter": st.sampled_from([0.0, 0.0, 2e-3]),
    }
)


@st.composite
def _stars(draw):
    n = draw(st.integers(2, 6))
    return {
        "hookless": draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
        ),
        "access": draw(st.lists(_access, min_size=n, max_size=n)),
        "sends": draw(st.integers(5, 40)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _profile(index: int, access) -> NetworkProfile:
    loss = access["loss"]
    return NetworkProfile(
        name=f"drawn{index}",
        description="drawn",
        up_rate_bps=access["rate"],
        down_rate_bps=access["rate"],
        propagation_delay=50e-6,
        jitter=access["jitter"],
        loss_rate=loss if isinstance(loss, float) else 0.0,
        burst=loss if isinstance(loss, GilbertElliottLoss) else None,
        queue_limit_bytes=access["queue"],
    )


def _script(star):
    """(instant, burst?, [(src, dst, nbytes), ...]) per send, and the
    instants to sample at — all from the star's seed."""
    rng = np.random.default_rng(star["seed"])
    n = len(star["hookless"])
    sends = []
    for when in np.sort(rng.uniform(0.0, SPAN, size=star["sends"])):
        src = int(rng.integers(n))
        train = [
            (
                src,
                int((src + 1 + rng.integers(n - 1)) % n),
                int(rng.integers(64, 1500)),
            )
            for _ in range(int(rng.integers(1, 9)))
        ]
        sends.append((float(when), bool(rng.integers(2)), train))
    samples = np.sort(rng.uniform(0.0, 1.5 * SPAN, size=20)).tolist()
    return sends, samples


def _link_readings(links, window=None):
    """Every statistic a link exposes, per link, and the packets that
    died on them (lost, dropped).  Reading settles each link."""
    per_link = []
    lost = dropped = 0
    for link in links:
        stats = link.stats
        lost += stats.packets_lost
        dropped += stats.packets_dropped
        per_link.append(
            (
                stats.packets_sent, stats.bytes_sent, stats.packets_dropped,
                stats.packets_lost, stats.queue_delay_total, stats.busy_time,
                link.queue_depth, link.queued_bytes, link.utilization(window),
            )
        )
    return per_link, lost, dropped


def _run_star(star, passive: bool = True, sent_as: str = "scripted"):
    """The star as drawn (``passive``) or with a no-op hook on every
    hook-less endpoint.  Each scripted send goes out as scripted (a
    burst of packets, or one ``send`` each), as ``"packets"``
    (always one ``send`` each) or as ``"trains"`` (each run of packets
    for one destination as one anonymous :class:`Train`).  Returns one
    reading per sample instant plus one after the drain."""
    trains = sent_as == "trains"
    sends, samples = _script(star)
    sim = Simulator()
    network = Network(sim, default_rate_bps=10e6)
    # Every hop into the switch that an event carries is one call here
    # (wrapped before any uplink binds it as its delivery).
    carried = [0]
    ingress = network.switch.ingress

    def counting_ingress(packet):
        carried[0] += 1
        ingress(packet)

    network.switch.ingress = counting_ingress
    attach_rng = np.random.default_rng(star["seed"] + 1)
    heard = []
    names = [f"n{i}" for i in range(len(star["hookless"]))]
    for i, (name, hookless) in enumerate(zip(names, star["hookless"])):
        if hookless:
            hook = None if passive else (lambda packet: None)
        else:
            hook = lambda packet, name=name: heard.append(  # noqa: E731
                (sim.now, name, packet.src, packet.nbytes, packet.flow)
            )
        profile = _profile(i, star["access"][i])
        network.attach(
            Endpoint(name, on_receive=hook),
            profile=profile,
            rng=np.random.default_rng(int(attach_rng.integers(2**63))),
        )
    offered = [0]

    def fire(burst, train):
        offered[0] += len(train)
        if trains:
            for (src, dst), run in groupby(train, key=lambda packet: packet[:2]):
                network.send_burst(
                    Train(
                        names[src],
                        names[dst],
                        [nbytes for _, _, nbytes in run],
                        flow=names[src],
                    )
                )
            return
        packets = [
            Packet(names[src], names[dst], nbytes, flow=names[src])
            for src, dst, nbytes in train
        ]
        if burst and sent_as == "scripted":
            network.send_burst(packets)
        else:
            for packet in packets:
                network.send(packet)

    for when, burst, train in sends:
        sim.schedule_at(when, lambda b=burst, t=train: fire(b, t))

    links = [network.uplink(name) for name in names]
    links += [network.downlink(name) for name in names]
    # Every wake a heard port schedules for an arrival on its record
    # that no delivery covers is one call here.
    woken = [0]

    def counting(wake):
        def counted():
            woken[0] += 1
            wake()

        return counted

    for link in links:
        link._wake = counting(link._wake)

    def reading(window=None):
        per_link, lost, dropped = _link_readings(links, window)
        endpoints = [
            (network.endpoint(n).packets_received, network.endpoint(n).bytes_received)
            for n in names
        ]
        received = sum(count for count, _ in endpoints)
        # Every link has just been settled:
        # sent = received + lost + dropped + in flight.
        in_flight = offered[0] - received - lost - dropped
        assert in_flight >= 0
        absorbed = sum(
            endpoints[i][0]
            for i, hookless in enumerate(star["hookless"])
            if hookless and star["access"][i]["jitter"] == 0
        )
        return {
            "links": per_link,
            "endpoints": endpoints,
            "forwarded": network.switch.packets_forwarded,
            "in_flight": in_flight,
            "events": sim.events_processed,
            "absorbed": absorbed,
            "carried": carried[0],
            "woken": woken[0],
            "now": sim.now,
        }

    readings = []
    for instant in samples:
        sim.run_until(instant)
        readings.append(reading())
    sim.run()
    # The twins' clocks may differ here, so not "busy share of now".
    final = reading(window=2 * SPAN)
    assert final["in_flight"] == 0  # drained
    return readings, final, heard


@seed(1999)
@settings(deadline=None)
@given(star=_stars())
def test_passive_sink_is_a_counting_hook(star):
    passive, passive_final, passive_heard = _run_star(star, passive=True)
    hooked, hooked_final, hooked_heard = _run_star(star, passive=False)
    for ours, theirs in zip(passive + [passive_final], hooked + [hooked_final]):
        assert ours["links"] == theirs["links"]
        assert ours["endpoints"] == theirs["endpoints"]
        # What the passive star saves, exactly: the arrivals its sinks
        # absorb, and the hops into the switch that no event carried.
        # In either twin a hop into a port somebody hears rides the
        # port's record while a delivery already due there admits it in
        # time, so neither twin's every hop is an ``ingress`` event any
        # more; a record such a port is left holding with no delivery
        # due costs one wake, the only event there is besides the
        # senders' ticks, the carried hops and the deliveries heard.
        assert theirs["events"] - ours["events"] == (
            ours["absorbed"]
            + (theirs["carried"] - ours["carried"])
            + (theirs["woken"] - ours["woken"])
        )
    for ours, theirs in zip(passive, hooked):
        assert ours["now"] == theirs["now"]
    # Drained, the hooked twin's clock ends on its last delivery event,
    # ours on the last event anything reacted to.
    assert passive_final["now"] <= hooked_final["now"]
    # Endpoints that do receive hear the same packets at the same instants.
    assert passive_heard == hooked_heard


# ---------------------------------------------------------------------------
# A train == its packets sent one at a time, over the same stars
# ---------------------------------------------------------------------------


@seed(1999)
@settings(deadline=None)
@given(star=_stars())
def test_a_train_is_its_packets_sent_one_at_a_time(star):
    """No object per packet at the source, no event on a hop nobody
    hears: nothing else may differ, the engine's event count included
    (both twins skip the same events; the train only skips objects)."""
    as_trains, trains_final, trains_heard = _run_star(star, sent_as="trains")
    one_by_one, packets_final, packets_heard = _run_star(star, sent_as="packets")
    for ours, theirs in zip(
        as_trains + [trains_final], one_by_one + [packets_final]
    ):
        for key in ("links", "endpoints", "forwarded", "in_flight", "events", "now"):
            assert ours[key] == theirs[key], key
    assert trains_heard == packets_heard


# ---------------------------------------------------------------------------
# A hook assigned while packets are on the wire
# ---------------------------------------------------------------------------


def one_link_to_a_sink(hook=None):
    """8 Mbps (a byte per microsecond) with 1 ms of propagation."""
    sim = Simulator()
    sink = Endpoint("sink", on_receive=hook)
    link = Link(sim, rate_bps=8e6, propagation_delay=1e-3, deliver=sink.deliver)
    link.feeds(sink)
    return sim, sink, link


def _five_on_one_link(hook=None):
    """Five 1000-byte packets sent at t = 0: they arrive at (about) 2,
    3, 4, 5 and 6 ms."""
    sim, sink, link = one_link_to_a_sink(hook)
    for _ in range(5):
        link.send(Packet("src", "sink", 1000))
    return sim, sink, link


def test_a_hook_assigned_mid_run_sees_the_arrivals_from_then_on():
    arrivals = []
    sim, _, _ = _five_on_one_link(hook=lambda packet: arrivals.append(sim.now))
    sim.run()
    assert len(arrivals) == 5

    sim, sink, link = _five_on_one_link()
    assert sim.pending == 0  # nothing receives them: no event
    sim.run_until((arrivals[1] + arrivals[2]) / 2)
    assert (sink.packets_received, sink.bytes_received) == (2, 2000)
    got = []
    sink.on_receive = lambda packet: got.append((sim.now, packet.nbytes))
    assert sim.pending == 3
    assert sink.packets_received == 2  # the first two stay credited
    sim.run()
    assert got == [(when, 1000) for when in arrivals[2:]]
    assert (sink.packets_received, sink.bytes_received) == (5, 5000)
    assert link.stats.packets_sent == 5
    assert sim.now == arrivals[-1]


def _five_anonymous_through_a_switch(hook=None):
    """8 Mbps links with 1 ms of propagation; 500, 500, 500, 1500 and
    1500 bytes leave the server as one train at t = 0 and reach the
    sink at about 3.0, 3.5, 4.0, 6.5 and 8.0 ms."""
    sim = Simulator()
    network = Network(sim, default_rate_bps=8e6, propagation_delay=1e-3)
    network.attach(Endpoint("server"))
    sink = network.attach(Endpoint("sink", on_receive=hook))
    network.send_burst(
        Train("server", "sink", [500, 500, 500, 1500, 1500], flow="background")
    )
    return sim, network, sink


def test_a_hook_assigned_mid_run_hears_the_rest_of_an_anonymous_train():
    """The same contract one hop upstream, for packets that have no
    object yet: at the assignment the third is a pending arrival credit
    and the last two are still on the sink port's record at the switch.
    The credit becomes a delivery event; the two on record stay there,
    because that delivery (4.005 ms) is due after the fourth reaches
    the port (4.0 ms) and the fourth's (6.505 ms) after the fifth does
    (5.5 ms): each delivery admits the next, which is built a packet
    then — three events in all, where an ``ingress`` apiece made five."""

    def hear(into, clock):
        return lambda packet: into.append(
            (clock[0].now, packet.src, packet.dst, packet.nbytes, packet.flow)
        )

    sim, _, _ = _five_anonymous_through_a_switch()
    sim.run()
    assert sim.events_processed == 0  # nobody hears either hop
    arrivals, clock = [], []
    sim, _, _ = _five_anonymous_through_a_switch(hook=hear(arrivals, clock))
    clock.append(sim)
    sim.run()
    assert [a[1:] for a in arrivals] == [
        ("server", "sink", nbytes, "background")
        for nbytes in (500, 500, 500, 1500, 1500)
    ]

    sim, network, sink = _five_anonymous_through_a_switch()
    assert sim.pending == 0
    sim.run_until((arrivals[1][0] + arrivals[2][0]) / 2)
    assert (sink.packets_received, sink.bytes_received) == (2, 1000)
    assert network.switch.packets_forwarded == 3
    got = []
    sink.on_receive = hear(got, [sim])
    assert sim.pending == 1  # the delivery; it covers what is on record
    assert (sink.packets_received, sink.bytes_received) == (2, 1000)
    fired = sim.events_processed
    sim.run()
    assert sim.events_processed - fired == 3  # no wake, no ``ingress``
    assert got == arrivals[2:]
    assert (sink.packets_received, sink.bytes_received) == (5, 4500)
    assert network.switch.packets_forwarded == 5
    assert network.uplink("server").stats.packets_sent == 5
    assert network.downlink("sink").stats.packets_sent == 5
    assert sim.now == arrivals[-1][0]


def test_a_tap_set_mid_run_on_a_port_nobody_hears_sees_the_frames_from_then_on():
    """The capture setter is the same re-arm: arrivals on record for the
    port become events again, so each frame that finishes on it from
    then on is tapped at its admission — as with the tap set all along."""
    from repro.core.wire import Datagram
    from repro.obs import RingSlimcapWriter, SlimcapReader

    def five_datagrams(tap_at=None):
        sim = Simulator()
        network = Network(sim, default_rate_bps=8e6, propagation_delay=1e-3)
        network.attach(Endpoint("server"))
        sink = network.attach(Endpoint("sink"))
        ring = RingSlimcapWriter()
        network.send_burst(
            [
                Packet(
                    "server", "sink", 1000,
                    payload=Datagram(seq=seq, index=0, count=1, payload=b"x" * 8),
                )
                for seq in range(5)
            ]
        )
        if tap_at is not None:
            sim.run_until(tap_at)
        network.downlink("sink").capture = ring
        sim.run()
        assert sink.packets_received == 5
        records = SlimcapReader.from_bytes(ring.dump_bytes()).records()
        return [(r.time, r.datagram.seq) for r in records], sim.events_processed

    # They leave the sink's port at (about) 3, 4, 5, 6 and 7 ms.
    all_five, events = five_datagrams()
    assert ([seq for _, seq in all_five], events) == ([0, 1, 2, 3, 4], 5)
    # At 4.5 ms the third is serializing there; the last two are still
    # on the port's record, 2 ms of wire and switch away.
    assert five_datagrams(tap_at=4.5e-3) == (all_five[2:], 2)


def test_a_hook_assigned_long_after_unread_arrivals_hears_none_of_them():
    """Nobody read the fabric since the train left, so its hops are
    still on the port's record when the hook arrives, well after the
    last of them was delivered: they are settled as they happened —
    unheard — and not admitted under the new hook, which would owe
    deliveries in the past."""
    sim, network, sink = _five_anonymous_through_a_switch()
    got = []

    def listen():
        sink.on_receive = got.append

    sim.schedule_at(0.5, listen)
    sim.schedule_at(
        0.6, lambda: network.send_burst(Train("server", "sink", [700], flow="late"))
    )
    sim.run()
    assert [(packet.nbytes, packet.flow) for packet in got] == [(700, "late")]
    assert (sink.packets_received, sink.bytes_received) == (6, 5200)


def test_a_hook_assigned_after_the_drain_finds_everything_credited():
    sim, sink, _ = _five_on_one_link()
    sim.run()
    got = []
    sink.on_receive = got.append
    assert sim.pending == 0
    assert (sink.packets_received, got) == (5, [])


def test_clearing_the_hook_mid_run_keeps_the_count():
    """Deliveries already scheduled still count when they fire; later
    admissions are credited from the fold."""
    sim, sink, link = _five_on_one_link(hook=lambda packet: None)
    assert sim.pending == 5
    sink.on_receive = None
    for _ in range(3):
        link.send(Packet("src", "sink", 1000))
    assert sim.pending == 5
    sim.run_until(6.5e-3)
    assert sink.packets_received == 5
    sim.run()
    assert (sink.packets_received, sink.bytes_received) == (8, 8000)
