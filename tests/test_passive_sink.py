"""An arrival nobody receives costs no event.

A link that feeds an endpoint with no receive hook records each arrival
as a pending credit instead of scheduling a delivery; the fold credits
the endpoint's counters and recycles the packet.  Nothing may tell the
two apart except the engine's event count:

* a star drawn by Hypothesis, run as drawn and with every hook-less
  endpoint given a no-op hook, reads the same link statistics, queue
  occupancy, utilization and endpoint counters at random mid-run
  instants and after a drained ``run()``, conserves packets at every
  sample, and differs in ``events_processed`` by exactly the packets
  absorbed over event-free hops;
* a hook assigned while packets are on the wire receives exactly the
  packets that arrive from then on, at their arrival instants.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.link import GilbertElliottLoss, Link
from repro.netsim.packet import Packet
from repro.netsim.profiles import NetworkProfile
from repro.netsim.transport import Endpoint, Network


class Releases:
    """Counts effective :meth:`Packet.release` calls while entered, and
    notes the last one's instant on ``sim``'s clock."""

    def __init__(self, sim=None) -> None:
        self.sim = sim
        self.at = {}

    def __enter__(self):
        self.by_packet = Counter()
        real = Packet.release

        def counting(packet):
            if packet.pooled:
                self.by_packet[packet.packet_id] += 1
                if self.sim is not None:
                    self.at[packet.packet_id] = self.sim.now
            real(packet)

        self._patch = mock.patch.object(Packet, "release", counting)
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)

    @property
    def total(self) -> int:
        return sum(self.by_packet.values())


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


def _run_star(star, passive: bool):
    """The star as drawn (``passive``) or with a no-op hook on every
    hook-less endpoint.  Returns one reading per sample instant plus one
    after the drain."""
    sends, samples = _script(star)
    sim = Simulator()
    network = Network(sim, default_rate_bps=10e6)
    attach_rng = np.random.default_rng(star["seed"] + 1)
    heard = []
    names = [f"n{i}" for i in range(len(star["hookless"]))]
    for i, (name, hookless) in enumerate(zip(names, star["hookless"])):
        if hookless:
            hook = None if passive else (lambda packet: None)
        else:
            hook = lambda packet, name=name: heard.append(  # noqa: E731
                (sim.now, name, packet.src, packet.nbytes)
            )
        profile = _profile(i, star["access"][i])
        network.attach(
            Endpoint(name, on_receive=hook),
            profile=profile,
            rng=np.random.default_rng(int(attach_rng.integers(2**63))),
        )
    offered = [0]

    def fire(burst, train):
        packets = [
            Packet.acquire(names[src], names[dst], nbytes)
            for src, dst, nbytes in train
        ]
        offered[0] += len(packets)
        if burst:
            network.send_burst(packets)
        else:
            for packet in packets:
                network.send(packet)

    for when, burst, train in sends:
        sim.schedule_at(when, lambda b=burst, t=train: fire(b, t))

    links = [network.uplink(name) for name in names]
    links += [network.downlink(name) for name in names]

    def reading(releases, window=None):
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
        endpoints = [
            (network.endpoint(n).packets_received, network.endpoint(n).bytes_received)
            for n in names
        ]
        received = sum(count for count, _ in endpoints)
        # Every link has just been settled, so whatever has terminated
        # has been recycled: sent = received + lost + dropped + in flight
        # with "in flight" counted independently, as not yet released.
        in_flight = offered[0] - releases.total
        assert in_flight >= 0
        assert offered[0] == received + lost + dropped + in_flight
        assert set(releases.by_packet.values()) <= {1}
        absorbed = sum(
            endpoints[i][0]
            for i, hookless in enumerate(star["hookless"])
            if hookless and star["access"][i]["jitter"] == 0
        )
        return {
            "links": per_link,
            "endpoints": endpoints,
            "events": sim.events_processed,
            "absorbed": absorbed,
            "now": sim.now,
        }

    readings = []
    with Releases() as releases:
        for instant in samples:
            sim.run_until(instant)
            readings.append(reading(releases))
        sim.run()
        # The twins' clocks may differ here, so not "busy share of now".
        final = reading(releases, window=2 * SPAN)
        assert offered[0] == releases.total  # drained: nothing in flight
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
        assert theirs["events"] - ours["events"] == ours["absorbed"]
    for ours, theirs in zip(passive, hooked):
        assert ours["now"] == theirs["now"]
    # Drained, the hooked twin's clock ends on its last delivery event,
    # ours on the last event anything reacted to.
    assert passive_final["now"] <= hooked_final["now"]
    # Endpoints that do receive hear the same packets at the same instants.
    assert passive_heard == hooked_heard


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
        link.send(Packet.acquire("src", "sink", 1000))
    return sim, sink, link


def test_a_hook_assigned_mid_run_sees_the_arrivals_from_then_on():
    arrivals = []
    sim, _, _ = _five_on_one_link(hook=lambda packet: arrivals.append(sim.now))
    sim.run()
    assert len(arrivals) == 5

    with Releases() as releases:
        sim, sink, link = _five_on_one_link()
        assert sim.pending == 0  # nothing receives them: no event
        sim.run_until((arrivals[1] + arrivals[2]) / 2)
        assert (sink.packets_received, sink.bytes_received) == (2, 2000)
        assert releases.total == 2
        got = []
        sink.on_receive = lambda packet: got.append((sim.now, packet.nbytes))
        assert sim.pending == 3
        assert sink.packets_received == 2  # the first two stay credited
        sim.run()
    assert got == [(when, 1000) for when in arrivals[2:]]
    assert (sink.packets_received, sink.bytes_received) == (5, 5000)
    assert link.stats.packets_sent == 5
    assert sorted(releases.by_packet.values()) == [1] * 5
    assert sim.now == arrivals[-1]


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
        link.send(Packet.acquire("src", "sink", 1000))
    assert sim.pending == 5
    sim.run_until(6.5e-3)
    assert sink.packets_received == 5
    sim.run()
    assert (sink.packets_received, sink.bytes_received) == (8, 8000)
