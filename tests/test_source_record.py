"""A burst waiting on the switch's record == the same burst on its event.

A source that offers its bursts ahead of their instants
(``Link.offer``) pays an event per burst only while somebody can
observe the sending: bound for a switch port that is on record and that
nobody hears, a burst waits on the switch's record and is admitted as
of its own instant when something is due (DESIGN.md section 16.2, "The
record of a source").  Nothing may tell the two apart except the
engine's event count.  The twins are the stars of
``tests/test_passive_sink.py`` with drawn sources offering drawn bursts
to hook-less sinks, a quarter of the script at a time, while the hooks
elsewhere *reply* at their delivery instants:

* twin A as built;
* twin B with a throw-away ring writer tapped on every downlink from
  the start, which keeps every port off record and so every burst on
  its event (the packets carry no datagram: the rings stay empty).

Burst instants come from a grid, so sources tie with one another — on
one uplink, and at one port.  Each sink has a grid of its own, offset
from the others': bursts that tie are bound for one port and so wait, or
ride events, together.  (A burst on record and a ``send`` an event
carries at the same instant on one uplink are the one tie the twins
would break differently: the record comes first, as at a port —
DESIGN.md section 16.2, "Ties".)
"""

from __future__ import annotations

import contextlib
import itertools

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

SLOTS = 40  # burst instants: multiples of SPAN / SLOTS
QUARTER = SLOTS // 4  # a source offers this many slots at a time


@st.composite
def _sourced_stars(draw):
    """A star plus sources: ``(src, dst, [(slot, nbytes), ...])`` with
    ``dst`` hook-less, and maybe one sink that gets a hook and its port
    a tap part-way through."""
    star = draw(_stars())
    n = len(star["hookless"])
    sinks = [i for i, hookless in enumerate(star["hookless"]) if hookless]
    sources = []
    for _ in range(draw(st.integers(1, 4))):
        dst = draw(st.sampled_from(sinks))
        src = draw(st.sampled_from([i for i in range(n) if i != dst]))
        bursts = draw(
            st.lists(
                st.tuples(st.integers(0, SLOTS - 1), st.integers(1, 6000)),
                min_size=1,
                max_size=12,
            )
        )
        sources.append((src, dst, sorted(bursts)))
    star["sources"] = sources
    star["rearm"] = draw(
        st.none() | st.tuples(st.floats(0.05, 0.95), st.sampled_from(sinks))
    )
    return star


_CLEAN = {"queue": None, "loss": None, "jitter": 0.0}

#: Two sources whose first packets reach the sink's port at the same
#: float instant (125 B at 1 Mbps and 625 B at 5 Mbps both take 1 ms)
#: with different sizes, the later-offered one on the lower-numbered
#: node: the port's queue-delay sum depends on which it admits first.
TIED_AT_THE_PORT = {
    "hookless": [False, False, True],
    "access": [
        dict(_CLEAN, rate=1e6), dict(_CLEAN, rate=5e6), dict(_CLEAN, rate=20e6),
    ],
    "sends": 5,
    "seed": 1999,
    "sources": [
        (1, 2, [(3, 625), (3, 625), (17, 2000)]),
        (0, 2, [(3, 125), (17, 125)]),
    ],
    "rearm": None,
}

#: A hook on the sink and a tap on its port arrive between two offers,
#: with bursts of the current quarter still on record.
REARMED_MID_INTERVAL = {
    "hookless": [False, True, True],
    "access": [dict(_CLEAN, rate=5e6)] * 3,
    "sends": 10,
    "seed": 7,
    "sources": [
        (0, 1, [(slot, 700 + 450 * slot) for slot in range(0, SLOTS, 3)]),
        (2, 1, [(slot, 3100) for slot in range(1, SLOTS, 4)]),
    ],
    "rearm": (0.33, 1),
}


class _Source:
    """What ``NetworkLoadGenerator`` is to the fabric: it builds — and
    counts — a burst's train when asked to, and reads its count through
    its uplink."""

    def __init__(self, sim, network, src, dst):
        self.sim, self.network, self.src, self.dst = sim, network, src, dst
        self._emitted = 0

    def train(self, when, nbytes):
        full, tail = divmod(nbytes, 1500)
        sizes = [1500] * full + ([max(tail, 64)] if tail else [])
        self._emitted += len(sizes)
        train = Train(self.src, self.dst, sizes, flow="source")
        train.created_at = when
        return train

    def sender(self, nbytes):
        return lambda: self.network.send_burst(self.train(self.sim.now, nbytes))

    def offer(self, bursts):
        self.network.uplink(self.src).offer(
            self.dst, bursts, self.train, self.sender
        )

    @property
    def packets_emitted(self):
        _ = self.network.uplink(self.src).stats
        return self._emitted


def _run_twin(star, on_events: bool):
    """One twin: a reading per sample instant, one after the drain,
    what every hook heard, and the events fired."""
    sends, samples = _script(star)
    names = [f"n{i}" for i in range(len(star["hookless"]))]
    sim = Simulator()
    network = Network(sim, default_rate_bps=10e6)
    heard = []
    offered = [0]

    def listening(name, reply):
        def hook(packet):
            heard.append((name, sim.now, packet.src, packet.nbytes, packet.flow))
            if reply and packet.flow != "reply":
                # Sent from inside the delivery event, at its instant.
                offered[0] += 1
                network.send(
                    Packet(name, packet.src, 64 + packet.nbytes % 400, flow="reply")
                )

        return hook

    attach_rng = np.random.default_rng(star["seed"] + 1)
    for i, (name, hookless) in enumerate(zip(names, star["hookless"])):
        network.attach(
            Endpoint(name, on_receive=None if hookless else listening(name, True)),
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

    for when, burst, train in sends:
        sim.schedule_at(when, lambda b=burst, t=train: fire(b, t))

    sources = []
    for src, dst, bursts in star["sources"]:
        source = _Source(sim, network, names[src], names[dst])
        sources.append(source)
        for first in range(0, SLOTS, QUARTER):
            quarter = [
                ((slot + dst / 8) * SPAN / SLOTS, nbytes)
                for slot, nbytes in bursts
                if first <= slot < first + QUARTER
            ]
            if first == 0:
                source.offer(quarter)
            else:
                sim.schedule_at(
                    first * SPAN / SLOTS, lambda s=source, q=quarter: s.offer(q)
                )  # at or before the quarter's first instant

    if star["rearm"] is not None:
        fraction, sink = star["rearm"]

        def rearm():
            network.endpoint(names[sink]).on_receive = listening(names[sink], False)
            network.downlink(names[sink]).capture = RingSlimcapWriter()

        sim.schedule_at(fraction * SPAN, rearm)

    links = [network.uplink(name) for name in names]
    links += [network.downlink(name) for name in names]

    def reading(window=None):
        # The sources first, as the benchmark's tally reads them: what a
        # count says must not depend on which link was read before it.
        emitted = [source.packets_emitted for source in sources]
        per_link, lost, dropped = _link_readings(links, window)
        endpoints = [
            (network.endpoint(n).packets_received, network.endpoint(n).bytes_received)
            for n in names
        ]
        # Every link has just been settled:
        # offered = received + lost + dropped + in flight.
        in_flight = (
            offered[0] + sum(emitted)
            - sum(count for count, _ in endpoints) - lost - dropped
        )
        assert in_flight >= 0
        return {
            "emitted": emitted,
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
    assert final["in_flight"] == 0  # drained: no record outlived the run
    return readings, final, heard, sim.events_processed


@seed(1999)
@settings(deadline=None)
@given(star=_sourced_stars())
@example(star=TIED_AT_THE_PORT)
@example(star=REARMED_MID_INTERVAL)
def test_a_burst_on_record_is_the_same_burst_on_its_event(star):
    """Mutation check: a port that does not pull the sources' record
    before its own inboxes (``Link._pull`` without its first two
    lines) admits out of order — an arrival already on record at the
    port goes onto the wire ahead of a burst whose instant precedes
    it — and the port's queue-delay sums, and what hooks hear, move."""
    ours, ours_final, ours_heard, ours_events = _run_twin(star, on_events=False)
    theirs, theirs_final, theirs_heard, theirs_events = _run_twin(star, on_events=True)
    assert ours == theirs
    # Drained, twin B's clock may rest on a burst nobody heard (an event
    # there, a record here): never on anything a hook heard.
    assert ours_final.pop("now") <= theirs_final.pop("now")
    assert ours_final == theirs_final
    # The same packets, at the same float instants, in the same order.
    assert ours_heard == theirs_heard
    # A burst on record saves its event.  The hook that arrives before
    # the tap may leave one wake behind on a port that, for that
    # moment, was heard and still on record (DESIGN.md section 16.2,
    # "One re-arm contract").
    assert ours_events <= theirs_events + (star["rearm"] is not None)


def test_the_grid_ties_sources_at_a_port_and_offer_order_breaks_the_tie():
    """The property above is only as strong as its ties: here two
    packets of different sizes do reach the sink's port at one float
    instant, and the port's queue-delay sum says which went first —
    the one offered first, on either twin."""
    swapped = dict(TIED_AT_THE_PORT, sources=TIED_AT_THE_PORT["sources"][::-1])
    port = 3 + 2  # the downlink of n2 among the six links read
    waits = {}
    for label, star in (("as offered", TIED_AT_THE_PORT), ("swapped", swapped)):
        _, on_record, *_ = _run_twin(star, on_events=False)
        _, on_events, *_ = _run_twin(star, on_events=True)
        assert on_record["links"] == on_events["links"]
        waits[label] = on_record["links"][port][4]
    assert waits["as offered"] != waits["swapped"]


def test_rearming_a_sink_turns_what_is_left_into_events():
    *_, heard, _ = _run_twin(REARMED_MID_INTERVAL, on_events=False)
    at = REARMED_MID_INTERVAL["rearm"][0] * SPAN
    to_sink = [h for h in heard if h[0] == "n1"]
    assert to_sink and all(when > at for _, when, *_ in to_sink)
    assert {flow for *_, flow in to_sink} >= {"source"}


# ---------------------------------------------------------------------------
# A stretch of train packets admitted in one pass == the same packets
# through ``Link.admit``, one by one
# ---------------------------------------------------------------------------

#: A port buffer that binds under the drawn load, and one that does not.
_LIMITS = (None, 4_000, 1 << 20)


@st.composite
def _stretch_cases(draw, offered: bool):
    """1-3 feeders into one sink's port: trains sent at a grid instant
    (``send_burst``), single packets, and — when ``offered`` — bursts
    offered ahead of their instants; queue limits on the port and the
    feeders' uplinks that bind or do not; the sink hooked from the
    start, part-way through or never; the flight recorder armed or
    not."""
    feeders = draw(st.integers(1, 3))
    kinds = ("train", "packet", "offer") if offered else ("train", "packet")
    sends = draw(
        st.lists(
            st.tuples(
                st.integers(0, feeders - 1),
                st.integers(0, SLOTS - 1),
                st.sampled_from(kinds),
                st.lists(st.sampled_from([64, 700, 1500]), min_size=1, max_size=12),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return {
        "rates": draw(
            st.lists(
                st.sampled_from([2e6, 10e6, 50e6]),
                min_size=feeders + 1,
                max_size=feeders + 1,
            )
        ),
        "port_limit": draw(st.sampled_from(_LIMITS)),
        "uplink_limit": draw(st.sampled_from(_LIMITS)),
        # The slot the sink's hook arrives at: -1 from the start.
        "hook_at": draw(st.none() | st.just(-1) | st.integers(0, SLOTS)),
        "armed": draw(st.booleans()),
        "sends": sends,
        "reads": sorted(draw(st.lists(st.integers(0, 2 * SLOTS), max_size=4))),
    }


def _hexed(stats):
    return (
        stats.packets_sent, stats.bytes_sent, stats.packets_dropped,
        stats.packets_lost, stats.queue_delay_total.hex(), stats.busy_time.hex(),
    )


def _run_stretches(case, passes: bool):
    """The case run as built, or with every stretch patched onto
    ``Link.admit``: a reading per read instant and after the drain
    (every ``LinkStats`` field, queue occupancy, utilization, endpoint
    counters, packets forwarded and emitted), what ``send`` and
    ``send_burst`` returned (the drop positions at the uplinks), what
    the sink heard in order, and the events fired."""
    from unittest import mock

    from repro.netsim.link import Link
    from repro.obs import FlightRecorder
    from repro.runcontext import use_run

    feeders = [f"f{i}" for i in range(len(case["rates"]) - 1)]
    armed = use_run(recorder=FlightRecorder(out_dir=None)) if case["armed"] else None
    off = None if passes else mock.patch.object(Link, "_plain", lambda self: False)
    with contextlib.ExitStack() as stack:
        for context in (armed, off):
            if context is not None:
                stack.enter_context(context)
        sim = Simulator()
        network = Network(sim, default_rate_bps=10e6)
        heard = []

        def hook(packet):
            heard.append(
                (sim.now.hex(), packet.src, packet.nbytes, packet.flow, packet.hops)
            )

        for name, rate in zip(feeders, case["rates"]):
            network.attach(Endpoint(name), rate_bps=rate)
            network.uplink(name).queue_limit_bytes = case["uplink_limit"]
        network.attach(
            Endpoint("sink", on_receive=hook if case["hook_at"] == -1 else None),
            rate_bps=case["rates"][-1],
            queue_limit_bytes=case["port_limit"],
        )
        accepted = []
        ids = itertools.count(1)

        def fire(src, kind, sizes):
            if kind == "train":
                accepted.append(network.send_burst(Train(src, "sink", sizes, flow=src)))
            else:
                # Traced wherever a tracer is armed: its hops must match.
                packet = Packet(src, "sink", sizes[0], flow="single", trace_id=next(ids))
                accepted.append(network.send(packet))

        sources = {name: _Source(sim, network, name, "sink") for name in feeders}
        offers = {name: [] for name in feeders}
        for feeder, slot, kind, sizes in case["sends"]:
            when = slot * SPAN / SLOTS
            if kind == "offer":
                offers[feeders[feeder]].append((when, sum(sizes)))
            else:
                sim.schedule_at(
                    when, lambda s=feeders[feeder], k=kind, z=sizes: fire(s, k, z)
                )
        for name, bursts in offers.items():
            sources[name].offer(sorted(bursts))
        if case["hook_at"] not in (None, -1):

            def rearm():
                network.endpoint("sink").on_receive = hook

            sim.schedule_at(case["hook_at"] * SPAN / SLOTS, rearm)

        links = [network.uplink(name) for name in feeders] + [network.downlink("sink")]

        def reading():
            return (
                [source.packets_emitted for source in sources.values()],
                [_hexed(link.stats) for link in links],
                [(link.queue_depth, link.queued_bytes) for link in links],
                [link.utilization(SPAN).hex() for link in links],
                [
                    (network.endpoint(n).packets_received, network.endpoint(n).bytes_received)
                    for n in feeders + ["sink"]
                ],
                network.switch.packets_forwarded,
                sim.now,
            )

        readings = []
        for slot in case["reads"]:
            sim.run_until(slot * SPAN / SLOTS)
            readings.append(reading())
        sim.run()
        readings.append(reading())
        return readings, accepted, heard, sim.events_processed


@seed(1999)
@settings(deadline=None)
@given(case=_stretch_cases(offered=True))
def test_a_stretch_of_bursts_is_admitted_as_admit_would(case):
    """Bursts on the switch's record cross their uplink, and the port
    behind it, in one pass each (``Link._admit_bursts``,
    ``Link._admit_record``): nothing may tell that from the same bursts
    through ``Link.admit``, the engine's event count included."""
    assert _run_stretches(case, passes=True) == _run_stretches(case, passes=False)
