"""The allocation-free steady state (packet freelist + transient records).

A warmed-up session must stop churning the allocator: packets come from
the :class:`~repro.netsim.packet.Packet` freelist, and everything else
the fabric allocates per packet or event — the links' pending-credit
records among it — is transient (net zero).
The guard is a tracemalloc diff over a steady-state slice of the same
end-to-end session the ``e2e_session`` perf scenario runs, filtered to
the netsim hot-path modules.
"""

import tracemalloc
from bisect import bisect_right

from repro.core.wire import Datagram
from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Rect
from repro.netsim import packet as packet_module
from repro.netsim.engine import Simulator
from repro.netsim.link import FOLD_EVERY
from repro.netsim.packet import Packet, Train
from repro.netsim.transport import Endpoint, Network
from repro.obs import RingSlimcapWriter, SlimcapReader
from repro.transport import DisplayChannel

from tests.test_passive_sink import Releases, one_link_to_a_sink

#: Net surviving allocation blocks tolerated beyond the packet-pool
#: size.  A handful of O(1) live-state objects churn identity every
#: event (the floats behind running stats totals, the current heap
#: entries, pool list cells) and show up as "new" blocks even though
#: their count is constant; likewise each *pooled* packet holds the int
#: of its most recent ``packet_id``, allocated during the slice — that
#: term is O(pool size).  A real per-packet leak would instead scale
#: with the hundreds of packets the slice moves (asserted below).
NET_BLOCK_SLACK = 48


def _desktop_ops(width: int, height: int, seed: int):
    return [
        PaintOp(PaintKind.FILL, Rect(0, 0, width, height), color=(52, 70, 90)),
        PaintOp(
            PaintKind.TEXT,
            Rect(8, 8, width // 2, height // 2),
            fg=(0, 0, 0),
            bg=(255, 255, 255),
            seed=seed,
            char_count=200,
        ),
        # A noisy full-screen image: incompressible pixels fragment into
        # a long SET train, so the slice moves real packet volume.
        PaintOp(
            PaintKind.IMAGE,
            Rect(0, 0, width, height),
            seed=seed + 1,
            uniform_fraction=0.0,
        ),
    ]


def _run_slice(channel, driver, ops, rounds: int) -> None:
    for _ in range(rounds):
        for op in ops:
            driver.update(channel.sim.now, [op])
            channel.run()


def test_warmed_session_slice_is_allocation_free():
    width, height = 160, 120
    server_fb = FrameBuffer(width, height)
    channel = DisplayChannel(server_fb)
    driver = channel.make_driver(track_baselines=False)
    ops = _desktop_ops(width, height, seed=5)

    # Warm-up: primes the packet freelist, the engine queue's backing
    # list, and every lazily-built code path.
    _run_slice(channel, driver, ops, rounds=3)
    assert packet_module._pool, "warm-up never returned a packet to the pool"
    pool_before = len(packet_module._pool)

    netsim_filters = [
        tracemalloc.Filter(True, "*/repro/netsim/packet.py"),
        tracemalloc.Filter(True, "*/repro/netsim/link.py"),
        tracemalloc.Filter(True, "*/repro/netsim/engine.py"),
        tracemalloc.Filter(True, "*/repro/netsim/switch.py"),
    ]
    packets_before = channel.network.uplink("server").stats.packets_sent
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(netsim_filters)
        _run_slice(channel, driver, ops, rounds=5)
        after = tracemalloc.take_snapshot().filter_traces(netsim_filters)
    finally:
        tracemalloc.stop()

    packets_moved = (
        channel.network.uplink("server").stats.packets_sent - packets_before
    )
    assert packets_moved > 200, "slice did not exercise real traffic"
    net_blocks = sum(
        diff.count_diff for diff in after.compare_to(before, "filename")
    )
    budget = len(packet_module._pool) + NET_BLOCK_SLACK
    assert net_blocks <= budget, (
        f"steady-state slice leaked {net_blocks} allocation blocks "
        f"(budget {budget}) across {packets_moved} packets in the netsim "
        "hot path (freelists not recycling?)"
    )
    # The pool really cycled: the steady state reuses the warmed packets
    # rather than growing the freelist further.
    assert len(packet_module._pool) == pool_before
    assert server_fb.equals(channel.console.framebuffer)


def test_release_caps_pool_and_clears_payload():
    marker = object()
    packet = Packet.acquire("a", "b", 100, payload=marker)
    assert packet.pooled
    packet.release()
    assert not packet.pooled
    assert packet.payload is None
    # Double release is a no-op (flag already cleared).
    before = len(packet_module._pool)
    packet.release()
    assert len(packet_module._pool) == before
    # Plain constructor packets never enter the pool.
    plain = Packet(src="a", dst="b", nbytes=10)
    plain.release()
    assert plain not in packet_module._pool


def test_armed_session_slice_allocates_nothing_per_packet():
    """The same slice with the flight recorder armed (bounded tracer and
    frame ring, as the runner arms them by default): a traced packet
    costs one hop record per link while it is in flight and nothing that
    outlives the rings.  Once those are full, netsim + obs hold as many
    blocks after the slice as before it, however many packets moved."""
    from repro.obs import FlightRecorder
    from repro.runcontext import use_run

    width, height = 160, 120
    server_fb = FrameBuffer(width, height)
    recorder = FlightRecorder(out_dir=None, capture_bytes=1 << 16, max_traces=8)
    filters = [
        tracemalloc.Filter(True, "*/repro/netsim/*"),
        tracemalloc.Filter(True, "*/repro/obs/*"),
    ]
    # Traced from the start: a ring entry allocated during warm-up and
    # replaced during the slice then nets to zero, as it should.
    tracemalloc.start()
    try:
        with use_run(recorder=recorder):
            channel = DisplayChannel(server_fb)
            driver = channel.make_driver(track_baselines=False)
            ops = _desktop_ops(width, height, seed=5)
            _run_slice(channel, driver, ops, rounds=3)  # fills pools and rings
            assert recorder.capture.evicted > 0, "warm-up never filled the ring"
            assert len(recorder.tracer.updates) == 8
            uplink = channel.network.uplink("server")
            packets_before = uplink.stats.packets_sent
            frames_before = len(recorder.capture)
            before = tracemalloc.take_snapshot().filter_traces(filters)
            _run_slice(channel, driver, ops, rounds=5)
            after = tracemalloc.take_snapshot().filter_traces(filters)
    finally:
        tracemalloc.stop()

    packets_moved = uplink.stats.packets_sent - packets_before
    assert packets_moved > 200, "slice did not exercise real traffic"
    net_blocks = sum(
        diff.count_diff for diff in after.compare_to(before, "filename")
    )
    # A byte-budgeted ring holds a few more or fewer frames depending on
    # their sizes; each is one record tuple and its timestamp.
    ring_drift = 2 * abs(len(recorder.capture) - frames_before)
    budget = len(packet_module._pool) + NET_BLOCK_SLACK + ring_drift
    assert net_blocks <= budget, (
        f"armed steady-state slice kept {net_blocks} allocation blocks "
        f"(budget {budget}) across {packets_moved} packets in netsim + obs"
    )
    assert server_fb.equals(channel.console.framebuffer)


# ---------------------------------------------------------------------------
# Traffic nobody receives: the arrival is a pending credit, not an event
# ---------------------------------------------------------------------------


def test_warmed_sink_slice_is_allocation_free():
    """Fig 11's background load — trains from the server to an endpoint
    with no receive hook — recycles its packets and arrival records."""
    _warmed_sink_slice(anonymous=False)


def test_warmed_train_slice_is_allocation_free():
    """The same load as the generator sends it: anonymous trains, which
    build no packet at all and recycle their records at the switch port
    and at the sink."""
    _warmed_sink_slice(anonymous=True)


def _warmed_sink_slice(anonymous: bool) -> None:
    sim = Simulator()
    network = Network(sim, default_rate_bps=100e6)
    network.attach(Endpoint("server"))
    sink = network.attach(Endpoint("sink"))

    def run_slice(rounds: int) -> None:
        for _ in range(rounds):
            network.send_burst(
                Train("server", "sink", [1200] * 12)
                if anonymous
                else [Packet.acquire("server", "sink", 1200) for _ in range(12)]
            )
            sim.run_until(sim.now + 1.2e-3)  # about what the train occupies

    run_slice(40)
    received = sink.packets_received
    filters = [tracemalloc.Filter(True, "*/repro/netsim/*")]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(filters)
        run_slice(200)
        after = tracemalloc.take_snapshot().filter_traces(filters)
    finally:
        tracemalloc.stop()
    assert sink.packets_received - received > 2000
    assert sim.events_processed == 0
    net_blocks = sum(
        diff.count_diff for diff in after.compare_to(before, "filename")
    )
    budget = len(packet_module._pool) + NET_BLOCK_SLACK
    assert net_blocks <= budget, (
        f"sink slice kept {net_blocks} allocation blocks (budget {budget})"
    )


def _trickle(sim, link, on_step=lambda sent: None) -> int:
    """3000 packets of 500 bytes (0.5 ms each), three per 1.6 ms."""
    sent = 0
    for _ in range(1000):
        for _ in range(3):
            link.send(Packet.acquire("src", "sink", 500))
            sent += 1
            on_step(sent)
        sim.run_until(sim.now + 1.6e-3)
        on_step(sent)
    return sent


def test_a_sinks_books_stay_as_short_as_the_wire():
    """No delivery event folds a sink-bound link's records, and nobody
    reads it here: admissions alone keep every deque O(in flight)."""
    arrivals = []
    sim, _, link = one_link_to_a_sink(lambda packet: arrivals.append(sim.now))
    _trickle(sim, link)
    sim.run()

    sim, sink, link = one_link_to_a_sink()
    longest = [0]
    peak_in_flight = [0]

    def check(sent):
        # A fold leaves what is in flight then; up to FOLD_EVERY - 1
        # admissions follow before the next one.
        in_flight = sent - bisect_right(arrivals, sim.now)
        peak_in_flight[0] = max(peak_in_flight[0], in_flight)
        for books in (link._pending_arr, link._pending_fin, link._pending_start):
            assert len(books) <= peak_in_flight[0] + FOLD_EVERY
        longest[0] = max(longest[0], len(link._pending_arr))

    sent = _trickle(sim, link, check)
    assert sim.events_processed == 0
    assert longest[0] > FOLD_EVERY // 2  # the books really were in use
    assert peak_in_flight[0] < 16  # ... by 3000 packets, a few at a time
    sim.run()
    assert sink.packets_received == sent == len(arrivals)


def test_a_ports_record_stays_as_short_as_the_wire():
    """One hop upstream: arrivals for a port nobody hears wait on its
    record, which nobody reads here and no event drains — the feeder's
    own admissions do, so it holds what is in flight toward the switch
    plus at most FOLD_EVERY arrivals that are due."""
    sim = Simulator()
    network = Network(sim, default_rate_bps=8e6, propagation_delay=1e-3)
    network.attach(Endpoint("server"))
    sink = network.attach(Endpoint("sink"))
    port = network.downlink("sink")
    sent_at, longest, peak_in_flight = [], [0], [0]
    for _ in range(1000):
        # 1.5 ms of wire per 1.6 ms: the trains overlap the 1 ms flight.
        network.send_burst(Train("server", "sink", [500] * 3))
        sent_at.extend([sim.now] * 3)
        (inbox,) = port._inboxes
        # In flight toward the switch: finished or not, sent less than
        # the train's own 1.5 ms plus 1 ms of propagation ago.
        in_flight = len(sent_at) - bisect_right(sent_at, sim.now - 2.5e-3)
        peak_in_flight[0] = max(peak_in_flight[0], in_flight)
        assert len(inbox) <= in_flight + FOLD_EVERY
        longest[0] = max(longest[0], len(inbox))
        sim.run_until(sim.now + 1.6e-3)
    assert sim.events_processed == 0
    assert longest[0] > 3  # the record really was in use
    assert peak_in_flight[0] <= 6
    sim.run()
    assert sink.packets_received == 3000 and not inbox


def test_a_sink_bound_packet_is_recycled_once_at_its_arrival():
    """The arrival record owns the pooled packet until its instant is
    due — so a tap set on that link mid-run still finds the frames on
    the wire — and the fold releases it exactly once."""
    arrivals = []
    sim, _, link = one_link_to_a_sink(lambda packet: arrivals.append(sim.now))

    def send_five(link):
        ids = []
        for seq in range(5):
            datagram = Datagram(seq=seq, index=0, count=1, payload=b"x" * 8)
            packet = Packet.acquire("src", "sink", 1000, payload=datagram)
            ids.append(packet.packet_id)
            link.send(packet)
        return ids

    send_five(link)
    sim.run()

    sim, sink, link = one_link_to_a_sink()
    with Releases(sim) as releases:
        ids = send_five(link)  # finish at 1..5 ms, arrive 1 ms later
        sim.run_until(2.5e-3)
        assert sink.packets_received == 1
        ring = RingSlimcapWriter()
        link.capture = ring  # packets 2, 3 and 4 have yet to finish
        for arrive in arrivals[1:]:
            sim.run_until(arrive - 1e-6)
            before = sink.packets_received
            sim.run_until(arrive)
            assert sink.packets_received == before + 1
    assert [releases.by_packet[i] for i in ids] == [1] * 5
    assert all(releases.at[i] >= arrive for i, arrive in zip(ids, arrivals))
    frames = SlimcapReader.from_bytes(ring.dump_bytes()).records()
    assert [r.datagram.seq for r in frames if r.datagram is not None] == [2, 3, 4]
