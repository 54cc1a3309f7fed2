"""The steady state keeps nothing per packet.

Whatever the fabric allocates per packet or event — the packets, the
links' pending-credit records, the heap entries — is transient: a
warmed-up session holds as many blocks after a slice as before it, give
or take what is on the wire at the two instants.  The guard is a
tracemalloc diff, filtered to the modules under test, over two
consecutive slices of one warmed rig, the second :data:`LONGER` times
the first: what is constant — records not folded yet, deque blocks, the
rings' drift — cancels in the *difference* of what the two keep, and a
leak of one block per packet shows in it as one block per extra packet,
whatever ran in the process before.
"""

import tracemalloc
from bisect import bisect_right

from repro.core.wire import Datagram
from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Rect
from repro.netsim.engine import Simulator
from repro.netsim.link import FOLD_EVERY
from repro.netsim.packet import Packet, Train
from repro.netsim.transport import Endpoint, Network
from repro.obs import FlightRecorder, RingSlimcapWriter, SlimcapReader
from repro.runcontext import use_run
from repro.transport import DisplayChannel

from tests.test_passive_sink import one_link_to_a_sink

#: The second slice's length, in firsts.
LONGER = 4
#: Extra packets per extra surviving block the longer slice may keep.
#: A session: one block per *update* does outlive it, outside the
#: fabric's hands — the clock float an event set, kept wherever a layer
#: above stored ``sim.now`` — and its updates are 16 packets each; a
#: leaked packet, record or heap entry is at least one block per packet.
SESSION_PACKETS_PER_BLOCK = 4
#: Trains to a sink fire no event, so nothing is excused: one block
#: kept per train of 12 shows twice over.
SINK_PACKETS_PER_BLOCK = 24


def _assert_nothing_kept_per_packet(
    filters, run_slice, rounds, packets, packets_per_block
) -> None:
    """Run ``rounds`` rounds of ``run_slice``, then :data:`LONGER` times
    as many, and compare the net blocks allocated under ``filters`` that
    outlive each.  ``packets()`` is the rig's running packet count.
    tracemalloc must have been tracing since the rig was built, so an
    object replaced during a slice nets to zero."""
    kept, moved = [], []
    before = tracemalloc.take_snapshot().filter_traces(filters)
    for n in (rounds, LONGER * rounds):
        start = packets()
        run_slice(n)
        moved.append(packets() - start)
        after = tracemalloc.take_snapshot().filter_traces(filters)
        kept.append(
            sum(diff.count_diff for diff in after.compare_to(before, "filename"))
        )
        before = after
    extra = moved[1] - moved[0]
    assert extra > 1000, "the slices did not exercise real traffic"
    assert kept[1] - kept[0] <= extra / packets_per_block, (
        f"the longer slice kept {kept[1]} blocks, the shorter {kept[0]}: "
        f"{kept[1] - kept[0]} more for {extra} more packets"
    )


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


def _session_slices(filters, armed: bool) -> None:
    width, height = 160, 120
    server_fb = FrameBuffer(width, height)
    recorder = (
        FlightRecorder(out_dir=None, capture_bytes=1 << 16, max_traces=8)
        if armed
        else None
    )
    tracemalloc.start()
    try:
        with use_run(recorder=recorder):
            channel = DisplayChannel(server_fb)
            driver = channel.make_driver(track_baselines=False)
            ops = _desktop_ops(width, height, seed=5)
            # Warm-up: primes the engine queue's backing list, every
            # lazily-built code path and, armed, the rings.
            _run_slice(channel, driver, ops, rounds=3)
            if armed:
                assert recorder.capture.evicted > 0, "warm-up never filled the ring"
                assert len(recorder.tracer.updates) == 8
            uplink = channel.network.uplink("server")
            _assert_nothing_kept_per_packet(
                filters,
                lambda rounds: _run_slice(channel, driver, ops, rounds),
                10,
                lambda: uplink.stats.packets_sent,
                SESSION_PACKETS_PER_BLOCK,
            )
    finally:
        tracemalloc.stop()
    assert server_fb.equals(channel.console.framebuffer)


def test_warmed_session_slice_is_allocation_free():
    _session_slices(
        [
            tracemalloc.Filter(True, "*/repro/netsim/packet.py"),
            tracemalloc.Filter(True, "*/repro/netsim/link.py"),
            tracemalloc.Filter(True, "*/repro/netsim/engine.py"),
            tracemalloc.Filter(True, "*/repro/netsim/switch.py"),
        ],
        armed=False,
    )


def test_armed_session_slice_allocates_nothing_per_packet():
    """The same slices with the flight recorder armed (bounded tracer and
    frame ring, as the runner arms them by default): a traced packet
    costs one hop record per link while it is in flight and nothing that
    outlives the rings.  Once those are full, netsim + obs hold as many
    blocks after a slice as before it, however many packets moved."""
    _session_slices(
        [
            tracemalloc.Filter(True, "*/repro/netsim/*"),
            tracemalloc.Filter(True, "*/repro/obs/*"),
        ],
        armed=True,
    )


# ---------------------------------------------------------------------------
# Traffic nobody receives: the arrival is a pending credit, not an event
# ---------------------------------------------------------------------------


def test_warmed_sink_slice_is_allocation_free():
    """Fig 11's background load — trains from the server to an endpoint
    with no receive hook — keeps no packet and no arrival record."""
    _warmed_sink_slices(anonymous=False)


def test_warmed_train_slice_is_allocation_free():
    """The same load as the generator sends it: anonymous trains, which
    build no packet at all and keep no record at the switch port or at
    the sink."""
    _warmed_sink_slices(anonymous=True)


def _warmed_sink_slices(anonymous: bool) -> None:
    tracemalloc.start()
    try:
        sim = Simulator()
        network = Network(sim, default_rate_bps=100e6)
        network.attach(Endpoint("server"))
        sink = network.attach(Endpoint("sink"))

        def run_slice(rounds: int) -> None:
            for _ in range(rounds):
                network.send_burst(
                    Train("server", "sink", [1200] * 12)
                    if anonymous
                    else [Packet("server", "sink", 1200) for _ in range(12)]
                )
                sim.run_until(sim.now + 1.2e-3)  # about what the train occupies

        run_slice(40)
        _assert_nothing_kept_per_packet(
            [tracemalloc.Filter(True, "*/repro/netsim/*")],
            run_slice,
            100,
            lambda: sink.packets_received,
            SINK_PACKETS_PER_BLOCK,
        )
    finally:
        tracemalloc.stop()
    assert sim.events_processed == 0


def _trickle(sim, link, on_step=lambda sent: None) -> int:
    """3000 packets of 500 bytes (0.5 ms each), three per 1.6 ms."""
    sent = 0
    for _ in range(1000):
        for _ in range(3):
            link.send(Packet("src", "sink", 500))
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


def test_a_sink_bound_packet_is_credited_once_at_its_arrival():
    """The finish record keeps the packet until it folds — so a tap set
    on that link mid-run still finds the frames on the wire — and the
    arrival record credits the sink at the arrival instant, not before."""
    arrivals = []
    sim, _, link = one_link_to_a_sink(lambda packet: arrivals.append(sim.now))

    def send_five(link):
        for seq in range(5):
            datagram = Datagram(seq=seq, index=0, count=1, payload=b"x" * 8)
            link.send(Packet("src", "sink", 1000, payload=datagram))

    send_five(link)
    sim.run()

    sim, sink, link = one_link_to_a_sink()
    send_five(link)  # finish at 1..5 ms, arrive 1 ms later
    sim.run_until(2.5e-3)
    assert sink.packets_received == 1
    ring = RingSlimcapWriter()
    link.capture = ring  # packets 2, 3 and 4 have yet to finish
    for arrive in arrivals[1:]:
        sim.run_until(arrive - 1e-6)
        before = sink.packets_received
        sim.run_until(arrive)
        assert sink.packets_received == before + 1
    frames = SlimcapReader.from_bytes(ring.dump_bytes()).records()
    assert [r.datagram.seq for r in frames if r.datagram is not None] == [2, 3, 4]
