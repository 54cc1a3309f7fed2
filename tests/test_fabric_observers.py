"""Observers ride the fabric's one admission path.

* tapping a loaded link mid-run changes nothing about the link and
  records exactly the frames that finish from then on;
* a capture frozen, closed or flushed at ``now`` holds exactly the
  records with ``t <= now`` — and a *lost* trailing datagram too once
  ``run()`` has drained the engine, with no later traffic to carry the
  clock there;
* link statistics and captures settle to one horizon — ``now`` after a
  ``run_until`` slice, everything after a drained ``run()`` — and no
  observer moves the clock: armed and bare runs end at the same instant;
* frames from different links that leave at the same instant come out
  by (time, tx_start, admission order);
* arming observers adds no engine events, capture tap included — a
  self-check that names the observer at fault — and whether an arrival
  costs one depends on the receiving endpoint, never on what is armed.
"""

from __future__ import annotations

import contextlib
import io
import zipfile

import numpy as np
import pytest

from repro.core.wire import Datagram
from repro.experiments.runner import EXPERIMENTS, ExperimentResult, experiment
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.obs import (
    FlightRecorder,
    RingSlimcapWriter,
    SlimcapReader,
    SlimcapWriter,
    TraceCollector,
)
from repro.runcontext import use_run
from repro.telemetry import MetricsRegistry

from tests import work_rigs
from tests.fabric_oracle import table_lines

RATE = 10e6


def _datagram(seq: int) -> Datagram:
    return Datagram(seq=seq, index=0, count=1, payload=bytes([seq % 251]) * 8)


def _frames(source):
    reader = (
        SlimcapReader.from_bytes(source)
        if isinstance(source, bytes)
        else SlimcapReader(source)
    )
    return [
        (r.kind_name, r.time, r.datagram.seq)
        for r in reader.records()
        if r.datagram is not None
    ]


# ---------------------------------------------------------------------------
# Tapping a loaded link mid-run
# ---------------------------------------------------------------------------


def _loaded_link(seed: int, tap_at=None, tap_path=None):
    """A lossy, queueing, otherwise unobserved link under seeded trains;
    optionally tapped at ``tap_at``.  Returns what the link did and what
    the tap saw."""
    sim = Simulator()
    link = Link(
        sim,
        rate_bps=RATE,
        propagation_delay=20e-6,
        deliver=lambda p: None,
        queue_limit_bytes=6000,
        loss_rate=0.2,
        rng=np.random.default_rng(seed),
    )
    plan = np.random.default_rng(seed + 1)
    sizes = plan.integers(200, 1500, size=200)
    cursor = [0]

    def send_some():
        i = cursor[0]
        if i >= 200:
            return
        n = int(plan.integers(1, 6))
        for k in range(n):
            link.send(
                Packet(
                    src="a", dst="b", nbytes=int(sizes[(i + k) % 200]),
                    payload=_datagram(i + k),
                )
            )
        cursor[0] = i + n
        sim.schedule(float(plan.integers(1, 30)) * 1e-4, send_some)

    sim.schedule(0.0, send_some)
    writer = None
    busy_share = []
    if tap_at is not None:
        sim.run_until(tap_at)
        writer = SlimcapWriter(tap_path)
        link.capture = writer
        for instant in np.linspace(tap_at, tap_at + 0.02, 9)[1:]:
            sim.run_until(float(instant))
            # Time spent serializing can never exceed time elapsed —
            # unless two packets were on the wire at once.
            busy_share.append(link.stats.busy_time / float(instant))
            assert link.utilization() <= 1.0
    sim.run()
    stats = link.stats
    result = {
        "stats": (
            stats.packets_sent, stats.bytes_sent, stats.packets_dropped,
            stats.packets_lost, stats.queue_delay_total, stats.busy_time,
        ),
        "ended_at": sim.now,
        "busy_share": busy_share,
    }
    if writer is not None:
        writer.close()
        result["frames"] = _frames(tap_path)
    return result


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_tapping_a_loaded_link_mid_run(seed, tmp_path):
    untapped = _loaded_link(seed)
    # Tapped before any traffic: the whole run's frames, for reference.
    whole = _loaded_link(seed, tap_at=0.0, tap_path=tmp_path / "whole.slimcap")
    tap_at = float(
        np.random.default_rng(seed + 2).uniform(0.2, 0.8) * untapped["ended_at"]
    )
    tapped = _loaded_link(seed, tap_at=tap_at, tap_path=tmp_path / "tap.slimcap")
    # The link itself is none the wiser ...
    assert whole["stats"] == untapped["stats"]
    assert tapped["stats"] == untapped["stats"]
    assert all(0.0 <= share <= 1.0 for share in tapped["busy_share"])
    assert max(tapped["busy_share"]) > 0.2  # the link really was loaded
    # ... and the capture holds exactly the frames that finish (or are
    # tail-dropped) after the tap — those queued before it included.
    expected = [frame for frame in whole["frames"] if frame[1] > tap_at]
    assert {"frame", "loss", "drop"} <= {kind for kind, _, _ in expected}
    assert 0 < len(expected) < len(whole["frames"])
    assert tapped["frames"] == expected


# ---------------------------------------------------------------------------
# Freeze / flush completeness
# ---------------------------------------------------------------------------


class _ScriptedDraws:
    """An rng stand-in: the link asks for one uniform draw per packet."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


NBYTES = 1000
SERIALIZATION = NBYTES * 8.0 / RATE


def _link_whose_last_datagram_is_lost(sim, capture):
    """Three datagrams sent at t = 0; the draws lose only the last.
    Nothing is ever sent again, so no later event visits the link."""
    delivered = []
    link = Link(
        sim,
        rate_bps=RATE,
        propagation_delay=20e-6,
        deliver=lambda p: delivered.append(p.payload.seq),
        loss_rate=0.5,
        rng=_ScriptedDraws([0.9, 0.9, 0.1]),
    )
    link.capture = capture
    for seq in range(3):
        link.send(Packet(src="a", dst="b", nbytes=NBYTES, payload=_datagram(seq)))
    return link, delivered


_ALL_THREE = [
    ("frame", SERIALIZATION, 0),
    ("frame", SERIALIZATION + SERIALIZATION, 1),
    ("loss", SERIALIZATION + SERIALIZATION + SERIALIZATION, 2),
]


def test_closed_capture_holds_the_trailing_loss(tmp_path):
    sim = Simulator()
    writer = SlimcapWriter(tmp_path / "c.slimcap")
    link, delivered = _link_whose_last_datagram_is_lost(sim, writer)
    sim.run()
    writer.close()
    assert delivered == [0, 1]
    assert _frames(writer.path) == _ALL_THREE
    assert link.stats.packets_lost == 1 and link.stats.packets_sent == 3


def test_frozen_ring_holds_exactly_the_past(tmp_path):
    sim = Simulator()
    recorder = FlightRecorder(out_dir=tmp_path, label="freeze")
    link, _ = _link_whose_last_datagram_is_lost(sim, recorder.capture)

    def ring_of(bundle):
        with zipfile.ZipFile(bundle) as archive:
            return _frames(archive.read("ring.slimcap"))

    # Mid-flight: the second frame has left, the lost third has not.
    sim.run_until(2.5 * SERIALIZATION)
    assert ring_of(recorder.trigger("mid-run")) == _ALL_THREE[:2]
    assert link.stats.packets_sent == 2 and link.stats.packets_lost == 0
    # Drained: the loss is on record, stamped at its finish — which no
    # event ever visited, so the clock is where the slice left it.
    sim.run()
    assert ring_of(recorder.trigger("drained")) == _ALL_THREE
    assert sim.now == 2.5 * SERIALIZATION < _ALL_THREE[-1][1]


def test_bare_and_tapped_links_settle_to_one_horizon():
    """The lost third packet finishes serializing at 3 x SERIALIZATION.
    A link read mid-slice does not count it yet, tapped or not; after a
    ``run()`` that drained the queue both do; neither run's clock moved
    past the last event."""
    ended_at = []
    for capture in (None, RingSlimcapWriter()):
        sim = Simulator()
        link, _ = _link_whose_last_datagram_is_lost(sim, capture)
        sim.run_until(2.5 * SERIALIZATION)
        stats = link.stats
        assert (stats.packets_sent, stats.packets_lost) == (2, 0)
        sim.run()
        stats = link.stats
        assert (stats.packets_sent, stats.packets_lost) == (3, 1)
        ended_at.append(sim.now)
    assert ended_at == [2.5 * SERIALIZATION] * 2


def test_interrupted_run_flushes_the_trailing_loss(tmp_path):
    """Ctrl-C in the runner: the --capture file and the frozen ring both
    hold the lost trailing datagram."""
    from repro.experiments.__main__ import main
    from repro.netsim.transport import Endpoint, Network

    @experiment("interrupt-flush-test")
    def run(config):
        sim = Simulator()
        network = Network(sim, default_rate_bps=RATE)
        network.attach(Endpoint("b"))
        network.attach(
            Endpoint("a"), loss_rate=0.5, rng=np.random.default_rng(0)
        )
        # Both directions of "a" got spawned generators; script the
        # uplink's draws instead.
        network.uplink("a").rng = _ScriptedDraws([0.9, 0.9, 0.1])
        for seq in range(3):
            network.send(
                Packet(src="a", dst="b", nbytes=NBYTES, payload=_datagram(seq))
            )
        sim.run()
        raise KeyboardInterrupt

    capture = tmp_path / "run.slimcap"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                status = main(
                    [
                        "--capture", str(capture),
                        "--postmortem-dir", str(tmp_path),
                        "interrupt-flush-test",
                    ]
                )
    finally:
        EXPERIMENTS.pop("interrupt-flush-test", None)
    assert status == 130
    assert _frames(capture) == _ALL_THREE
    (bundle,) = tmp_path.glob("*.slimpm")
    with zipfile.ZipFile(bundle) as archive:
        assert _frames(archive.read("ring.slimcap")) == _ALL_THREE


# ---------------------------------------------------------------------------
# Cross-link ties
# ---------------------------------------------------------------------------


def test_frames_tying_on_time_come_out_by_tx_start_then_admission(tmp_path):
    """Three links each finish a frame at t = 4 ms.  Admission order is
    11, 20, 30 (which is also the order their capture events sit in the
    engine's heap), but the wire saw 20 start first: the capture orders
    by (time, tx_start, admission)."""
    sim = Simulator()
    writer = SlimcapWriter(tmp_path / "ties.slimcap")

    def link(name):
        made = Link(
            sim, rate_bps=8e6, propagation_delay=0.0, deliver=lambda p: None,
            name=name,
        )
        made.capture = writer
        return made

    def send(on, seq, nbytes):
        on.send(Packet(src=on.name, dst="x", nbytes=nbytes, payload=_datagram(seq)))

    one, two, three = link("one"), link("two"), link("three")
    # 1 byte = 1 us at 8 Mbps.  All of these leave at t = 4 ms exactly.
    send(one, 10, 1000)   # starts 0
    send(one, 11, 3000)   # queued: starts 1 ms, ends 4 ms
    send(two, 20, 4000)   # starts 0, ends 4 ms (admitted after `one`'s)
    sim.run_until(0.002)
    send(three, 30, 2000)  # starts 2 ms, ends 4 ms (admitted last)
    send(two, 21, 500)     # queued behind 20: starts 4 ms
    sim.run()
    writer.close()
    at_tie = [f for f in _frames(writer.path) if f[1] == 0.004]
    assert [seq for _, _, seq in at_tie] == [20, 11, 30]


# ---------------------------------------------------------------------------
# Self-check: what does arming cost in engine events?
# ---------------------------------------------------------------------------

_OBSERVERS = {
    "tracer": lambda: use_run(tracer=TraceCollector()),
    "capture": lambda: use_run(capture=RingSlimcapWriter()),
    "telemetry": lambda: use_run(registry=MetricsRegistry()),
}


def _blame(body, bare_events):
    """Which single observer, attached alone, changes the event count?"""
    guilty = []
    for name, attach in _OBSERVERS.items():
        with attach():
            events = body()["sim_events"]
        if events != bare_events:
            guilty.append(f"{name} ({events - bare_events:+d} events)")
    return ", ".join(guilty) or "none alone (an interaction, or the runner)"


def _through_the_runner(experiment_id, flags, tmp_path):
    from repro.experiments.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(
            list(flags) + ["--postmortem-dir", str(tmp_path), experiment_id]
        )
    assert status == 0
    return table_lines(out.getvalue())


def _same_events_whatever_the_flags(body, tmp_path):
    """``body`` (a work rig returning ``sim_events``) through the
    runner under default flags, ``--no-flight-recorder``, ``--capture``
    and ``--metrics``: the same number of engine events, the same table."""
    seen = []

    @experiment("selfcheck-events")
    def run(config):
        counts = body()
        seen.append(counts["sim_events"])
        return ExperimentResult(
            "selfcheck-events", "self-check", rows=[dict(counts)]
        )

    flag_sets = {
        "default flags": [],
        "--no-flight-recorder": ["--no-flight-recorder"],
        "--capture": ["--capture", str(tmp_path / "run.slimcap")],
        "--metrics": ["--no-flight-recorder", "--metrics"],
    }
    try:
        tables = {
            name: _through_the_runner("selfcheck-events", flags, tmp_path)
            for name, flags in flag_sets.items()
        }
    finally:
        EXPERIMENTS.pop("selfcheck-events", None)
    events = dict(zip(flag_sets, seen))
    bare_events = events["--no-flight-recorder"]
    if set(seen) != {bare_events}:
        pytest.fail(
            f"observers changed the engine's event count: {events}; "
            "observers adding events when attached alone: "
            + _blame(body, bare_events)
        )
    bare = tables["--no-flight-recorder"]
    assert tables["default flags"] == bare
    assert tables["--capture"] == bare
    metered = tables["--metrics"]
    table_end = metered.index("") if "" in metered else len(metered)
    assert metered[:table_end] == bare[:table_end]


def test_arming_observers_adds_no_events_to_a_fig11_cell(tmp_path):
    """A Fig-11-style cell (yardstick + background load, no display
    datagrams)."""
    _same_events_whatever_the_flags(work_rigs.yardstick_load, tmp_path)


def test_arming_observers_adds_no_events_to_a_display_session(tmp_path):
    """A display session: every datagram is traced and captured, and
    none of it costs an engine event."""
    _same_events_whatever_the_flags(work_rigs.e2e_session, tmp_path)
    ring = RingSlimcapWriter(max_bytes=1 << 30)
    with use_run(capture=ring):
        work_rigs.e2e_session()
    assert ring.frames_written > 0  # the tap really was on the path


def test_arming_observers_adds_no_events_to_a_past_the_knee_cell(tmp_path):
    """Background load into a *hooked* server behind a backlogged port:
    which hops ride the port's record is decided by the port's own
    schedule, never by what is armed."""
    _same_events_whatever_the_flags(work_rigs.inbound_knee, tmp_path)


@pytest.mark.parametrize("hook", [None, lambda packet: None], ids=["sink", "hooked"])
def test_a_port_admitting_late_sees_the_queue_each_arrival_saw(hook):
    """``net.switch.queue_depth`` is the port as of each *arrival*, and
    a port admitting its record late settles to each packet's ``ready``
    — 5 us of forwarding delay later, past the next arrival when
    54-byte frames come 4.32 us apart.  Such an arrival looks before
    the port settles, and the one histogram over all ports is filed in
    arrival order: count, sum and the order-sensitive quantiles are
    those of an event per arrival, whoever hears the port."""
    from repro.netsim.transport import Endpoint, Network

    registry = MetricsRegistry()
    with use_run(registry=registry):
        sim = Simulator()
        network = Network(sim, default_rate_bps=100e6)
        for address in ("a", "b"):
            network.attach(Endpoint(address))
        network.attach(Endpoint("sink", on_receive=hook))
        for when, src, count, nbytes in (
            (0.0, "a", 4, 1190), (100e-6, "b", 60, 54), (430e-6, "a", 60, 54),
        ):
            sim.schedule_at(
                when,
                lambda s=src, c=count, n=nbytes: network.send_burst(
                    [Packet(s, "sink", n) for _ in range(c)]
                ),
            )
        sim.run()
    depth = registry.get("net.switch.queue_depth", switch="switch")
    assert (depth.count, depth.sum) == (124, 3773)
    assert depth.quantiles() == {
        0.5: 33.32133656891852, 0.9: 49.12051106982398, 0.99: 54.90355570297807,
    }


def test_a_run_ending_on_an_absorbed_arrival_is_the_same_armed_and_bare(tmp_path):
    """Whether a delivery costs an event depends on the endpoint having
    a receive hook, never on what is armed: the Fig 11 rig (yardstick
    probe + background load into a hook-less sink) fires the same events
    armed and bare, and a drained ``run()`` whose last packet the sink
    only absorbs ends at the same instant with that packet counted."""
    from repro.experiments import fig11
    from repro.loadgen import yardstick
    from repro.netsim.transport import Endpoint, Network

    profiles = [
        work_rigs.synthetic_profile(i, np.random.default_rng(i)) for i in range(4)
    ]

    def fig11_cell():
        sims = []

        def backend():
            sims.append(Simulator())
            return sims[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(yardstick, "Simulator", backend)
            rtt = fig11.yardstick_rtt(profiles, n_users=6, sim_seconds=7.0)
        return rtt, sims[0].events_processed

    def drained_tail():
        sim = Simulator()
        network = Network(sim, default_rate_bps=RATE)
        network.attach(Endpoint("server", on_receive=lambda packet: None))
        sink = network.attach(Endpoint("sink"))
        network.send_burst(
            [
                Packet("server", "sink", NBYTES, payload=_datagram(seq))
                for seq in range(3)
            ]
        )
        sim.run()
        down = network.downlink("sink").stats
        return (
            sim.events_processed, sim.now, sink.packets_received,
            sink.bytes_received, down.packets_sent, down.busy_time,
        )

    def armed():
        recorder = FlightRecorder(out_dir=tmp_path)
        return use_run(recorder=recorder, registry=MetricsRegistry())

    bare_cell, bare_tail = fig11_cell(), drained_tail()
    with armed():
        armed_cell, armed_tail = fig11_cell(), drained_tail()
    assert armed_cell == bare_cell
    assert armed_tail == bare_tail
    events, ended_at, received, nbytes, forwarded, _ = bare_tail
    assert (received, nbytes, forwarded) == (3, 3 * NBYTES, 3)
    # No event at all: nobody hears the hop into the switch either, so
    # the clock never leaves the instant the train was handed over.
    assert (events, ended_at) == (0, 0.0)
