"""Cross-shard causal-trace continuity (the flight recorder's stitching).

A display update that crosses a :class:`ShardContext` boundary port must
keep its telescoping stage partition: the sending shard exports the open
trace's context (``boundary_export``), the receiving shard adopts it
under the same global id (``boundary_adopt``), and the console's
decode/paint hooks close it with a ``shard_transit`` stage carrying the
boundary-port hop.  The parent gathers both shards' evidence at the
collect barrier and stitches by gid.

Pinned here, at a fixed seed/schedule:

* every relayed update completes with ``sum(stages) == end_to_end``
  (1e-12 — the repo-wide telescoping tolerance) and a positive
  ``shard_transit``;
* every stitched gid carries both the exporter's open partial and the
  adopter's completion, plus the boundary hop records;
* the same relay program built against a :class:`LocalBus` produces
  trace timelines that agree with the sharded run on stage ordering
  and latency — the single-process/sharded determinism seam.
"""

import pytest

from repro.core import commands as cmd
from repro.framebuffer import Rect
from repro.netsim.engine import Simulator
from repro.netsim.sharded import LocalBus, ShardedBackend
from repro.obs import STAGES, FlightRecorder
from repro.runcontext import current_run, use_run

PORT = "display-relay"
LOOKAHEAD = 1e-3
N_MESSAGES = 6
#: Fixed send schedule (sim seconds) — spaced so every command paints
#: before the next send, keeping the timeline trivially ordered.
SEND_TIMES = tuple(0.005 + 0.01 * i for i in range(N_MESSAGES))
RUN_UNTIL = 0.2


def _commands():
    return [
        cmd.FillCommand(
            rect=Rect(2 * i, i, 24, 16), color=(i * 11 % 256, 40, 60)
        )
        for i in range(N_MESSAGES)
    ]


class RelaySenderProgram:
    """Shard 0: ships a fixed schedule of FILL commands over the port."""

    def __init__(self, ctx, dst_shard):
        from repro.transport.relay import DisplayRelaySender

        self.sender = DisplayRelaySender(ctx, PORT, dst_shard=dst_shard)
        for when, command in zip(SEND_TIMES, _commands()):
            ctx.sim.schedule_at(
                when,
                (lambda c=command: self.sender.send(c)),
            )

    def collect(self):
        return {"sent": self.sender.messages_sent}


class RelayConsoleProgram:
    """Shard 1: reassembles, adopts the trace, decodes, paints."""

    def __init__(self, ctx):
        from repro.console import Console
        from repro.transport.relay import DisplayRelayReceiver

        self.console = Console(64, 48, sim=ctx.sim)
        self.receiver = DisplayRelayReceiver(ctx, PORT, self.console)

    def collect(self):
        return {"received": self.receiver.messages_received}


def build_relay_shard(ctx):
    """2-shard topology: sender on shard 0, console on shard 1.  On a
    1-shard bus (LocalBus) both halves share the context, and the relay
    degenerates to in-simulator delivery with identical delays."""
    if ctx.n_shards == 1:
        consumer = RelayConsoleProgram(ctx)
        producer = RelaySenderProgram(ctx, dst_shard=0)
        return {"sent": producer, "received": consumer}
    if ctx.shard_index == 0:
        return RelaySenderProgram(ctx, dst_shard=1)
    return RelayConsoleProgram(ctx)


def run_sharded_relay():
    """The 2-shard run under an armed flight recorder; returns the
    recorder after shard evidence is absorbed at the collect barrier."""
    recorder = FlightRecorder(out_dir=None, label="stitch-test")
    with use_run(recorder=recorder):
        with ShardedBackend(
            2, build=build_relay_shard, lookahead=LOOKAHEAD
        ) as backend:
            backend.run_until(RUN_UNTIL)
            collection = backend.collect()
    return recorder, collection


def run_local_relay():
    """The same program whole on one engine via LocalBus, traced."""
    recorder = FlightRecorder(out_dir=None, label="local-test")
    sim = Simulator()
    bus = LocalBus(sim, lookahead=LOOKAHEAD)
    with use_run(recorder=recorder):
        build_relay_shard(bus)
        sim.run_until(RUN_UNTIL)
    return recorder, bus


@pytest.fixture(scope="module")
def sharded_run():
    return run_sharded_relay()


@pytest.fixture(scope="module")
def local_run():
    return run_local_relay()


class TestShardedContinuity:
    def test_all_messages_relayed_and_painted(self, sharded_run):
        _, collection = sharded_run
        results = {k: v for r in collection.results for k, v in r.items()}
        assert results["sent"] == N_MESSAGES
        assert results["received"] == N_MESSAGES

    def test_every_stitched_trace_completes_with_exact_partition(
        self, sharded_run
    ):
        recorder, _ = sharded_run
        stitched = recorder.stitched_traces()
        completed = [s for s in stitched if s["completed"]]
        assert len(completed) == N_MESSAGES
        for entry in completed:
            stages = entry["stages"]
            assert set(STAGES) <= set(stages)
            # The boundary hop is real time on the critical path.
            assert stages["shard_transit"] >= LOOKAHEAD
            assert stages["decode"] > 0
            assert sum(stages.values()) == pytest.approx(
                entry["end_to_end"], abs=1e-12
            )

    def test_stitched_gids_carry_both_segments_and_the_hop(
        self, sharded_run
    ):
        recorder, _ = sharded_run
        for entry in recorder.stitched_traces():
            shards = {s.get("shard") for s in entry["segments"]}
            assert shards == {0, 1}
            exporter = [
                s for s in entry["segments"] if s.get("shard") == 0
            ]
            adopter = [
                s
                for s in entry["segments"]
                if s.get("shard") == 1 and s.get("cross_shard")
            ]
            assert exporter and adopter
            # The exporting shard's half is an open partial (it can
            # never see the paint); the adopting shard's half completed.
            assert all(s.get("open") for s in exporter)
            assert all(s.get("completed") for s in adopter)
            assert len(entry["hops"]) == 1
            hop = entry["hops"][0]
            assert hop["port"] == PORT
            assert (hop["src_shard"], hop["dst_shard"]) == (0, 1)
            assert hop["arrival"] - hop["sent_at"] >= LOOKAHEAD

    def test_shard_wire_frames_absorbed_into_parent_ring(self, sharded_run):
        recorder, _ = sharded_run
        # The sending shard captured one frame per datagram into its
        # ring; the collect barrier shipped them to the parent.
        assert len(recorder.capture) >= N_MESSAGES
        data = recorder.capture.dump_bytes()
        from repro.obs import SlimcapReader

        reader = SlimcapReader.from_bytes(data)
        frames = list(reader.frames())
        assert len(frames) >= N_MESSAGES
        assert not reader.truncated


class TestLocalEquivalence:
    def test_local_bus_relay_completes_all_traces(self, local_run):
        recorder, _ = local_run
        completed = [t for t in recorder.traces if t.get("completed")]
        assert len(completed) == N_MESSAGES
        for record in completed:
            assert record["cross_shard"]
            assert sum(record["stages"].values()) == pytest.approx(
                record["end_to_end"], abs=1e-12
            )

    def test_sharded_and_local_timelines_agree(self, sharded_run, local_run):
        sharded_rec, _ = sharded_run
        local_rec, _ = local_run

        def timeline(stages):
            return [s for s in STAGES if stages[s] > 0]

        sharded_done = sorted(
            (s for s in sharded_rec.stitched_traces() if s["completed"]),
            key=lambda s: s["gid"],
        )
        local_done = sorted(
            (t for t in local_rec.traces if t.get("completed")),
            key=lambda t: t["gid"],
        )
        assert len(sharded_done) == len(local_done) == N_MESSAGES
        for sharded_entry, local_entry in zip(sharded_done, local_done):
            # Stage ordering agrees: the same stages are non-empty, in
            # the same order, on both backends.
            assert timeline(sharded_entry["stages"]) == timeline(
                local_entry["stages"]
            )
            # And the latencies themselves match: boundary delivery is
            # deterministic and the delays are identical by construction.
            assert sharded_entry["end_to_end"] == pytest.approx(
                local_entry["end_to_end"], abs=1e-12
            )

    def test_ambient_recorder_restored(self):
        assert current_run().recorder is None
