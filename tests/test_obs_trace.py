"""Causal update tracing, wire capture, and the analyzer toolchain.

The headline invariant (DESIGN.md section 9): on a lossy fabric, every
completed update's stage breakdown — encode / queueing / serialization /
switch / decode / paint (+ resend_wait for recovered updates) — sums to
the observed end-to-end simulated latency *exactly*, because the stages
telescope over the interval by construction.  Also covered: the
``.slimcap`` capture roundtrip, Chrome trace-event export validity, the
analyzer views of ``postmortem`` on a run record, and the zero-overhead
guarantee when observability is off.
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Rect
from repro.obs import (
    STAGES,
    RunRecord,
    SlimcapReader,
    SlimcapWriter,
    TimeSeriesCollection,
    TraceCollector,
    chrome_trace_events,
    load_bundle,
    stage_percentiles,
)
from repro.obs.capture import KIND_FRAME, KIND_LOSS, MAGIC
from repro.runcontext import RunContext, current_run, use_run
from repro.tools import postmortem
from repro.tools.replay import replay, session_from_capture
from repro.transport import DisplayChannel


def run_session(
    obs, loss_rate=0.08, seed=3, n_updates=30, size=(256, 256), spacing=0.004
):
    """Drive a paced FILL workload through a DisplayChannel under ``obs``."""
    with use_run(tracer=obs.tracer, capture=obs.capture):
        fb = FrameBuffer(*size)
        channel = DisplayChannel(fb, loss_rate=loss_rate, seed=seed)
        driver = channel.make_driver(track_baselines=False)
        rng = np.random.default_rng(0)
        t = 0.0
        for i in range(n_updates):
            channel.sim.run_until(t)
            ops = [
                PaintOp(
                    PaintKind.FILL,
                    Rect(
                        int(rng.integers(0, size[0] - 32)),
                        int(rng.integers(0, size[1] - 32)),
                        24,
                        24,
                    ),
                    color=(i * 7 % 256, 30, 40),
                )
            ]
            driver.update(channel.sim.now, ops)
            t += spacing
        channel.run()
    return channel


@pytest.fixture
def lossy_traced():
    """A lossy traced session known (by seed) to exercise recovery."""
    tracer = TraceCollector()
    channel = run_session(RunContext(tracer=tracer))
    return channel, tracer


class TestCausalBreakdown:
    def test_every_update_breakdown_sums_to_end_to_end(self, lossy_traced):
        channel, tracer = lossy_traced
        assert channel.converged and channel.resolved
        updates = tracer.completed_updates()
        assert len(updates) == 30  # every update accounted for, loss included
        for update in updates:
            breakdown = update.breakdown()
            assert breakdown is not None
            assert set(STAGES) <= set(breakdown)
            assert sum(breakdown.values()) == pytest.approx(
                update.end_to_end, abs=1e-12
            )

    def test_recovered_updates_surface_resend_wait(self, lossy_traced):
        channel, tracer = lossy_traced
        assert channel.recoveries > 0
        recovered = [
            u for u in tracer.completed_updates()
            if u.breakdown()["resend_wait"] > 0
        ]
        assert recovered, "seed 3 must exercise the recovery path"
        for update in recovered:
            # The NACK round-trip dominates a recovered update.
            assert update.breakdown()["resend_wait"] > 0.001
        # Losses mark the original message superseded, not painted.
        superseded = [t for t in tracer.messages if t.superseded]
        assert superseded
        assert all(t.painted_at is None for t in superseded)

    def test_message_stages_partition_paint_interval(self, lossy_traced):
        _, tracer = lossy_traced
        painted = [
            t for t in tracer.completed_messages() if t.painted_at is not None
        ]
        assert painted
        for trace in painted:
            assert sum(trace.stages.values()) == pytest.approx(
                trace.painted_at - trace.update_start, abs=1e-12
            )
            assert trace.stages["serialization"] > 0
            assert trace.stages["switch"] > 0
            assert trace.stages["decode"] > 0

    def test_stage_percentiles_accepts_traces_and_dicts(self, lossy_traced):
        _, tracer = lossy_traced
        completed = tracer.completed_messages()
        from_objects = stage_percentiles(completed)
        from_dicts = stage_percentiles([t.to_dict() for t in completed])
        assert from_objects == from_dicts
        assert "FILL" in from_objects
        fill = from_objects["FILL"]
        assert fill["end_to_end"]["count"] >= 30
        assert fill["end_to_end"]["p50"] > 0


class TestChromeTrace:
    def test_export_is_valid_and_contiguous(self, lossy_traced, tmp_path):
        _, tracer = lossy_traced
        document = chrome_trace_events(tracer.completed_messages())
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(document))
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        events = loaded["traceEvents"]
        assert events
        lanes = {}
        for event in events:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["name"] in STAGES
                assert event["dur"] >= 0
                lanes.setdefault(event["tid"], []).append(event)
        for lane in lanes.values():
            # Stages within a lane tile the interval without gaps.
            for a, b in zip(lane, lane[1:]):
                assert b["ts"] == pytest.approx(a["ts"] + a["dur"], abs=1e-6)

    def test_a_probe_round_is_one_span(self):
        """What the flight recorder's probe ring holds (a bundle frozen
        on a cell that only probes has nothing else): drawn, unless it
        was closed without a clock."""
        tracer = TraceCollector()
        ring = []
        tracer.probe_sink = ring.append
        timed = tracer.begin_probe("net.yardstick.round", 0.15)
        tracer.end_probe(timed, 0.4)
        tracer.end_probe(tracer.begin_probe("net.yardstick.round", 0.5))
        (event,) = chrome_trace_events(ring)["traceEvents"]
        assert (event["name"], event["cat"], event["ph"]) == (
            "net.yardstick.round", "probe", "X",
        )
        assert event["tid"] == timed
        assert (event["ts"], event["dur"]) == (0.15e6, pytest.approx(0.25e6))


class TestCapture:
    def test_roundtrip_frames_losses_and_messages(self, tmp_path):
        path = tmp_path / "run.slimcap"
        writer = SlimcapWriter(path)
        channel = run_session(RunContext(capture=writer))
        writer.close()
        assert path.read_bytes().startswith(MAGIC)

        reader = SlimcapReader(path)
        records = list(reader.records())
        frames = [r for r in records if r.kind == KIND_FRAME]
        losses = [r for r in records if r.kind == KIND_LOSS]
        assert len(frames) + len(losses) == writer.frames_written
        # The tap sits on the uplinks, so losses on the server's lossy
        # uplink appear as LOSS records.
        uplink_lost = channel.network.uplink("server").stats.packets_lost
        assert len(losses) == uplink_lost > 0
        assert {r.src for r in frames} == {"server", "console"}
        messages = list(reader.messages())
        opcodes = {m.opcode for m in messages}
        assert "FILL" in opcodes and "StatusMessage" in opcodes
        # Wire bytes survive the roundtrip (fragment headers included).
        for message in messages:
            assert message.wire_bytes > 0
            assert message.first_time <= message.time

    def test_embedded_traces_roundtrip(self, tmp_path):
        tracer = TraceCollector()
        path = tmp_path / "run.slimcap"
        writer = SlimcapWriter(path)
        run_session(RunContext(tracer=tracer, capture=writer))
        completed = tracer.completed_messages()
        for trace in completed:
            writer.trace(trace.to_dict(), now=trace.sent_at)
        writer.close()
        stored = SlimcapReader(path).traces()
        assert [t["trace_id"] for t in stored] == [
            t.trace_id for t in completed
        ]
        assert all(t["completed"] for t in stored)


class TestAnalyzerCli:
    @pytest.fixture
    def bundle_path(self, tmp_path):
        """A lossy session written as a run record."""
        record = RunRecord(tmp_path, "session")
        tracer = TraceCollector()
        run_session(RunContext(tracer=tracer, capture=record.capture))
        windows = TimeSeriesCollection()
        return record.write(tracer, windows, [])

    def test_summary_json(self, bundle_path, capsys):
        assert postmortem.main([str(bundle_path), "--summary", "--json"]) == 0
        output = json.loads(capsys.readouterr().out)
        summary = output["summary"]
        assert summary["per_opcode"]["FILL"]["messages"] >= 30
        assert summary["losses"] > 0
        assert summary["embedded_traces"] > 0

    def test_latency_and_timeline(self, bundle_path, capsys):
        code = postmortem.main(
            [str(bundle_path), "--latency", "--timeline", "--json"]
        )
        assert code == 0
        output = json.loads(capsys.readouterr().out)
        assert output["latency"]["FILL"]["end_to_end"]["count"] >= 30
        text = " ".join(e["event"] for e in output["timeline"])
        assert "NACK" in text and "RECOVERED" in text and "LOSS" in text
        assert "REENCODE" in text

    def test_chrome_trace_flag(self, bundle_path, tmp_path):
        out = tmp_path / "chrome.json"
        assert postmortem.main(
            [str(bundle_path), "--chrome-trace", str(out)]
        ) == 0
        document = json.loads(out.read_text())
        assert document["traceEvents"]

    def test_replay_accepts_slimcap(self, bundle_path):
        """Replay reads the bundle's ``ring.slimcap``."""
        session = session_from_capture(load_bundle(bundle_path).ring)
        assert len(session.updates) >= 30
        summary = replay(bundle_path, 384e3)
        assert summary["packets"] > 0
        assert summary["verdict"]


class TestZeroOverhead:
    def test_disabled_path_allocates_nothing_in_obs(self):
        assert current_run() == RunContext()
        run_session(RunContext(), n_updates=2)  # warm caches, imports, codecs
        tracemalloc.start()
        try:
            channel = run_session(RunContext(), n_updates=10)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        obs_allocations = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*/repro/obs/*")]
        ).statistics("filename")
        assert obs_allocations == []
        # And the fast-path guards resolved to "off" at construction.
        assert channel.network.uplink("server").capture is None
        assert channel.server_channel._trace is None
        assert channel.console._trace is None

    def test_packets_carry_no_trace_id_when_disabled(self):
        channel = run_session(RunContext(), n_updates=2, loss_rate=0.0)
        assert channel.server_channel.stats.messages_sent > 0
        # The Packet dataclass default keeps the field None end to end;
        # spot-check by sending one more message through the channel.
        sent = []
        original = channel.network.send

        def spy(packet):
            sent.append(packet)
            return original(packet)

        channel.network.send = spy
        channel.network.send_burst = lambda packets: [spy(p) for p in packets]
        from repro.core import commands as cmd
        from repro.core.commands import StatusKind

        channel.server_channel.send_command(
            cmd.StatusMessage(kind=StatusKind.SYNC, value=0)
        )
        assert sent and all(p.trace_id is None for p in sent)
