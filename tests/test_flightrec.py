"""The flight recorder: rings, triggers, bundles, and the triage CLI.

Covers the always-on post-mortem pipeline end to end: the byte-budgeted
:class:`RingSlimcapWriter` (roundtrip, eviction, tee), the
:class:`SlimcapReader`'s tolerance of hand-truncated captures (what an
interrupted run leaves behind), streaming SLO / loss-burst triggers
freezing the rings into ``.slimpm`` bundles, and the
``python -m repro.tools.postmortem`` CLI's exit-code contract
(0 = readable bundle, 2 = corrupt) plus its blame view's exact
stage-sum invariant.
"""

import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Rect
from repro.netsim.engine import Simulator
from repro.obs import (
    STAGES,
    FlightRecorder,
    RingSlimcapWriter,
    SlimcapReader,
    SlimcapWriter,
    TraceCollector,
)
from repro.obs.flightrec import BUNDLE_SUFFIX, load_bundle, write_bundle
from repro.obs.slo import INTERACTIVITY_SLOS, SloSpec
from repro.obs.timeseries import RunSeries
from repro.runcontext import RunContext, current_run, use_run
from repro.tools import postmortem
from repro.transport import DisplayChannel


def lossy_session(obs, loss_rate=0.08, seed=3, n_updates=30):
    """A paced FILL workload over a lossy DisplayChannel (same shape as
    the causal-tracing suite's fixture; seed 3 exercises recovery)."""
    with use_run(tracer=obs.tracer, capture=obs.capture):
        fb = FrameBuffer(256, 256)
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
                        int(rng.integers(0, 224)),
                        int(rng.integers(0, 224)),
                        24,
                        24,
                    ),
                    color=(i * 7 % 256, 30, 40),
                )
            ]
            driver.update(channel.sim.now, ops)
            t += 0.004
        channel.run()
    return channel


def recorded_session(tmp_path, **kwargs):
    """A lossy session with the recorder's rings as the obs sinks."""
    recorder = FlightRecorder(out_dir=tmp_path, label="testrun", **kwargs)
    with use_run(recorder=recorder) as run:
        channel = lossy_session(run)
    return recorder, channel


# -- the wire-frame ring ----------------------------------------------------


class TestRingSlimcapWriter:
    def test_dump_is_a_valid_capture(self, tmp_path):
        recorder, _ = recorded_session(tmp_path)
        ring = recorder.capture
        assert len(ring) > 0 and ring.evicted == 0
        reader = SlimcapReader.from_bytes(ring.dump_bytes())
        frames = [r for r in reader.records() if r.datagram is not None]
        assert len(frames) == len(ring)
        assert not reader.truncated

    def test_evicts_oldest_under_byte_budget(self, tmp_path):
        recorder, _ = recorded_session(tmp_path, capture_bytes=512)
        ring = recorder.capture
        assert ring.evicted > 0
        assert ring.ring_bytes <= 512
        # Endpoint interning survives eviction: the dump is still a
        # well-formed capture whose frames resolve their addresses.
        reader = SlimcapReader.from_bytes(ring.dump_bytes())
        records = list(reader.records())
        assert records
        assert all(r.src and r.dst for r in records if r.datagram is not None)

    def test_tee_mirrors_frames_to_file(self, tmp_path):
        path = tmp_path / "mirror.slimcap"
        ring = RingSlimcapWriter(max_bytes=1 << 16, tee=SlimcapWriter(path))
        tracer = TraceCollector()
        with use_run(recorder=FlightRecorder(out_dir=None)):
            lossy_session(RunContext(tracer=tracer, capture=ring))
        ring.close()  # closes only the tee
        on_disk = [
            r
            for r in SlimcapReader(path).records()
            if r.datagram is not None
        ]
        assert len(on_disk) == len(ring)


# -- truncated captures (what an interrupted run leaves behind) -------------


class TestTruncatedCapture:
    @pytest.fixture
    def capture_path(self, tmp_path):
        path = tmp_path / "whole.slimcap"
        tracer = TraceCollector()
        writer = SlimcapWriter(path)
        lossy_session(RunContext(tracer=tracer, capture=writer))
        writer.close()
        return path

    def test_reader_tolerates_truncated_tail(self, capture_path):
        whole = list(SlimcapReader(capture_path).records())
        data = capture_path.read_bytes()
        for cut in (3, 10, len(data) // 2):
            stub = capture_path.parent / f"cut{cut}.slimcap"
            stub.write_bytes(data[:-cut])
            reader = SlimcapReader(stub)
            partial = list(reader.records())
            assert reader.truncated
            assert 0 < len(partial) < len(whole)
            # The surviving prefix is bit-identical to the full capture.
            for kept, original in zip(partial, whole):
                assert kept.time == original.time
                assert kept.kind == original.kind

    def test_postmortem_warns_but_succeeds(self, capture_path, capsys):
        """A bundle whose wire ring ends mid-record still triages."""
        data = capture_path.read_bytes()
        stub = capture_path.parent / "truncated.slimpm"
        write_bundle(stub, {"label": "cut"}, {"ring.slimcap": data[:-7]})
        assert postmortem.main([str(stub), "--blame"]) == 0
        assert "mid-record" in capsys.readouterr().out
        assert postmortem.main([str(stub), "--summary", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["truncated"]


# -- triggers ---------------------------------------------------------------


def _violating_window(t0=0.0, t1=1.0):
    return {
        "t0": t0,
        "t1": t1,
        "counters": {},
        "gauges": {"test.latency{probe=echo}": 9.0},
        "histograms": {},
        "trace_ids": [7, 11],
    }


TEST_SPEC = SloSpec(
    name="test_latency",
    metric="test.latency",
    kind="gauge",
    threshold=1.0,
    op="<=",
    budget=0.05,
    event="test_spike",
    description="synthetic gauge SLO for trigger tests",
)


def close(recorder, run, window):
    """Close ``window`` of ``run`` as the sampler does: the run grades
    it, and the recorder hears the answers."""
    recorder.observe_window(run, window, run.append_window(window))


class TestTriggers:
    def test_slo_violation_freezes_a_bundle(self, tmp_path):
        recorder = FlightRecorder(out_dir=tmp_path, label="slo run")
        close(recorder, RunSeries("run-a", specs=[TEST_SPEC]), _violating_window())
        assert len(recorder.triggers) == 1
        trigger = recorder.triggers[0]
        assert trigger["kind"] == "test_spike"
        assert trigger["trace_ids"] == [7, 11]
        bundle = recorder.last_bundle
        assert bundle is not None and bundle.suffix == BUNDLE_SUFFIX
        manifest = json.loads(
            zipfile.ZipFile(bundle).read("manifest.json")
        )
        assert manifest["format"] == "slimpm"
        assert manifest["reason"]["kind"] == "test_spike"

    def test_each_run_spec_pair_fires_once(self, tmp_path):
        recorder = FlightRecorder(out_dir=tmp_path, label="dedup")
        run_a = RunSeries("run-a", specs=[TEST_SPEC])
        for i in range(4):
            close(recorder, run_a, _violating_window(i, i + 1.0))
        close(
            recorder,
            RunSeries("run-b", specs=[TEST_SPEC]),
            _violating_window(9.0, 10.0),
        )
        kinds = [(t["kind"], t["run"]) for t in recorder.triggers]
        assert kinds == [("test_spike", "run-a"), ("test_spike", "run-b")]

    def test_loss_burst_detector(self, tmp_path):
        recorder = FlightRecorder(out_dir=tmp_path, label="burst")
        window = {
            "t0": 0.0,
            "t1": 1.0,
            "counters": {"net.link.packets_lost{link=a->b}": 12.0},
            "gauges": {},
            "histograms": {},
        }
        close(recorder, RunSeries("cell", specs=[]), window)
        assert [t["kind"] for t in recorder.triggers] == ["loss_burst"]
        assert recorder.triggers[0]["value"] == 12.0

    def test_no_evidence_means_no_file(self, tmp_path):
        recorder = FlightRecorder(out_dir=tmp_path, label="empty")
        assert recorder.trigger("keyboard_interrupt") is None
        assert recorder.triggers and not recorder.bundles
        assert not list(tmp_path.iterdir())

    def test_bundle_cap(self, tmp_path):
        recorder = FlightRecorder(
            out_dir=tmp_path, label="capped", max_bundles=2
        )
        for i in range(5):
            run = RunSeries(f"run-{i}", specs=[TEST_SPEC])
            close(recorder, run, _violating_window())
        assert len(recorder.triggers) == 5
        assert len(recorder.bundles) == 2

    def test_status_line_tracks_state(self, tmp_path):
        recorder = FlightRecorder(out_dir=tmp_path, label="status")
        assert recorder.status_line() == "armed"
        close(recorder, RunSeries("run-a", specs=[TEST_SPEC]), _violating_window())
        line = recorder.status_line()
        assert "TRIGGERED x1" in line and "test_spike" in line
        assert str(recorder.last_bundle) in line


#: A loose-budget gauge objective: it freezes the rings only on a
#: 3-window streak, where the default specs fire on the first window.
LOOSE_LEVEL = SloSpec(
    name="level_cap",
    metric="test.level",
    kind="gauge",
    threshold=1.0,
    budget=0.25,
)

#: A drawn telemetry window: loss spread over three links, a
#: ``test.level`` gauge, yardstick round trips by bucket (<= 50 ms,
#: <= 150 ms, <= 500 ms, beyond).
_drawn_windows = st.lists(
    st.fixed_dictionaries(
        {
            "run": st.sampled_from(["cell-a", "cell-b"]),
            "lost": st.lists(st.integers(0, 4), min_size=3, max_size=3),
            "level": st.sampled_from([None, 0, 1, 2]),
            "rtts": st.lists(st.integers(0, 5), min_size=4, max_size=4),
        }
    ),
    min_size=1,
    max_size=20,
)


def _telemetry_window(t0, drawn):
    counters = {
        f"net.link.packets_{'dropped' if link == 2 else 'lost'}{{link=l{link}}}": n
        for link, n in enumerate(drawn["lost"])
        if n
    }
    window = {
        "t0": t0,
        "t1": t0 + 1.0,
        "counters": counters,
        "gauges": {},
        "histograms": {},
        "trace_ids": [int(t0)],
    }
    if drawn["level"] is not None:
        window["gauges"]["test.level{client=1}"] = drawn["level"]
    if sum(drawn["rtts"]):
        bounds = (0.05, 0.15, 0.5, float("inf"))
        window["histograms"]["net.yardstick.rtt_seconds"] = {
            "count": sum(drawn["rtts"]),
            "sum": 0.1 * sum(drawn["rtts"]),
            "buckets": [list(pair) for pair in zip(bounds, drawn["rtts"])],
        }
    return window


@settings(deadline=None)
@given(drawn_windows=_drawn_windows)
def test_a_trigger_is_in_the_verdict_of_the_windows_it_froze(drawn_windows):
    """Whatever froze the rings, the verdict so far of the runs in the
    frozen window slice (a bundle's ``slo.jsonl``) holds that event,
    with that value."""
    specs = INTERACTIVITY_SLOS + (LOOSE_LEVEL,)
    recorder = FlightRecorder(out_dir=None)
    runs = {label: RunSeries(label, specs=specs) for label in ("cell-a", "cell-b")}
    clock = {"cell-a": 0.0, "cell-b": 0.0}
    for drawn in drawn_windows:
        fired = len(recorder.triggers)
        label = drawn["run"]
        close(recorder, runs[label], _telemetry_window(clock[label], drawn))
        clock[label] += 1.0
        if len(recorder.triggers) == fired:
            continue
        _slice, report = recorder._slice()
        for trigger in recorder.triggers[fired:]:
            assert [
                event
                for event in report.events
                if (event.kind, event.run, event.value)
                == (trigger["kind"], trigger["run"], trigger["value"])
            ], trigger


def test_loss_spread_over_links_is_one_burst(tmp_path):
    """3 + 2 lost on two links is the burst neither link is alone — for
    the recorder and for the report inside the bundle it writes."""
    recorder = FlightRecorder(out_dir=tmp_path, label="spread")
    window = _telemetry_window(
        0.0,
        {"lost": [3, 0, 2], "level": None, "rtts": [0] * 4},
    )
    close(recorder, RunSeries("cell", specs=[]), window)
    assert [t["kind"] for t in recorder.triggers] == ["loss_burst"]
    lines = zipfile.ZipFile(recorder.last_bundle).read("slo.jsonl").decode()
    events = [
        record
        for record in map(json.loads, lines.splitlines())
        if record["type"] == "event"
    ]
    assert [(e["kind"], e["run"], e["value"]) for e in events] == [
        ("loss_burst", "cell", 5.0)
    ]


# -- the ambient seam -------------------------------------------------------


class TestRecordFlightSeam:
    def test_no_monitor_fast_loop_preserved(self):
        """The recorder is armed inside the block only, and no monitor
        is preserved past it."""
        recorder = FlightRecorder(out_dir=None)
        with use_run(recorder=recorder):
            assert current_run().recorder is recorder
        assert current_run().recorder is None
        assert not Simulator().monitored

    def test_chains_an_existing_monitor(self):
        calls = []

        class FakeMonitor:
            every = 1  # fire on every event so a tiny run exercises it

            def __call__(self, sim):
                calls.append(sim.events_processed)

            def finish(self):
                pass

        recorder = FlightRecorder(out_dir=None, max_marks=8)
        with use_run(progress=FakeMonitor(), recorder=recorder):
            sim = Simulator()
            assert sim.monitored
            for _ in range(3):
                sim.schedule(0.001, lambda: None)
            sim.run()
        assert calls  # the other monitor still fired


# -- bundles and the postmortem CLI -----------------------------------------


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("bundles")
    recorder, _ = recorded_session(tmp_path)
    implicated = [t["trace_id"] for t in list(recorder.traces)[:4]]
    path = recorder.trigger(
        "latency_spike",
        run="testrun",
        series="net.yardstick.rtt_seconds",
        value=0.31,
        threshold=0.15,
        trace_ids=implicated,
        detail="synthetic trigger over a real lossy session",
    )
    assert path is not None
    return path


class TestPostmortemCLI:
    def test_summary_exits_zero(self, bundle_path, capsys):
        assert postmortem.main([str(bundle_path), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "reason:  latency_spike" in out
        assert "rings:" in out

    def test_blame_attributes_implicated_traces_exactly(
        self, bundle_path, capsys
    ):
        assert postmortem.main([str(bundle_path), "--blame"]) == 0
        out = capsys.readouterr().out
        assert "implicated traces: 4 of 4" in out
        assert "exact" in out
        assert "off by" not in out
        # The machine-checkable version of the same invariant.
        bundle = load_bundle(bundle_path)
        completed = [t for t in bundle.traces if t.get("completed")]
        assert completed
        for record in completed:
            assert set(STAGES) <= set(record["stages"])
            assert sum(record["stages"].values()) == pytest.approx(
                record["end_to_end"], abs=1e-12
            )

    def test_blame_includes_loss_conversation(self, bundle_path, capsys):
        postmortem.main([str(bundle_path), "--blame"])
        out = capsys.readouterr().out
        assert "loss-recovery conversation" in out
        assert "LOSS" in out and "NACK" in out

    def test_chrome_trace_export(self, bundle_path, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert (
            postmortem.main(
                [str(bundle_path), "--chrome-trace", str(out_path)]
            )
            == 0
        )
        document = json.loads(out_path.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert names & set(STAGES)

    def test_json_output_is_machine_readable(self, bundle_path, capsys):
        assert postmortem.main([str(bundle_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["reason"]["kind"] == "latency_spike"

    def test_corrupt_inputs_exit_2(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.slimpm"
        garbage.write_bytes(b"not a zip at all")
        assert postmortem.main([str(garbage)]) == 2

        no_manifest = tmp_path / "nomanifest.slimpm"
        with zipfile.ZipFile(no_manifest, "w") as archive:
            archive.writestr("traces.jsonl", "")
        assert postmortem.main([str(no_manifest)]) == 2

        bad_version = tmp_path / "future.slimpm"
        with zipfile.ZipFile(bad_version, "w") as archive:
            archive.writestr(
                "manifest.json",
                json.dumps({"format": "slimpm", "version": 999}),
            )
        assert postmortem.main([str(bad_version)]) == 2

        missing = tmp_path / "does-not-exist.slimpm"
        assert postmortem.main([str(missing)]) == 2
        assert "error:" in capsys.readouterr().err
