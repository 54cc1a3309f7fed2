"""Unit tests for CDFs, statistics, and trace post-processing."""

import numpy as np
import pytest

from repro.analysis.cdf import Cdf, histogram
from repro.analysis.stats import crossing, geometric_mean, linear_fit, summarize
from repro.analysis.traces import (
    InputRecord,
    SessionTrace,
    UpdateRecord,
    load_traces,
    save_traces,
)
from repro.errors import ReproError


class TestCdf:
    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            Cdf([])

    def test_fraction_below_and_above(self):
        cdf = Cdf([1, 2, 3, 4])
        assert cdf.fraction_below(2) == pytest.approx(0.5)
        assert cdf.fraction_above(2) == pytest.approx(0.5)
        assert cdf.fraction_below(0) == 0.0
        assert cdf.fraction_below(10) == 1.0

    def test_percentiles(self):
        cdf = Cdf(range(101))
        assert cdf.percentile(50) == pytest.approx(50)
        assert cdf.median == pytest.approx(50)
        with pytest.raises(ReproError):
            cdf.percentile(101)

    def test_extremes_and_mean(self):
        cdf = Cdf([5, 1, 3])
        assert cdf.min == 1
        assert cdf.max == 5
        assert cdf.mean == pytest.approx(3)

    def test_points_monotone(self):
        cdf = Cdf(np.random.default_rng(1).normal(size=500))
        points = cdf.points(max_points=50)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_series(self):
        cdf = Cdf([1, 2, 3, 4])
        assert cdf.series([2, 4]) == [(2.0, 0.5), (4.0, 1.0)]


class TestHistogram:
    def test_buckets(self):
        rows = histogram([0.1, 0.15, 0.32, 0.9], bucket=0.1)
        assert (0.1, 2) in [(round(e, 2), c) for e, c in rows]

    def test_empty(self):
        assert histogram([], bucket=1.0) == []

    def test_invalid_bucket(self):
        with pytest.raises(ReproError):
            histogram([1.0], bucket=0)


class TestStats:
    def test_summary(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.n == 5
        assert s.mean == pytest.approx(3)
        assert s.p50 == pytest.approx(3)
        assert s.minimum == 1 and s.maximum == 5

    def test_summary_empty(self):
        with pytest.raises(ReproError):
            summarize([])

    def test_linear_fit(self):
        intercept, slope = linear_fit([0, 1, 2], [5, 7, 9])
        assert intercept == pytest.approx(5)
        assert slope == pytest.approx(2)

    def test_linear_fit_validation(self):
        with pytest.raises(ReproError):
            linear_fit([1], [2])
        with pytest.raises(ReproError):
            linear_fit([1, 2], [1])

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10)
        with pytest.raises(ReproError):
            geometric_mean([1, -1])
        with pytest.raises(ReproError):
            geometric_mean([])

    def test_crossing(self):
        # The first point is already past the threshold: its own x.
        assert crossing([(10, 0.2), (20, 0.3)], 0.1) == 10.0
        # Interpolated between the last point below and the first at or
        # above: a quarter of the way from 0.05 to 0.25 over 10..30.
        assert crossing([(10, 0.05), (30, 0.25), (40, 0.01)], 0.1) == 15.0
        # Exactly at the threshold is a crossing.
        assert crossing([(10, 0.05), (20, 0.1)], 0.1) == 20.0
        # A total loss (inf) after a finite point: the previous x.
        assert crossing([(10, 0.01), (20, 0.02), (30, float("inf"))], 0.1) == 20.0
        # Never reaches the threshold.
        assert crossing([(10, 0.01), (20, 0.09)], 0.1) is None
        assert crossing([], 0.1) is None


def make_trace():
    trace = SessionTrace(application="App", user="u0", duration=10.0)
    trace.inputs = [InputRecord(1.0, "key"), InputRecord(4.0, "click"), InputRecord(8.0, "key")]
    trace.updates = [
        UpdateRecord(
            time=1.1, pixels=100, wire_bytes=500,
            payload_bytes_by_opcode={"FILL": 11}, pixels_by_opcode={"FILL": 100},
            commands_by_opcode={"FILL": 1}, service_time=0.001, x_bytes=40, raw_bytes=300,
        ),
        UpdateRecord(
            time=4.5, pixels=200, wire_bytes=900,
            payload_bytes_by_opcode={"SET": 600}, pixels_by_opcode={"SET": 200},
            commands_by_opcode={"SET": 1}, service_time=0.002, x_bytes=900, raw_bytes=600,
        ),
        UpdateRecord(
            time=5.0, pixels=50, wire_bytes=100,
            payload_bytes_by_opcode={"BITMAP": 20}, pixels_by_opcode={"BITMAP": 50},
            commands_by_opcode={"BITMAP": 1}, service_time=0.0005, x_bytes=30, raw_bytes=150,
        ),
    ]
    return trace


class TestSessionTrace:
    def test_duration_validated(self):
        with pytest.raises(ReproError):
            SessionTrace(application="x", user="u", duration=0)

    def test_input_frequencies(self):
        trace = make_trace()
        freqs = trace.input_frequencies()
        assert freqs == pytest.approx([1 / 3.0, 1 / 4.0])

    def test_attribution_heuristic(self):
        trace = make_trace()
        groups = trace.updates_per_event()
        # groups[0] = before first event; events at 1.0, 4.0, 8.0.
        assert [len(g) for g in groups] == [0, 1, 2, 0]

    def test_pixels_and_bytes_per_event(self):
        trace = make_trace()
        assert trace.pixels_per_event() == [0, 100, 250, 0]
        assert trace.bytes_per_event() == [0, 500, 1000, 0]

    def test_update_before_first_event_attributed_to_start(self):
        trace = make_trace()
        trace.updates.insert(
            0,
            UpdateRecord(
                time=0.5, pixels=10, wire_bytes=50,
                payload_bytes_by_opcode={}, pixels_by_opcode={},
                commands_by_opcode={},
            ),
        )
        groups = trace.updates_per_event()
        assert len(groups[0]) == 1

    def test_opcode_totals(self):
        bytes_by, pixels_by = make_trace().opcode_totals()
        assert bytes_by == {"FILL": 11, "SET": 600, "BITMAP": 20}
        assert pixels_by == {"FILL": 100, "SET": 200, "BITMAP": 50}

    def test_compression_factor(self):
        trace = make_trace()
        raw = 350 * 3
        assert trace.compression_factor() == pytest.approx(raw / 631)

    def test_bandwidths(self):
        trace = make_trace()
        assert trace.mean_bandwidth_bps() == pytest.approx(1500 * 8 / 10)
        assert trace.mean_x_bandwidth_bps() == pytest.approx(970 * 8 / 10)
        assert trace.mean_raw_bandwidth_bps() == pytest.approx(1050 * 8 / 10)

    def test_service_times(self):
        assert make_trace().service_times() == [0.001, 0.002, 0.0005]

    def test_no_inputs_all_updates_in_one_group(self):
        trace = SessionTrace(application="x", user="u", duration=5.0)
        trace.updates = make_trace().updates
        groups = trace.updates_per_event()
        assert len(groups) == 1
        assert len(groups[0]) == 3


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        traces = [make_trace(), make_trace()]
        path = tmp_path / "traces.jsonl"
        save_traces(traces, path)
        loaded = load_traces(path)
        assert len(loaded) == 2
        assert loaded[0].application == "App"
        assert loaded[0].inputs == traces[0].inputs
        assert loaded[0].updates[1].payload_bytes_by_opcode == {"SET": 600}
        assert loaded[0].mean_bandwidth_bps() == traces[0].mean_bandwidth_bps()

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        save_traces([make_trace()], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_traces(path)) == 1
