"""Tests for the interactivity SLO engine (repro.obs.slo).

Exercises spec matching and budget-burn math, contiguous-violation
health events with trace-id annotation, the built-in detectors (loss
bursts, queue buildup), and the report's render/JSONL
surfaces against hand-built windowed runs.
"""

import json
import math

import pytest

from repro.errors import ReproError
from repro.obs.slo import (
    INTERACTIVITY_SLOS,
    KEYSTROKE_ECHO,
    LOSS_BURST_MIN,
    QUEUE_BUILDUP_RUN,
    SloEngine,
    SloSpec,
    validate_slo_records,
)
from repro.obs.timeseries import RunSeries, TimeSeriesCollection

GAUGE_SLO = SloSpec(
    name="level_cap",
    metric="test.level",
    kind="gauge",
    threshold=1.0,
    op="<=",
    budget=0.25,
    event="level_floor",
)


def make_run(label="run", window=1.0, records=()):
    run = RunSeries(label, window=window)
    for record in records:
        run.append_window(record)
    return run


def gauge_window(t0, value, **extra):
    record = {
        "t0": t0,
        "t1": t0 + 1.0,
        "counters": {},
        "gauges": {"test.level{client=1}": value},
        "histograms": {},
    }
    record.update(extra)
    return record


def rtt_window(t0, p95_ish, count=10, **extra):
    # One bucket at the value itself so the windowed p95 lands there.
    record = {
        "t0": t0,
        "t1": t0 + 1.0,
        "counters": {},
        "gauges": {},
        "histograms": {
            "net.yardstick.rtt_seconds": {
                "count": count,
                "sum": p95_ish * count,
                "buckets": [[p95_ish, count], [float("inf"), 0]],
            }
        },
    }
    record.update(extra)
    return record


class TestSloSpec:
    def test_matches_bare_and_labelled_keys(self):
        assert GAUGE_SLO.matches("test.level")
        assert GAUGE_SLO.matches("test.level{client=1}")
        assert not GAUGE_SLO.matches("test.level.other")
        assert not GAUGE_SLO.matches("test")

    def test_passes_respects_operator(self):
        assert GAUGE_SLO.passes(1.0) and not GAUGE_SLO.passes(1.5)
        above = SloSpec(
            name="fps", metric="m", kind="counter_rate", threshold=20.0,
            op=">=",
        )
        assert above.passes(24.0) and not above.passes(19.0)

    def test_bad_op_and_budget_rejected(self):
        with pytest.raises(ReproError):
            SloSpec(name="x", metric="m", kind="gauge", threshold=1, op="!=")
        with pytest.raises(ReproError):
            SloSpec(name="x", metric="m", kind="gauge", threshold=1,
                    budget=1.5)

    def test_default_set_is_paper_grounded(self):
        names = {spec.name for spec in INTERACTIVITY_SLOS}
        assert names == {
            "keystroke_echo",
            "video_frame_rate",
            "loss_recovery",
        }
        assert KEYSTROKE_ECHO.threshold == pytest.approx(0.150)
        assert KEYSTROKE_ECHO.quantile == pytest.approx(0.95)


class TestEvaluation:
    def test_budget_burn_and_compliance(self):
        # 8 windows, 2 violations, budget 25% -> allowed 2, burn 1.0,
        # still compliant (violations == allowed is the boundary).
        records = [gauge_window(float(i), 1.0) for i in range(6)]
        records += [gauge_window(6.0, 2.0), gauge_window(7.0, 2.0)]
        report = SloEngine([GAUGE_SLO]).evaluate([make_run(records=records)])
        (result,) = report.results
        assert result.windows == 8 and result.violations == 2
        assert result.burn == pytest.approx(1.0)
        assert result.compliant and report.compliant
        assert result.ok_windows == 6

    def test_zero_budget_violation_burns_infinite(self):
        spec = SloSpec(
            name="hard", metric="test.level", kind="gauge",
            threshold=1.0, budget=0.0,
        )
        report = SloEngine([spec]).evaluate(
            [make_run(records=[gauge_window(0.0, 2.0)])]
        )
        (result,) = report.results
        assert result.burn == float("inf") and not result.compliant
        assert result.to_dict()["burn"] == "inf"

    def test_windowed_quantile_violation_against_keystroke_echo(self):
        run = make_run(
            "cellular/static",
            records=[rtt_window(0.0, 0.02), rtt_window(1.0, 0.9)],
        )
        report = SloEngine([KEYSTROKE_ECHO]).evaluate([run])
        result = report.compliance("cellular/static", "keystroke_echo")
        assert result.violations == 1 and not result.compliant
        assert result.worst["t0"] == pytest.approx(1.0)
        assert result.worst["value"] > KEYSTROKE_ECHO.threshold

    def test_no_matching_series_produces_no_result(self):
        run = make_run(records=[rtt_window(0.0, 0.02)])
        report = SloEngine([GAUGE_SLO]).evaluate([run])
        assert report.results == []
        assert report.compliance("run", "level_cap") is None
        assert report.compliant  # vacuously

    def test_accepts_collection_or_iterable(self):
        collection = TimeSeriesCollection(window=1.0)
        run = collection.new_run("r")
        run.append_window(gauge_window(0.0, 0.5))
        by_collection = SloEngine([GAUGE_SLO]).evaluate(collection)
        by_list = SloEngine([GAUGE_SLO]).evaluate([run])
        assert len(by_collection.results) == len(by_list.results) == 1


class TestHealthEvents:
    def test_contiguous_violations_merge_into_one_event(self):
        records = [
            gauge_window(0.0, 0.0),
            gauge_window(1.0, 2.0, trace_ids=[4]),
            gauge_window(2.0, 3.0, trace_ids=[5]),
            gauge_window(3.0, 0.0),
            gauge_window(4.0, 2.0),
        ]
        report = SloEngine([GAUGE_SLO]).evaluate([make_run(records=records)])
        floor_events = [e for e in report.events if e.kind == "level_floor"]
        assert len(floor_events) == 2
        merged = floor_events[0]
        assert (merged.t0, merged.t1) == (1.0, 3.0)
        assert merged.value == 3.0  # worst value across the stretch
        assert merged.trace_ids == [4, 5]
        assert floor_events[1].t0 == 4.0

    def test_loss_burst_detector(self):
        records = [
            {
                "t0": 0.0, "t1": 1.0,
                "counters": {"net.link.packets_lost{link=down}": 2},
                "gauges": {}, "histograms": {},
            },
            {
                "t0": 1.0, "t1": 2.0,
                "counters": {
                    "net.link.packets_lost{link=down}": LOSS_BURST_MIN
                },
                "gauges": {}, "histograms": {},
                "trace_ids": [9],
            },
        ]
        report = SloEngine([]).evaluate([make_run(records=records)])
        (event,) = report.events
        assert event.kind == "loss_burst"
        assert event.t0 == 1.0 and event.value == LOSS_BURST_MIN
        assert event.trace_ids == [9]

    def test_queue_buildup_detector_needs_a_monotonic_run(self):
        def queue_windows(values):
            return [
                {
                    "t0": float(i), "t1": float(i) + 1.0, "counters": {},
                    "gauges": {"server.queue.depth": v}, "histograms": {},
                }
                for i, v in enumerate(values)
            ]

        rising = SloEngine([]).evaluate(
            [make_run(records=queue_windows([1, 2, 3]))]
        )
        assert [e.kind for e in rising.events] == ["queue_buildup"]
        assert rising.events[0].value == 3

        sawtooth = SloEngine([]).evaluate(
            [make_run(records=queue_windows([1, 2, 1, 2, 1, 2]))]
        )
        assert sawtooth.events == []
        assert QUEUE_BUILDUP_RUN == 3


class TestReport:
    def report(self):
        runs = [
            make_run("lan/static", records=[rtt_window(0.0, 0.01)]),
            make_run(
                "cellular/static",
                records=[rtt_window(0.0, 0.8, trace_ids=[17])],
            ),
        ]
        return SloEngine([KEYSTROKE_ECHO]).evaluate(runs)

    def test_render_marks_ok_and_viol(self):
        text = self.report().render()
        assert "ok  " in text and "VIOL" in text
        assert "lan/static" in text and "cellular/static" in text
        assert "health events" in text and "traces [17]" in text

    def test_records_validate_and_round_trip_json(self, tmp_path):
        report = self.report()
        records = report.to_records()
        validate_slo_records(records)
        path = tmp_path / "slo.jsonl"
        count = report.write_jsonl(str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == count
        loaded = [json.loads(line) for line in lines]
        validate_slo_records(loaded)
        kinds = {record["type"] for record in loaded}
        assert kinds == {"slo_header", "slo", "event"}

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda r: r.clear(), "empty"),
            (lambda r: r.pop(0), "header"),
            (lambda r: r[1].pop("compliant"), "compliant"),
            (lambda r: r[-1].pop("trace_ids"), "trace_ids"),
            (lambda r: r.append({"type": "mystery"}), "unknown record"),
        ],
    )
    def test_validate_rejects_corruption(self, mutate, message):
        records = self.report().to_records()
        mutate(records)
        with pytest.raises(ReproError, match=message):
            validate_slo_records(records)

    def test_compliance_returns_worst_burn(self):
        # Two labelled streams of the same metric in one run: the lookup
        # must surface the worse one.
        run = make_run("r")
        run.append_window({
            "t0": 0.0, "t1": 1.0, "counters": {},
            "gauges": {
                "test.level{client=1}": 0.0,
                "test.level{client=2}": 2.0,
            },
            "histograms": {},
        })
        report = SloEngine([GAUGE_SLO]).evaluate([run])
        assert len(report.results) == 2
        worst = report.compliance("r", "level_cap")
        assert worst.series == "test.level{client=2}"
        assert not worst.compliant


class TestWanMatrixVerdicts:
    """A ``wan_matrix`` cell's keystroke verdict is graded on the cell's
    own windows: one per second it ran (a starved cell's rounds time
    out, and are observed), never more, and — where the table's RTT
    columns tell two cells apart — not the same verdict for both."""

    CELL_SECONDS = 4.0

    def test_each_cell_is_graded_on_its_own_windows(self):
        from repro.experiments import wan_matrix
        from repro.runcontext import use_run
        from repro.telemetry.metrics import MetricsRegistry

        collection = TimeSeriesCollection()
        with use_run(registry=MetricsRegistry(), collection=collection):
            result = wan_matrix.run(
                seed=7,
                n_users=6,
                duration=300.0,
                profiles="cellular",
                workloads="ScrollHeavy,Netscape",
                cell_seconds=self.CELL_SECONDS,
            )
        engine = SloEngine([KEYSTROKE_ECHO])
        verdicts = []
        for row in result.rows:
            label = f"{row['profile']}/{row['workload']}/static"
            run = collection.run_by_label(label)
            graded = engine.evaluate([run]).compliance(
                label, KEYSTROKE_ECHO.name
            )
            assert graded is not None, label
            assert graded.windows <= math.ceil(self.CELL_SECONDS), label
            assert f"/{graded.windows} " in row["SLO"], label
            # After the 1 s warm-up every second holds a round, answered
            # or timed out: a cell that ran has a verdict per second.
            assert graded.windows >= self.CELL_SECONDS - 2, label
            verdicts.append(
                (row["RTT ms"], graded.windows, graded.violations, graded.worst)
            )
        (rtt_a, *verdict_a), (rtt_b, *verdict_b) = verdicts
        if rtt_a != rtt_b:
            assert verdict_a != verdict_b, verdicts
