"""Tests for the interactivity SLOs (repro.obs.slo).

Exercises spec matching and budget-burn math, contiguous-violation
health events with trace-id annotation, the built-in detectors (loss
bursts, queue buildup), and the report's render/JSONL
surfaces against hand-built windowed runs, each graded by its own
grader as its windows arrive.
"""

import copy
import json
import math

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.slo import (
    INTERACTIVITY_SLOS,
    KEYSTROKE_ECHO,
    LOSS_BURST_MIN,
    QUEUE_BUILDUP_RUN,
    SloReport,
    SloSpec,
    WindowGrader,
    validate_slo_records,
)
from repro.obs.timeseries import RunSeries, TimeSeriesCollection, write_jsonl
from repro.telemetry.metrics import Histogram, occupied_buckets

GAUGE_SLO = SloSpec(
    name="level_cap",
    metric="test.level",
    kind="gauge",
    threshold=1.0,
    op="<=",
    budget=0.25,
    event="level_floor",
)


def make_run(label="run", window=1.0, records=(), specs=INTERACTIVITY_SLOS):
    run = RunSeries(label, window=window, specs=specs)
    for record in records:
        run.append_window(record)
    return run


def verdict(runs):
    """The report of ``runs``, as their graders hold it."""
    return SloReport.of(run.grader for run in runs)


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
        report = verdict([make_run(records=records, specs=[GAUGE_SLO])])
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
        report = verdict(
            [make_run(records=[gauge_window(0.0, 2.0)], specs=[spec])]
        )
        (result,) = report.results
        assert result.burn == float("inf") and not result.compliant
        assert result.to_dict()["burn"] == "inf"

    def test_windowed_quantile_violation_against_keystroke_echo(self):
        run = make_run(
            "cellular/static",
            records=[rtt_window(0.0, 0.02), rtt_window(1.0, 0.9)],
            specs=[KEYSTROKE_ECHO],
        )
        report = verdict([run])
        result = report.compliance("cellular/static", "keystroke_echo")
        assert result.violations == 1 and not result.compliant
        assert result.worst["t0"] == pytest.approx(1.0)
        assert result.worst["value"] > KEYSTROKE_ECHO.threshold

    def test_no_matching_series_produces_no_result(self):
        run = make_run(records=[rtt_window(0.0, 0.02)], specs=[GAUGE_SLO])
        report = verdict([run])
        assert report.results == []
        assert report.compliance("run", "level_cap") is None
        assert report.compliant  # vacuously

    def test_a_collection_reports_its_runs_graders(self):
        collection = TimeSeriesCollection(window=1.0)
        collection.adopt_run(
            make_run("r", records=[gauge_window(0.0, 0.5)], specs=[GAUGE_SLO])
        )
        run = collection.new_run("default")
        run.append_window(rtt_window(0.0, 0.9))
        report = collection.slo_report()
        assert [(r.run, r.spec) for r in report.results] == [
            ("r", "level_cap"), ("default", "keystroke_echo")
        ]
        assert report.specs == [GAUGE_SLO, *INTERACTIVITY_SLOS]


class TestHealthEvents:
    def test_contiguous_violations_merge_into_one_event(self):
        records = [
            gauge_window(0.0, 0.0),
            gauge_window(1.0, 2.0, trace_ids=[4]),
            gauge_window(2.0, 3.0, trace_ids=[5]),
            gauge_window(3.0, 0.0),
            gauge_window(4.0, 2.0),
        ]
        report = verdict([make_run(records=records, specs=[GAUGE_SLO])])
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
        report = verdict([make_run(records=records, specs=[])])
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

        rising = verdict([make_run(records=queue_windows([1, 2, 3]), specs=[])])
        assert [e.kind for e in rising.events] == ["queue_buildup"]
        assert rising.events[0].value == 3

        sawtooth = verdict(
            [make_run(records=queue_windows([1, 2, 1, 2, 1, 2]), specs=[])]
        )
        assert sawtooth.events == []
        assert QUEUE_BUILDUP_RUN == 3


class TestReport:
    def report(self):
        runs = [
            make_run(
                "lan/static",
                records=[rtt_window(0.0, 0.01)],
                specs=[KEYSTROKE_ECHO],
            ),
            make_run(
                "cellular/static",
                records=[rtt_window(0.0, 0.8, trace_ids=[17])],
                specs=[KEYSTROKE_ECHO],
            ),
        ]
        return verdict(runs)

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
        count = write_jsonl(records, str(path))
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
        run = make_run("r", specs=[GAUGE_SLO])
        run.append_window({
            "t0": 0.0, "t1": 1.0, "counters": {},
            "gauges": {
                "test.level{client=1}": 0.0,
                "test.level{client=2}": 2.0,
            },
            "histograms": {},
        })
        report = verdict([run])
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
        verdicts = []
        for row in result.rows:
            label = f"{row['profile']}/{row['workload']}/static"
            run = collection.run_by_label(label)
            graded = verdict([run]).compliance(label, KEYSTROKE_ECHO.name)
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


# -- the saved verdict is the live one --------------------------------------

#: What the drawn runs are graded with: the default set and a gauge.
DRAWN_SPECS = INTERACTIVITY_SLOS + (GAUGE_SLO,)

#: A drawn window: yardstick rounds, the fraction of them slow (0.5 s
#: against 20 ms), a ``test.level`` gauge or none, and the idle gap
#: before it, in seconds.
_WINDOW = st.fixed_dictionaries(
    {
        "rounds": st.integers(0, 120),
        "slow": st.floats(0.0, 1.0),
        "level": st.sampled_from([None, 0.0, 0.5, 2.0]),
        "gap": st.sampled_from([0.0, 0.0, 1.0, 3.0]),
    }
)

#: 8 of 115 rounds slow in windows 1 and 3 of five: each is a violating
#: window alone (p95 of 7 % slow), no longer one merged with a clean
#: neighbour (3.5 %), so a run of four windows graded after it
#: coalesces saw 0 violations where the live grader saw 2.
EIGHT_OF_115 = [
    {"rounds": 115, "slow": 8 / 115 if i in (1, 3) else 0.0, "level": None, "gap": 0.0}
    for i in range(5)
]


def drawn_windows(drawn):
    """The window records of ``drawn``: 1 s each, after their gaps."""
    records, t0 = [], 0.0
    for window in drawn:
        t0 += window["gap"]
        rtt = Histogram("net.yardstick.rtt_seconds")
        slow = round(window["slow"] * window["rounds"])
        for index in range(window["rounds"]):
            rtt.observe(0.5 if index < slow else 0.02)
        record = gauge_window(t0, window["level"])
        if window["level"] is None:
            record["gauges"] = {}
        if rtt.count:
            record["histograms"]["net.yardstick.rtt_seconds"] = {
                "count": rtt.count,
                "sum": rtt.sum,
                "buckets": occupied_buckets(rtt.bucket_bounds, rtt.bucket_counts),
            }
        records.append(record)
        t0 += 1.0
    return records


@seed(1999)
@settings(deadline=None)
@given(
    drawn=st.lists(_WINDOW, min_size=1, max_size=40),
    max_windows=st.integers(4, 16),
)
@example(drawn=EIGHT_OF_115, max_windows=4)
def test_the_saved_verdict_is_the_one_graded_live(drawn, max_windows):
    """A collection's report — what ``--slo`` prints and a record's
    ``slo.jsonl`` holds — equals the verdict of a grader fed the same
    windows as they closed, however many times the run's stored windows
    coalesced past ``max_windows``.  Grading the stored windows instead
    fails on :data:`EIGHT_OF_115`."""
    records = drawn_windows(drawn)
    collection = TimeSeriesCollection(max_windows=max_windows)
    collection.adopt_run(
        RunSeries("drawn", max_windows=max_windows, specs=DRAWN_SPECS)
    )
    live = WindowGrader(DRAWN_SPECS, "drawn")
    for record in records:
        live.grade(copy.deepcopy(record))
        collection.runs[0].append_window(record)
    assert collection.slo_report().to_records() == SloReport.of([live]).to_records()
