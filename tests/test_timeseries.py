"""Tests for windowed time-series telemetry (repro.obs.timeseries).

Covers the math (bucket quantiles, window extraction), the sampler's
delta/last-value semantics, bounded memory via coalescing, the JSONL
round trip + schema validation, and a collection
installed on the run context (sampling every simulator beside other
monitors, trace-id annotation, mid-session flushes).
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import commands as cmd
from repro.errors import ReproError
from repro.netsim.engine import Simulator
from repro.obs.causal import TraceCollector
from repro.obs.timeseries import (
    DEFAULT_WINDOW,
    SCHEMA_VERSION,
    RunSeries,
    TimeSeriesCollection,
    bucket_quantile,
    validate_timeseries_records,
    window_value,
)
from repro.runcontext import use_run
from repro.telemetry.metrics import MetricsRegistry


class FakeSim:
    """Just enough simulator for driving a sampler by hand."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.trace_space = 0


def make_window(t0, t1, counters=None, gauges=None, histograms=None, **extra):
    record = {
        "t0": t0,
        "t1": t1,
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }
    record.update(extra)
    return record


class TestBucketQuantile:
    BUCKETS = [[0.1, 2], [0.2, 6], [0.5, 2], [float("inf"), 0]]

    def test_empty_returns_none(self):
        assert bucket_quantile([[0.1, 0], [1.0, 0]], 0.95) is None

    def test_interpolates_within_bucket(self):
        # 10 observations; the median lands 3/6 of the way through the
        # (0.1, 0.2] bucket: 0.1 + 0.5 * 0.1 = 0.15.
        assert bucket_quantile(self.BUCKETS, 0.5) == pytest.approx(0.15)

    def test_overflow_returns_last_finite_bound(self):
        buckets = [[0.1, 1], [float("inf"), 9]]
        assert bucket_quantile(buckets, 0.95) == pytest.approx(0.1)

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ReproError):
            bucket_quantile(self.BUCKETS, 1.5)


class TestWindowValue:
    WINDOW = make_window(
        2.0,
        4.0,
        counters={"net.bytes": 100},
        gauges={"test.level{client=1}": 2},
        histograms={
            "rtt": {"count": 4, "sum": 0.8, "buckets": [[0.1, 1], [0.3, 3]]},
            "nobuckets": {"count": 2, "sum": 3.0, "buckets": []},
        },
    )

    def test_counter_rate_and_delta(self):
        assert window_value(self.WINDOW, "net.bytes", "counter_rate") == 50.0
        assert window_value(self.WINDOW, "net.bytes", "counter_delta") == 100.0

    def test_gauge_last_value(self):
        key = "test.level{client=1}"
        assert window_value(self.WINDOW, key, "gauge") == 2.0

    def test_histogram_quantile_from_buckets(self):
        value = window_value(self.WINDOW, "rtt", "histogram_quantile", 0.5)
        # Median is 1/3 into the (0.1, 0.3] bucket.
        assert value == pytest.approx(0.1 + (1 / 3) * 0.2)

    def test_bucketless_histogram_falls_back_to_mean(self):
        value = window_value(self.WINDOW, "nobuckets", "histogram_quantile")
        assert value == pytest.approx(1.5)
        assert window_value(self.WINDOW, "rtt", "histogram_mean") == (
            pytest.approx(0.2)
        )

    def test_missing_series_is_none(self):
        assert window_value(self.WINDOW, "absent", "counter_rate") is None
        assert window_value(self.WINDOW, "absent", "gauge") is None
        assert window_value(self.WINDOW, "absent", "histogram_mean") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            window_value(self.WINDOW, "net.bytes", "no_such_kind")


class TestSampler:
    """Driven by hand the way the engine does it: at an event strictly
    past the open window's edge."""

    def setup_method(self):
        self.registry = MetricsRegistry()
        self.sim = FakeSim()
        with use_run(registry=self.registry):
            self.sampler = TimeSeriesCollection(window=1.0).sample(self.sim)
        self.run = self.sampler.run

    def test_counters_become_per_window_deltas(self):
        counter = self.registry.counter("pkts")
        counter.inc(3)
        self.sim.now = 1.5
        self.sampler(self.sim)
        counter.inc(5)
        self.sim.now = 2.5
        self.sampler(self.sim)
        deltas = [w["counters"]["pkts"] for w in self.run.windows]
        assert deltas == [3, 5]

    def test_gauges_recorded_only_on_change(self):
        gauge = self.registry.gauge("tier")
        gauge.set(1)
        self.sim.now = 1.5
        self.sampler(self.sim)
        # Unchanged: window 2 stores nothing at all (gauge suppressed,
        # no other activity), so it is skipped entirely.
        self.sim.now = 2.5
        self.sampler(self.sim)
        gauge.set(2)
        self.sim.now = 3.5
        self.sampler(self.sim)
        gauges = [w.get("gauges", {}) for w in self.run.windows]
        assert gauges == [{"tier": 1}, {"tier": 2}]
        assert [w["t0"] for w in self.run.windows] == [0.0, 2.0]

    def test_histogram_bucket_deltas_are_windowed(self):
        hist = self.registry.histogram("rtt", buckets=(0.1, 0.5))
        hist.observe(0.05)
        hist.observe(0.3)
        self.sim.now = 1.5
        self.sampler(self.sim)
        hist.observe(0.3)
        self.sim.now = 2.5
        self.sampler(self.sim)
        first, second = (w["histograms"]["rtt"] for w in self.run.windows)
        assert first["count"] == 2 and second["count"] == 1
        assert [pair[1] for pair in first["buckets"]] == [1, 1, 0]
        assert [pair[1] for pair in second["buckets"]] == [0, 1, 0]

    def test_finish_flushes_partial_window_and_is_repeatable(self):
        counter = self.registry.counter("pkts")
        counter.inc(2)
        self.sampler.finish(0.4)
        assert len(self.run.windows) == 1
        assert self.run.windows[0]["t1"] == pytest.approx(0.4)
        # Second flush at the same time stores nothing new...
        self.sampler.finish(0.4)
        assert len(self.run.windows) == 1
        # ...and sampling continues afterwards from the flush point.
        counter.inc(7)
        self.sampler.finish(0.9)
        assert self.run.windows[1]["t0"] == pytest.approx(0.4)
        assert self.run.windows[1]["counters"]["pkts"] == 7

    def test_quiet_windows_are_not_stored(self):
        self.registry.counter("pkts").inc()
        self.sim.now = 5.0
        self.sampler(self.sim)
        assert len(self.run.windows) == 1
        self.sim.now = 9.0
        self.sampler(self.sim)  # nothing changed: no new windows
        assert len(self.run.windows) == 1


class TestCoalescing:
    def test_memory_stays_bounded_and_deltas_are_preserved(self):
        run = RunSeries("r", window=1.0, max_windows=4)
        for i in range(64):
            run.append_window(make_window(i, i + 1, counters={"c": 1}))
        assert len(run.windows) <= 4
        assert run.coalesce_count > 0
        assert run.window > 1.0
        total = sum(w["counters"]["c"] for w in run.windows)
        assert total == 64
        assert run.windows[0]["t0"] == 0 and run.windows[-1]["t1"] == 64

    def test_bad_construction_rejected(self):
        with pytest.raises(ReproError):
            RunSeries("r", window=0.0)
        with pytest.raises(ReproError):
            RunSeries("r", max_windows=2)


class TestCollectionRoundTrip:
    def collection(self):
        collection = TimeSeriesCollection(window=1.0)
        with collection.label("cellular/static"):
            assert collection.next_label() == "cellular/static"
        run = collection.new_run("cellular/static")
        run.append_window(
            make_window(0.0, 1.0, counters={"pkts": 3}, trace_ids=[7])
        )
        collection.new_run()  # auto-labelled, stays empty
        return collection

    def test_labels_and_prune(self):
        collection = self.collection()
        assert collection.runs[1].label == "run-1"
        assert collection.prune_empty() == 1
        assert collection.run_by_label("cellular/static") is not None
        assert collection.run_by_label("missing") is None

    def test_jsonl_round_trip(self, tmp_path):
        collection = self.collection()
        path = tmp_path / "ts.jsonl"
        count = collection.write_jsonl(str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == count
        header = json.loads(lines[0])
        assert header["type"] == "timeseries_header"
        assert header["version"] == SCHEMA_VERSION

        loaded = TimeSeriesCollection.from_records(
            [json.loads(line) for line in lines]
        )
        run = loaded.run_by_label("cellular/static")
        assert run.windows[0]["counters"]["pkts"] == 3
        assert run.windows[0]["trace_ids"] == [7]

    def test_write_to_stream(self):
        buffer = io.StringIO()
        count = self.collection().write_jsonl(buffer)
        assert buffer.getvalue().count("\n") == count

    def test_validate_accepts_own_output(self):
        validate_timeseries_records(self.collection().to_records())

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda r: r.clear(), "empty"),
            (lambda r: r.pop(0), "header"),
            # r[2] is the labelled run's window record.
            (lambda r: r[2].update(t1=-1.0), "t1 <= t0"),
            (lambda r: r[2].update(run=99), "undeclared run"),
            (lambda r: r[2].update(type="mystery"), "unknown record type"),
        ],
    )
    def test_validate_rejects_corruption(self, mutate, message):
        records = self.collection().to_records()
        mutate(records)
        with pytest.raises(ReproError, match=message):
            validate_timeseries_records(records)


class TestCollectTimeseries:
    def drive(self, events=1500, registry=None):
        collection = TimeSeriesCollection()
        with use_run(registry=registry, collection=collection):
            sim = Simulator()
            counter = registry.counter("evt")
            for i in range(events):
                sim.schedule(i * 0.01, counter.inc)
            sim.run()
        return collection

    def test_samples_every_simulator_into_runs(self):
        registry = MetricsRegistry()
        collection = self.drive(registry=registry)
        assert len(collection.runs) == 1
        run = collection.runs[0]
        assert run.label == "run-1"
        # All 1500 increments accounted for across the windows.
        assert sum(w["counters"].get("evt", 0) for w in run.windows) == 1500
        # The 15 sim-second span produced multiple 1 s windows (closed by
        # the monitor hook, not just the final flush).
        assert len(run.windows) > 1

    def test_chains_previously_installed_monitor_factory(self):
        seen = []

        class Spy:
            every = 100

            def __call__(self, sim):
                seen.append(sim.events_processed)

            def finish(self):
                pass

        with use_run(progress=Spy()):
            self.drive(registry=MetricsRegistry())
        # The painter installed first kept firing beside the sampler,
        # at its own (finer) granularity.
        assert seen and seen[0] == 100

    def test_windows_carry_open_trace_ids(self):
        tracer = TraceCollector()
        registry = MetricsRegistry()
        collection = TimeSeriesCollection()
        with use_run(registry=registry, tracer=tracer, collection=collection):
            sim = Simulator()
            probe = tracer.begin_probe("net.yardstick.round", 0.0, sim.trace_space)
            counter = registry.counter("evt")
            for i in range(600):
                sim.schedule(i * 0.01, counter.inc)
            sim.run()
            tracer.end_probe(probe)
        run = collection.runs[0]
        annotated = [w for w in run.windows if w.get("trace_ids")]
        assert annotated and probe in annotated[0]["trace_ids"]

    def test_a_window_cites_only_its_own_simulators_traces(self):
        """Each simulator leaves a message trace and a probe span in
        flight (a lost status, an unanswered round).  A later
        simulator's windows cite neither of an earlier one's: a sampler
        asks for its own simulator's keyspace."""
        tracer = TraceCollector()
        registry = MetricsRegistry()
        collection = TimeSeriesCollection()
        own = []
        with use_run(registry=registry, tracer=tracer, collection=collection):
            counter = registry.counter("evt")
            for _ in range(3):
                sim = Simulator()
                lost = tracer.message_sent(
                    (sim.trace_space, "console", "server", 0),
                    cmd.StatusMessage(kind=cmd.StatusKind.FRONTIER, value=0),
                    0.0,
                    wire_bytes=54,
                )
                probe = tracer.begin_probe("net.yardstick.round", 0.0, sim.trace_space)
                own.append({lost, probe})
                for i in range(300):
                    sim.schedule(i * 0.01, counter.inc)
                sim.run()
        cited = [
            {trace_id for w in run.windows for trace_id in w.get("trace_ids", ())}
            for run in collection.runs
        ]
        assert cited == own

    def test_finish_samplers_flushes_mid_session(self):
        registry = MetricsRegistry()
        collection = TimeSeriesCollection()
        with use_run(registry=registry, collection=collection):
            sim = Simulator()
            counter = registry.counter("evt")
            sim.schedule(0.25, counter.inc)
            sim.run()
            # Sim stopped mid-window; nothing crossed a boundary yet.
            assert not collection.runs[0].windows
            collection.finish_samplers()
            assert collection.runs[0].windows
        assert collection.runs[0].windows[0]["counters"]["evt"] == 1

    def test_default_window_matches_module_default(self):
        assert TimeSeriesCollection().window == DEFAULT_WINDOW


# ---------------------------------------------------------------------------
# Cut once: the registry is attributed to the runs' windows exactly once
# ---------------------------------------------------------------------------

#: One simulator of a session: (counter increments, histogram
#: observations, sim seconds it runs, filler events so that windows also
#: close from the engine monitor and not only at the flush).
_simulators = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.integers(0, 40),
        st.floats(0.05, 2.5),
        st.sampled_from([0, 600]),
    ),
    min_size=2,
    max_size=5,
)


def _window_totals(runs):
    counters, observations, buckets = {}, {}, {}
    for run in runs:
        for record in run.windows:
            for key, delta in record["counters"].items():
                counters[key] = counters.get(key, 0) + delta
            for key, hist in record["histograms"].items():
                observations[key] = observations.get(key, 0) + hist["count"]
                summed = buckets.setdefault(key, [0] * len(hist["buckets"]))
                for slot, (_bound, count) in enumerate(hist["buckets"]):
                    summed[slot] += count
    return counters, observations, buckets


@settings(deadline=None)
@given(script=_simulators)
def test_runs_windows_sum_to_the_registry_once(script):
    """Simulators built one after another report into instruments they
    share by label; each increment lands in one window of the run that
    made it."""
    registry = MetricsRegistry()
    collection = TimeSeriesCollection(window=0.5)
    with use_run(registry=registry, collection=collection):
        counter = registry.counter("pkts", link="a")
        hist = registry.histogram("rtt", buckets=(0.1, 0.5))
        for index, (incs, observations, span, filler) in enumerate(script):
            with collection.label(f"sim-{index}"):
                sim = Simulator()
            for i in range(incs):
                sim.schedule(span * (i + 1) / incs, counter.inc)
            for i in range(observations):
                sim.schedule(
                    span * (i + 1) / observations,
                    lambda value=0.07 * i: hist.observe(value),
                )
            for i in range(filler):
                sim.schedule(span * i / filler, lambda: None)
            sim.schedule(span, lambda: None)
            sim.run()
    counters, observed, buckets = _window_totals(collection.runs)
    assert counters.get("pkts{link=a}", 0) == counter.value
    assert observed.get("rtt", 0) == hist.count
    assert buckets.get("rtt", [0, 0, 0]) == list(hist.bucket_counts)
    for index, (incs, observations, _span, _filler) in enumerate(script):
        run = collection.run_by_label(f"sim-{index}")
        own, own_observed, _ = _window_totals([run] if run else [])
        assert own.get("pkts{link=a}", 0) == incs
        assert own_observed.get("rtt", 0) == observations


def test_lossy_fabric_lossless_runs_report_no_loss():
    """The 0 % rows' simulators (the session, then its yardstick) are the
    first two of the experiment; what the lossy rows after them lose is
    not theirs."""
    from repro.experiments import lossy_fabric

    registry = MetricsRegistry()
    collection = TimeSeriesCollection()
    with use_run(registry=registry, collection=collection):
        lossy_fabric.run(updates=20)
    lost = ("net.link.packets_lost", "net.link.packets_dropped")
    counters, _observed, _buckets = _window_totals(collection.runs)
    assert sum(v for k, v in counters.items() if k.startswith(lost)) > 0
    for label in ("run-1", "run-2"):
        run = collection.run_by_label(label)
        assert run is not None
        assert not [
            key
            for record in run.windows
            for key in record["counters"]
            if key.startswith(lost)
        ], label


@pytest.mark.parametrize("fillers", [300, 511])
def test_a_window_does_not_depend_on_the_event_count_at_an_edge(fillers):
    """With 511 fillers the hit *at* the first edge is the sampler's
    512th event, so the engine calls it there by the count: the window
    must stay open all the same, until the first event strictly past."""
    registry = MetricsRegistry()
    collection = TimeSeriesCollection(window=1.0)
    with use_run(registry=registry, collection=collection):
        sim = Simulator()
        for k in range(fillers):
            sim.schedule_at(0.5 * k / fillers, lambda: None)
        for when in (1.0, 1.5, 2.5):
            sim.schedule_at(when, registry.counter("hits").inc)
        sim.run()
    (run,) = collection.runs
    assert [(w["t0"], w["counters"]["hits"]) for w in run.windows] == [
        (0.0, 2),
        (1.0, 1),
    ]


def test_a_sparse_rig_closes_a_window_for_every_second():
    """The Fig 11 rig fires far fewer than ``SAMPLER_EVERY`` events a
    second (its background load waits on the fabric's record), so only
    the clock can close its windows on time: one per second, summing to
    the registry once, none empty while the next holds two seconds."""
    from tests import work_rigs

    registry = MetricsRegistry()
    collection = TimeSeriesCollection()
    with use_run(registry=registry, collection=collection):
        counts = work_rigs.yardstick_load()
    assert counts["sim_events"] < 512 * counts["sim_seconds"] / 4
    (run,) = [run for run in collection.runs if run.windows]
    seconds = int(counts["sim_seconds"])
    assert [(w["t0"], w["t1"]) for w in run.windows] == [
        (float(t), float(t + 1)) for t in range(seconds)
    ]
    sent = "net.link.packets_sent{link=server->switch}"
    per_second = [w["counters"].get(sent, 0) for w in run.windows]
    counters, _observed, _buckets = _window_totals([run])
    assert sum(per_second) == counters[sent] == registry.get(
        "net.link.packets_sent", link="server->switch"
    ).value
    # Eight users at five bursts a second: every second carries traffic,
    # and none carries a neighbour's as well.
    assert min(per_second) > 0
    assert max(per_second) < 2.5 * sum(per_second) / seconds
