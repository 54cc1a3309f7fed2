"""Tests for the self-measurement harness, schema, and progress line."""

import io
import json

import pytest

import repro.perf.scenarios  # noqa: F401  (registers the scenarios)
from repro.errors import ReproError
from repro.netsim.engine import Simulator
from repro.perf.__main__ import main as perf_main
from repro.perf.harness import (
    SCENARIOS,
    Metric,
    ScenarioContext,
    ScenarioRun,
    ScenarioSpec,
    measure_scenario,
    rates_from_samples,
    run_harness,
    scenario,
)
from repro.perf.progress import ProgressMonitor
from repro.runcontext import use_run
from repro.perf.schema import (
    SCHEMA_KIND,
    SCHEMA_VERSION,
    BenchSchemaError,
    bench_document,
    comparable_metrics,
    default_bench_path,
    load_bench,
    validate,
    write_bench,
)

EXPECTED_SCENARIOS = {
    "wire_roundtrip",
    "netsim_events",
    "switch_forward",
    "encode_damage",
    "console_decode",
    "channel_lossy",
    "yardstick_load",
    "e2e_session",
}


class TestRegistry:
    def test_all_pinned_scenarios_registered(self):
        assert EXPECTED_SCENARIOS <= set(SCENARIOS)

    def test_specs_carry_titles(self):
        assert all(spec.title for spec in SCENARIOS.values())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            scenario("wire_roundtrip")(lambda ctx: {})

    def test_context_scale_picks_by_mode(self):
        assert ScenarioContext(quick=False).scale(100, 10) == 100
        assert ScenarioContext(quick=True).scale(100, 10) == 10


class TestRatesFromSamples:
    SAMPLES = [
        (1.0, {"packets": 100, "sim_seconds": 10.0}),
        (2.0, {"packets": 100, "sim_seconds": 10.0}),
        (4.0, {"packets": 100, "sim_seconds": 10.0}),
    ]

    def test_wall_is_median_lower_is_better(self):
        m = rates_from_samples(self.SAMPLES)["wall_seconds"]
        assert m.value == 2.0
        assert m.higher_is_better is False
        assert m.compare is True
        assert m.samples == [1.0, 2.0, 4.0]

    def test_rates_computed_per_sample_then_medianed(self):
        # Median of per-sample rates (100, 50, 25), NOT
        # median-count / median-wall (which would also be 50 here, so
        # pin the samples list to tell the difference).
        m = rates_from_samples(self.SAMPLES)["packets_per_sec"]
        assert m.samples == [100.0, 50.0, 25.0]
        assert m.value == 50.0
        assert m.higher_is_better is True and m.compare is True

    def test_sim_seconds_becomes_sim_speedup(self):
        metrics = rates_from_samples(self.SAMPLES)
        assert metrics["sim_speedup"].value == 5.0
        assert metrics["sim_speedup"].unit == "sim-s/s"

    def test_raw_counts_are_informational(self):
        m = rates_from_samples(self.SAMPLES)["packets"]
        assert m.compare is False
        assert m.value == 100.0

    def test_zero_wall_yields_zero_rate(self):
        metrics = rates_from_samples([(0.0, {"packets": 5})])
        assert metrics["packets_per_sec"].value == 0.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ReproError):
            rates_from_samples([])


class TestMeasureScenario:
    def spec(self, calls):
        def fn(ctx):
            calls.append(ctx)
            return {"widgets": 7}

        return ScenarioSpec(name="fake", title="fake", fn=fn)

    def test_warmup_runs_are_discarded_not_skipped(self):
        calls = []
        run = measure_scenario(
            self.spec(calls), ScenarioContext(), repeats=3, warmup=2,
            measure_memory=False,
        )
        assert len(calls) == 5  # 2 warmup + 3 measured
        assert run.repeats == 3 and run.warmup == 2
        assert len(run.metrics["wall_seconds"].samples) == 3

    def test_memory_pass_adds_tracemalloc_metric(self):
        calls = []
        run = measure_scenario(
            self.spec(calls), ScenarioContext(), repeats=1, warmup=0,
            measure_memory=True,
        )
        assert len(calls) == 2  # 1 measured + 1 memory pass
        peak = run.metrics["tracemalloc_peak_kib"]
        assert peak.higher_is_better is False and peak.compare is True

    def test_invalid_repeat_counts_rejected(self):
        spec = self.spec([])
        with pytest.raises(ReproError):
            measure_scenario(spec, ScenarioContext(), repeats=0)
        with pytest.raises(ReproError):
            measure_scenario(spec, ScenarioContext(), warmup=-1)

    def test_real_scenario_quick_smoke(self):
        run = measure_scenario(
            SCENARIOS["wire_roundtrip"],
            ScenarioContext(quick=True),
            repeats=1,
            warmup=0,
            measure_memory=False,
        )
        for name in ("wall_seconds", "messages", "packets",
                     "messages_per_sec", "packets_per_sec"):
            assert name in run.metrics, name
        assert run.metrics["wall_seconds"].value > 0
        assert run.metrics["packets"].value >= run.metrics["messages"].value

    def test_run_harness_rejects_unknown_names(self):
        with pytest.raises(ReproError, match="unknown perf scenarios"):
            run_harness(names=["no_such_scenario"])


class TestSchema:
    def run(self):
        return ScenarioRun(
            name="s",
            title="t",
            repeats=1,
            warmup=0,
            metrics={"wall_seconds": Metric(1.0, "s", False)},
        )

    def test_document_shape_and_validate(self):
        doc = bench_document([self.run()], {"quick": True})
        validate(doc)
        assert doc["kind"] == SCHEMA_KIND
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["config"] == {"quick": True}
        assert "wall_seconds" in doc["scenarios"]["s"]["metrics"]

    def test_write_load_roundtrip(self, tmp_path):
        path = write_bench([self.run()], {"quick": True},
                           tmp_path / "BENCH_x.json")
        doc = load_bench(path)
        assert doc["scenarios"]["s"]["metrics"]["wall_seconds"]["value"] == 1.0

    def test_wrong_kind_rejected(self):
        doc = bench_document([self.run()])
        doc["kind"] = "something-else"
        with pytest.raises(BenchSchemaError, match="kind"):
            validate(doc)

    def test_wrong_version_rejected(self):
        doc = bench_document([self.run()])
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(BenchSchemaError, match="schema_version"):
            validate(doc)

    def test_metric_missing_direction_rejected(self):
        doc = bench_document([self.run()])
        del doc["scenarios"]["s"]["metrics"]["wall_seconds"][
            "higher_is_better"
        ]
        with pytest.raises(BenchSchemaError, match="higher_is_better"):
            validate(doc)

    def test_load_rejects_garbage_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(BenchSchemaError, match="not valid JSON"):
            load_bench(path)

    def test_default_path_embeds_sha(self, tmp_path):
        assert default_bench_path(tmp_path, sha="abc1234").name == (
            "BENCH_abc1234.json"
        )

    def test_comparable_metrics_filters_info(self):
        run = self.run()
        run.metrics["packets"] = Metric(5.0, "", True, compare=False)
        entry = bench_document([run])["scenarios"]["s"]
        assert comparable_metrics(entry) == ["wall_seconds"]


class TestEngineMonitorHook:
    def drain(self, n=10):
        sim = Simulator()
        for i in range(n):
            sim.schedule(i * 0.1, lambda: None)
        sim.run()
        return sim

    def test_factory_attaches_to_new_simulators(self):
        seen = []

        class Spy:
            every = 2

            def __call__(self, sim):
                seen.append(sim.events_processed)

            def finish(self):
                pass

        with use_run(progress=Spy()):
            self.drain(10)
        assert seen == [2, 4, 6, 8, 10]

    def test_no_factory_no_callbacks(self):
        sim = self.drain(10)
        assert not sim.monitored


class TestProgressMonitor:
    def test_paint_renders_health_fields(self):
        out = io.StringIO()
        monitor = ProgressMonitor(
            target_sim_seconds=100.0, stream=out, min_interval=0.0
        )
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        monitor.paint(sim)
        line = out.getvalue()
        assert "sim 5.00s" in line
        assert "events" in line and "ev/s" in line and "sim-s/s" in line
        assert monitor.updates_painted == 1

    def test_finish_terminates_the_line_once(self):
        out = io.StringIO()
        monitor = ProgressMonitor(stream=out, min_interval=0.0)
        monitor.paint(Simulator())
        monitor.finish()
        monitor.finish()
        assert out.getvalue().endswith("\n")
        assert out.getvalue().count("\n") == 1

    def test_eta_needs_target_and_rate(self):
        monitor = ProgressMonitor(target_sim_seconds=10.0)
        assert monitor.eta_seconds(4.0, 2.0) == pytest.approx(3.0)
        assert monitor.eta_seconds(4.0, 0.0) is None
        assert ProgressMonitor().eta_seconds(4.0, 2.0) is None

    def test_live_progress_installs_and_restores(self):
        out = io.StringIO()
        monitor = ProgressMonitor(stream=out, min_interval=0.0)
        with use_run(progress=monitor):
            sim = Simulator()
            for i in range(20000):
                sim.schedule(i * 1e-4, lambda: None)
            sim.run()
        assert monitor.updates_painted > 0
        assert "events" in out.getvalue()
        # Outside the context, new simulators are monitor-free again.
        assert not Simulator().monitored


class TestPerfCli:
    def test_list_names_every_scenario(self, capsys):
        assert perf_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_SCENARIOS:
            assert name in out

    def test_quick_subset_writes_valid_bench_file(self, tmp_path, capsys):
        path = tmp_path / "BENCH_test.json"
        rc = perf_main([
            "--quick", "--repeats", "1", "--warmup", "0", "--no-memory",
            "--only", "wire_roundtrip,netsim_events",
            "-o", str(path),
        ])
        assert rc == 0
        doc = load_bench(path)
        assert set(doc["scenarios"]) == {"wire_roundtrip", "netsim_events"}
        assert doc["config"]["quick"] is True
        assert "2 scenarios" in capsys.readouterr().out

    def test_bench_file_feeds_benchdiff(self, tmp_path):
        from repro.tools.benchdiff import diff_documents

        path = tmp_path / "BENCH_self.json"
        perf_main([
            "--quick", "--repeats", "1", "--warmup", "0", "--no-memory",
            "--only", "wire_roundtrip", "-o", str(path),
        ])
        doc = load_bench(path)
        diff = diff_documents(doc, json.loads(json.dumps(doc)))
        assert diff.exit_code() == 0
        assert diff.regressions() == []


class FakeSim:
    """Minimal stand-in with the two fields the monitor reads."""

    def __init__(self, now=0.0, events_processed=0):
        self.now = now
        self.events_processed = events_processed


class TestDropCounterCache:
    def test_sums_drop_counters_and_caches_handles(self):
        from repro.perf.progress import _DropCounterCache
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        lost = registry.counter("net.link.packets_lost", link="a")
        lost.inc(3)
        with use_run(registry=registry):
            cache = _DropCounterCache()
            assert cache.total() == 3
            # Without registry growth, repaints must reuse the cached
            # instrument handles instead of rescanning collect().
            scans = []
            original_collect = registry.collect

            def counting_collect(prefix=""):
                scans.append(prefix)
                return original_collect(prefix)

            registry.collect = counting_collect
            lost.inc(2)
            assert cache.total() == 5
            assert scans == []
            # A new instrument changes len(registry): rescan picks it up.
            registry.counter("net.link.packets_dropped", link="b").inc(4)
            assert cache.total() == 9
            assert scans

    def test_disabled_registry_is_zero(self):
        from repro.perf.progress import _DropCounterCache

        # The ambient default registry is the disabled NullRegistry.
        assert _DropCounterCache().total() == 0


class TestWindowedSimRate:
    def paint_at(self, monitor, sim_now, events, wall):
        sim = FakeSim(now=sim_now, events_processed=events)
        monitor.paint(sim, now=wall)

    def test_eta_tracks_recent_rate_not_lifetime_average(self):
        out = io.StringIO()
        monitor = ProgressMonitor(
            target_sim_seconds=1000.0, stream=out, min_interval=0.0
        )
        start = monitor._last_wall
        # First repaint window: 1 sim-s over 1 wall-s.
        self.paint_at(monitor, 1.0, 1000, start + 1.0)
        assert monitor._sim_rate == pytest.approx(1.0)
        # Second window is 10x faster; the EMA moves toward it while the
        # lifetime average (11 sim-s / 2 wall-s = 5.5) would not.
        self.paint_at(monitor, 11.0, 2000, start + 2.0)
        expected = 1.0 + 0.4 * (10.0 - 1.0)
        assert monitor._sim_rate == pytest.approx(expected)
        assert monitor._sim_rate != pytest.approx(5.5)
        line = out.getvalue()
        assert f"{expected:.1f} sim-s/s" in line

    def test_eta_field_uses_the_windowed_rate(self):
        out = io.StringIO()
        monitor = ProgressMonitor(
            target_sim_seconds=10.0, stream=out, min_interval=0.0
        )
        self.paint_at(monitor, 5.0, 100, monitor._last_wall + 1.0)
        # 5 sim-s left at 5 sim-s/s -> one second.
        assert "eta 0:01" in out.getvalue()


class TestDashboardMonitor:
    def collection(self):
        from repro.obs.timeseries import TimeSeriesCollection

        collection = TimeSeriesCollection(window=1.0)
        run = collection.new_run("demo")
        for i in range(6):
            run.append_window({
                "t0": float(i), "t1": float(i) + 1.0,
                "counters": {"net.pkts": 5 + i},
                "gauges": {}, "histograms": {},
            })
        return collection

    def test_paint_renders_status_plus_sparkline_rows(self):
        from repro.perf.progress import DashboardMonitor

        out = io.StringIO()
        monitor = DashboardMonitor(
            collection=self.collection(), stream=out, min_interval=0.0
        )
        monitor.paint(FakeSim(now=6.0, events_processed=1200))
        text = out.getvalue()
        assert "sim 6.00s" in text
        assert "net.pkts" in text and "|" in text
        # Second repaint rewinds to the top of the painted block.
        monitor.paint(FakeSim(now=7.0, events_processed=1300))
        assert f"\x1b[{2}F" in out.getvalue()

    def test_one_block_repaints_across_simulators(self):
        """The run's one painter: a later simulator's first paint rewinds
        over the block the previous simulator left, instead of stacking a
        new block under it, and the rate window starts afresh."""
        from repro.perf.progress import DashboardMonitor

        out = io.StringIO()
        monitor = DashboardMonitor(
            self.collection(), stream=out, min_interval=0.0, every=100
        )
        simulators = 3
        with use_run(progress=monitor):
            for _ in range(simulators):
                sim = Simulator()
                for i in range(250):
                    sim.schedule(i * 1e-3, lambda: None)
                before = len(out.getvalue())
                sim.run()
                first_paint = out.getvalue()[before:]
                if before:
                    assert first_paint.startswith("\x1b[2F")
                assert monitor._last_events == 200  # this simulator's count
        assert out.getvalue().count("\x1b[2F") >= simulators - 1

    def test_live_dashboard_installs_and_restores(self):
        from repro.perf.progress import DashboardMonitor

        out = io.StringIO()
        monitor = DashboardMonitor(
            self.collection(), stream=out, min_interval=0.0
        )
        with use_run(progress=monitor):
            sim = Simulator()
            for i in range(20000):
                sim.schedule(i * 1e-4, lambda: None)
            sim.run()
        assert monitor.updates_painted > 0
        assert "net.pkts" in out.getvalue()
        assert not Simulator().monitored
