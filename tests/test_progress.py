"""Tests for the run's progress painter and the engine's monitor hook."""

import io

import pytest

from repro.netsim.engine import Simulator
from repro.obs.progress import ProgressMonitor
from repro.runcontext import use_run


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


class FakeSim:
    """Minimal stand-in with the two fields the monitor reads."""

    def __init__(self, now=0.0, events_processed=0):
        self.now = now
        self.events_processed = events_processed


class TestDropCounterCache:
    def test_sums_drop_counters_and_caches_handles(self):
        from repro.obs.progress import _DropCounterCache
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
        from repro.obs.progress import _DropCounterCache

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
        from repro.obs.progress import DashboardMonitor

        out = io.StringIO()
        monitor = DashboardMonitor(stream=out, min_interval=0.0)
        with use_run(collection=self.collection()):
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
        from repro.obs.progress import DashboardMonitor

        out = io.StringIO()
        monitor = DashboardMonitor(stream=out, min_interval=0.0, every=100)
        simulators = 3
        with use_run(progress=monitor, collection=self.collection()):
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
        from repro.obs.progress import DashboardMonitor

        out = io.StringIO()
        monitor = DashboardMonitor(stream=out, min_interval=0.0)
        with use_run(progress=monitor, collection=self.collection()):
            sim = Simulator()
            for i in range(20000):
                sim.schedule(i * 1e-4, lambda: None)
            sim.run()
        assert monitor.updates_painted > 0
        assert "net.pkts" in out.getvalue()
        assert not Simulator().monitored
