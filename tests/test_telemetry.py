"""Tests for the telemetry subsystem: metrics and reporting."""

import json

import numpy as np
import pytest

from repro.netsim.engine import Simulator
from repro.runcontext import use_run
from repro.telemetry import (
    MetricsRegistry,
    NullRegistry,
    P2Quantile,
    get_registry,
    render_json,
    render_report,
)


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("c", a=1) is reg.counter("c", a=1)
        assert reg.counter("c", a=1) is not reg.counter("c", a=2)
        assert reg.counter("c", a=1) is not reg.counter("d", a=1)

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.counter("c", a=1, b=2) is reg.counter("c", b=2, a=1)


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13


class TestP2Quantile:
    def test_exact_below_five(self):
        est = P2Quantile(0.5)
        for x in (3.0, 1.0, 2.0):
            est.observe(x)
        assert est.value() == 2.0

    def test_empty_is_zero(self):
        assert P2Quantile(0.9).value() == 0.0

    def test_streaming_accuracy(self):
        rng = np.random.default_rng(7)
        data = rng.exponential(scale=1.0, size=5000)
        est = P2Quantile(0.9)
        for x in data:
            est.observe(float(x))
        true = float(np.quantile(data, 0.9))
        assert abs(est.value() - true) / true < 0.05

    def test_single_observation_is_exact_for_any_quantile(self):
        for q in (0.01, 0.5, 0.99):
            est = P2Quantile(q)
            est.observe(42.0)
            assert est.value() == 42.0

    def test_below_five_matches_linear_interpolation(self):
        # The pre-marker phase must agree with numpy's linear method.
        data = [4.0, 1.0, 3.0, 2.0]
        for n in (2, 3, 4):
            for q in (0.5, 0.9):
                est = P2Quantile(q)
                for x in data[:n]:
                    est.observe(x)
                expected = float(np.quantile(data[:n], q))
                assert est.value() == pytest.approx(expected)

    def test_all_equal_samples(self):
        # Degenerate marker heights must not divide by zero or drift.
        for q in (0.5, 0.9, 0.99):
            est = P2Quantile(q)
            for _ in range(100):
                est.observe(5.0)
            assert est.value() == 5.0

    def test_monotone_stream_accuracy(self):
        # A strictly increasing stream is the adversarial case for the
        # marker update (every observation lands in the last cell).
        n = 10_000
        for q in (0.5, 0.99):
            est = P2Quantile(q)
            for x in range(n):
                est.observe(float(x))
            true = float(np.quantile(np.arange(n), q))
            assert abs(est.value() - true) / true < 0.05


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        h = MetricsRegistry().histogram("h")
        for x in (1.0, 2.0, 3.0):
            h.observe(x)
        assert h.count == 3
        assert h.sum == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == 2.0

    def test_bucket_counts_per_bin_plus_inf(self):
        h = MetricsRegistry().histogram("h", buckets=(1, 10))
        for x in (0.5, 5.0, 50.0):
            h.observe(x)
        assert dict(h.buckets()) == {1: 1, 10: 1, float("inf"): 1}

    def test_quantiles(self):
        h = MetricsRegistry().histogram("h")
        for x in range(1, 101):
            h.observe(float(x))
        assert abs(h.quantile(0.5) - 50) < 5
        assert abs(h.quantile(0.99) - 99) < 5
        with pytest.raises(KeyError):
            h.quantile(0.123)

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(5, 5))


class TestRegistry:
    def test_collect_prefix(self):
        reg = MetricsRegistry()
        reg.counter("net.link.bytes")
        reg.counter("console.decode.count")
        names = [i.name for i in reg.collect("net.")]
        assert names == ["net.link.bytes"]

    def test_get(self):
        reg = MetricsRegistry()
        c = reg.counter("c", link="a")
        assert reg.get("c", link="a") is c
        assert reg.get("c", link="b") is None

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert len(reg) == 0

    def test_isolated_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc()
        assert b.get("c") is None


class TestGlobalRegistry:
    def test_default_is_null(self):
        assert isinstance(get_registry(), NullRegistry)
        assert not get_registry().enabled

    def test_null_instruments_are_inert(self):
        null = NullRegistry()
        null.counter("c").inc()
        null.gauge("g").set(5)
        null.histogram("h").observe(1.0)
        assert len(null.collect()) == 0
        assert null.snapshot() == []

    def test_use_registry_swaps_and_restores(self):
        before = get_registry()
        with use_run(registry=MetricsRegistry()) as run:
            assert get_registry() is run.registry
            assert run.registry.enabled
        assert get_registry() is before


class TestReport:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("net.link.bytes_sent", link="a").inc(100)
        reg.counter("net.link.bytes_sent", link="b").inc(50)
        reg.gauge("compression").set(3.5)
        h = reg.histogram("latency", buckets=(0.001, 0.1))
        h.observe(0.05)
        return reg

    def test_render_report_contains_everything(self):
        text = render_report(self.make_registry())
        assert "net.link.bytes_sent" in text
        assert "{link=a}" in text
        assert "compression" in text
        assert "p50" in text and "p99" in text
        assert "buckets" in text

    def test_render_report_prefix_filter(self):
        text = render_report(self.make_registry(), prefix="net.")
        assert "net.link.bytes_sent" in text
        assert "compression" not in text

    def test_render_json_parses(self):
        data = json.loads(render_json(self.make_registry()))
        names = {entry["name"] for entry in data}
        assert "net.link.bytes_sent" in names
        assert "latency" in names

    def test_json_handles_infinity(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1,)).observe(5.0)
        json.loads(render_json(reg))  # must not emit bare Infinity

    def test_infinite_gauge_renders(self):
        # A starved yardstick's mean RTT is inf (no round answered).
        reg = MetricsRegistry()
        reg.gauge("rtt_ms").set(float("inf"))
        assert "inf" in render_report(reg)


class TestInstrumentedComponents:
    """Hot-path instrumentation end to end, and its null-path absence."""

    def test_driver_and_console_metrics(self):
        from repro.console.console import Console
        from repro.framebuffer import PaintKind, PaintOp, Rect
        from repro.server.slimdriver import SlimDriver

        reg = MetricsRegistry()
        with use_run(registry=reg):
            console = Console(width=64, height=64)
            driver = SlimDriver(send=console.enqueue)
        driver.update(0.0, [PaintOp(PaintKind.FILL, Rect(0, 0, 32, 32))])
        assert reg.get("server.driver.updates").value == 1
        assert reg.get("console.decode.count", opcode="FILL").value == 1
        assert reg.get("server.driver.update_service_seconds").count == 1
        assert reg.get("span.server.driver.update.seconds").count == 1

    def test_network_metrics(self):
        from repro.netsim.packet import Packet
        from repro.netsim.transport import Endpoint, Network

        reg = MetricsRegistry()
        sim = Simulator()
        with use_run(registry=reg):
            net = Network(sim, default_rate_bps=100e6)
            net.attach(Endpoint("a"))
            net.attach(Endpoint("b"))
        net.send(Packet(src="a", dst="b", nbytes=1000))
        sim.run()
        assert reg.get("net.link.bytes_sent", link="a->switch").value == 1000
        assert reg.get("net.switch.packets_forwarded", switch="switch").value == 1
        assert reg.get("net.switch.queue_depth", switch="switch").count == 1

    def test_scheduler_metrics(self):
        from repro.server.scheduler import PeriodicTask, Scheduler

        reg = MetricsRegistry()
        sim = Simulator()
        with use_run(registry=reg):
            sched = Scheduler(sim, num_cpus=1)
        sched.spawn(PeriodicTask(burst=0.01, think=0.05))
        sim.run_until(1.0)
        assert reg.get("server.scheduler.cpu_seconds").value > 0
        assert reg.get("server.scheduler.run_queue_len").count > 0
        assert reg.get("server.scheduler.cpu_share", task="yardstick") is not None

    def test_null_registry_records_nothing(self):
        from repro.framebuffer import PaintKind, PaintOp, Rect
        from repro.server.slimdriver import SlimDriver

        driver = SlimDriver()  # global registry is the null one
        driver.update(0.0, [PaintOp(PaintKind.FILL, Rect(0, 0, 8, 8))])
        assert len(get_registry().collect()) == 0

    def test_telemetry_does_not_change_results(self):
        """Running instrumented code with telemetry on is value-neutral."""
        from repro.experiments.table4 import run_echo

        baseline = run_echo()
        with use_run(registry=MetricsRegistry()):
            instrumented = run_echo()
        assert instrumented == baseline
