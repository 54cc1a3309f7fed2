"""Unit tests for the sharded backend's plumbing.

The conformance suite (test_backend_conformance.py) covers the
SimulationBackend surface; this file exercises what is specific to
sharding — cross-shard boundary messages, the lookahead soundness
check, telemetry merging, and worker failure propagation.
"""

import pytest

from repro.errors import SimulationError
from repro.netsim.backend import LocalBackend
from repro.netsim.sharded import (
    COORDINATOR,
    LocalBus,
    ShardContext,
    ShardedBackend,
    merge_telemetry,
)


# -- shard programs (module-level so fork/pickle both work) -----------------


class EchoProgram:
    """Counts pings; replies to the sender; reports totals on collect."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.received = []
        ctx.on_receive("ping", self.on_ping)
        ctx.on_receive("echo", self.on_echo)

    def on_ping(self, payload, arrival):
        self.received.append((payload, arrival))
        self.ctx.send("echo", payload, dst_shard=payload["reply_to"])

    def on_echo(self, payload, arrival):
        self.received.append((payload, arrival))

    def collect(self):
        return len(self.received)


def build_echo(ctx):
    return EchoProgram(ctx)


class RingProgram:
    """Forwards a token around the shard ring a fixed number of hops."""

    def __init__(self, ctx, hops):
        self.ctx = ctx
        self.hops = 0
        ctx.on_receive("token", self.on_token)
        if ctx.shard_index == 0:
            ctx.sim.schedule(0.0, lambda: ctx.send(
                "token", {"left": hops},
                dst_shard=1 % ctx.n_shards,
            ))

    def on_token(self, payload, arrival):
        self.hops += 1
        if payload["left"] > 1:
            self.ctx.send(
                "token",
                {"left": payload["left"] - 1},
                dst_shard=(self.ctx.shard_index + 1) % self.ctx.n_shards,
            )
        else:
            self.ctx.send("done", {"at": arrival})

    def collect(self):
        return self.hops


def build_ring(ctx, hops):
    return RingProgram(ctx, hops)


def build_crash(ctx):
    ctx.sim.schedule(0.1, lambda: 1 / 0)


class TelemetryProgram:
    def __init__(self, ctx):
        from repro.runcontext import current_run
        from repro.telemetry.metrics import MetricsRegistry

        registry = current_run().registry = MetricsRegistry()
        registry.counter("shard.builds").inc()
        registry.gauge("shard.index").set(ctx.shard_index)
        for value in range(10):
            registry.histogram("shard.values").observe(value)


def build_telemetry(ctx):
    return TelemetryProgram(ctx)


# -- tests -------------------------------------------------------------------


class TestBoundaryMessaging:
    def test_coordinator_to_shard_and_back(self):
        with ShardedBackend(2, build=build_echo, lookahead=0.01) as backend:
            got = []
            backend.on_receive("echo", lambda p, t: got.append((p, t)))
            backend.send_to_shard(
                1, "ping", {"reply_to": COORDINATOR}, delay=0.01
            )
            backend.run()
            assert got == [({"reply_to": COORDINATOR}, pytest.approx(0.02))]

    def test_shard_to_shard_ring(self):
        hops = 7
        with ShardedBackend(
            3, build=build_ring, build_args=(hops,), lookahead=0.001
        ) as backend:
            done = []
            backend.on_receive("done", lambda p, t: done.append(p))
            backend.run()
            collection = backend.collect()
        assert done and done[0]["at"] == pytest.approx(hops * 0.001)
        assert sum(collection.results) == hops

    def test_collect_gathers_per_shard_results(self):
        with ShardedBackend(2, build=build_echo, lookahead=0.01) as backend:
            backend.send_to_shard(0, "ping", {"reply_to": 1}, delay=0.01)
            backend.run()
            collection = backend.collect()
        # Shard 0 got the ping, shard 1 got the echo.
        assert collection.results == [1, 1]


class TestLookaheadSoundness:
    def test_send_below_lookahead_rejected(self):
        sim = LocalBackend()
        bus = LocalBus(sim, lookahead=0.01)
        with pytest.raises(SimulationError):
            bus.send("x", None, delay=0.001)

    def test_coordinator_send_below_lookahead_rejected(self):
        with ShardedBackend(1, lookahead=0.01) as backend:
            with pytest.raises(SimulationError):
                backend.send_to_shard(0, "x", None, delay=0.001)

    def test_nonpositive_lookahead_rejected(self):
        with pytest.raises(SimulationError):
            ShardedBackend(1, lookahead=0.0)

    def test_unknown_destination_rejected(self):
        sim = LocalBackend()
        bus = LocalBus(sim, lookahead=0.01)
        with pytest.raises(SimulationError):
            bus.send("x", None, dst_shard=5)


class TestLocalBusParity:
    def test_local_bus_delivers_with_identical_delay(self):
        sim = LocalBackend()
        bus = LocalBus(sim, lookahead=0.25)
        got = []
        bus.on_receive("report", lambda p, t: got.append((p, t)))
        sim.schedule(1.0, lambda: bus.send("report", "hello"))
        sim.run()
        assert got == [("hello", 1.25)]

    def test_unhandled_port_raises(self):
        sim = LocalBackend()
        bus = LocalBus(sim, lookahead=0.25)
        bus.send("nobody-listens", None)
        with pytest.raises(SimulationError):
            sim.run()


class TestFailureAndLifecycle:
    def test_worker_exception_propagates_with_traceback(self):
        with ShardedBackend(2, build=build_crash) as backend:
            with pytest.raises(SimulationError, match="ZeroDivisionError"):
                backend.run()

    @pytest.mark.parametrize("waiting_for", ["advanced", "collected"])
    def test_killed_worker_is_a_named_error(self, waiting_for):
        """A worker the OS killed between two slices: the coordinator
        names the shard (not a bare EOFError) and reaps every child."""
        backend = ShardedBackend(3, build=build_echo)
        backend.run_until(0.5)
        processes = [process for process, _conn in backend._workers]
        processes[2].kill()
        processes[2].join(timeout=10)
        with pytest.raises(SimulationError) as caught:
            if waiting_for == "advanced":
                backend.run_until(1.0)
            else:
                backend.collect()
        message = str(caught.value)
        assert "shard 2 exited (exitcode -9)" in message
        assert f"waited for '{waiting_for}'" in message
        backend.close()  # already closed by the failure: returns at once
        assert not any(process.is_alive() for process in processes)
        with pytest.raises(SimulationError, match="closed"):
            backend.run_until(2.0)

    def test_close_is_idempotent_and_blocks_reuse(self):
        backend = ShardedBackend(1)
        backend.schedule(0.1, lambda: None)
        backend.run()
        backend.close()
        backend.close()
        with pytest.raises(SimulationError):
            backend.run()

    def test_shard_count_validated(self):
        with pytest.raises(SimulationError):
            ShardedBackend(0)


class TestTelemetryMerge:
    def test_counters_sum_gauges_last_write(self):
        with ShardedBackend(3, build=build_telemetry) as backend:
            backend.run()
            collection = backend.collect()
        merged = {e["name"]: e for e in collection.telemetry}
        assert merged["shard.builds"]["value"] == 3
        assert merged["shard.index"]["value"] == 2  # last shard wins
        histogram = merged["shard.values"]
        assert histogram["count"] == 30
        assert histogram["min"] == 0 and histogram["max"] == 9
        assert histogram["mean"] == pytest.approx(4.5)

    def test_merge_handles_disjoint_instruments(self):
        a = [{"kind": "counter", "name": "only.a", "labels": {}, "value": 1}]
        b = [{"kind": "counter", "name": "only.b", "labels": {}, "value": 2}]
        merged = {e["name"]: e["value"] for e in merge_telemetry([a, b])}
        assert merged == {"only.a": 1, "only.b": 2}

    def test_merge_empty(self):
        assert merge_telemetry([]) == []


class TestWindowJump:
    def test_idle_stretch_costs_one_barrier_not_millions(self):
        # A day-long gap between events must not tick lookahead-sized
        # windows: the window jumps to the next event directly.
        with ShardedBackend(2, lookahead=0.001) as backend:
            fired = []
            backend.schedule_at(0.0, lambda: fired.append("start"))
            backend.schedule_at(86_400.0, lambda: fired.append("end"))
            backend.run()
            assert fired == ["start", "end"]
            assert backend.now >= 86_400.0


class FidelityProgram:
    """Deterministic per-entity telemetry, partitioned by shard layout.

    Each entity's observations come from an RNG seeded by (seed, entity)
    — never by shard index — so the only thing that changes between a
    single-shard and a multi-shard run is which process holds which
    instruments, i.e. exactly what merge_telemetry must reconcile.
    """

    N_ENTITIES = 24
    SEED = 97
    BUCKETS = (0.1, 0.25, 0.5, 0.75, 1.0)

    def __init__(self, ctx):
        import numpy as np

        from repro.runcontext import current_run
        from repro.telemetry.metrics import MetricsRegistry

        registry = current_run().registry = MetricsRegistry()
        for entity in range(self.N_ENTITIES):
            if entity % ctx.n_shards != ctx.shard_index:
                continue
            rng = np.random.default_rng([self.SEED, entity])
            registry.counter("fid.events", entity=str(entity)).inc(entity + 1)
            total = registry.counter("fid.total")
            hist = registry.histogram("fid.latency", buckets=self.BUCKETS)
            for value in rng.uniform(0.0, 1.0, size=50):
                hist.observe(float(value))
                total.inc()


def build_fidelity(ctx):
    return FidelityProgram(ctx)


class SeriesProgram:
    """Advances sim time while bumping a per-shard counter, so the
    worker's time-series sampler has something to window."""

    def __init__(self, ctx):
        from repro.runcontext import current_run
        from repro.telemetry.metrics import MetricsRegistry

        registry = current_run().registry = MetricsRegistry()
        counter = registry.counter(
            "series.ticks", shard=str(ctx.shard_index)
        )
        for i in range(10):
            ctx.sim.schedule_at(0.5 * i, counter.inc)


def build_series(ctx):
    return SeriesProgram(ctx)


class TestMergeTelemetryFidelity:
    """Satellite: fixed-seed sharded vs single-shard telemetry.

    Counters and histogram count/min/max/buckets merge exactly; the
    histogram sum is exact up to float summation order (merging adds
    per-shard partial sums); quantiles are P2 estimates combined by
    count-weighted mean, documented as approximate — pinned here to a
    15% relative tolerance.
    """

    QUANTILE_RTOL = 0.15

    @staticmethod
    def merged(n_shards):
        with ShardedBackend(n_shards, build=build_fidelity) as backend:
            backend.run()
            collection = backend.collect()
        return {
            (e["name"], tuple(sorted(e["labels"].items()))): e
            for e in collection.telemetry
        }

    def test_sharded_matches_single_shard_within_tolerance(self):
        single = self.merged(1)
        sharded = self.merged(2)
        assert set(single) == set(sharded)

        for key in single:
            ours, theirs = single[key], sharded[key]
            if ours["kind"] == "counter":
                assert ours["value"] == theirs["value"], key

        key = ("fid.latency", ())
        ours, theirs = single[key], sharded[key]
        assert ours["count"] == theirs["count"] == (
            FidelityProgram.N_ENTITIES * 50
        )
        assert ours["min"] == theirs["min"]
        assert ours["max"] == theirs["max"]
        assert theirs["sum"] == pytest.approx(ours["sum"], rel=1e-12)
        assert ours["buckets"] == theirs["buckets"]
        for q, value in ours["quantiles"].items():
            assert theirs["quantiles"][q] == pytest.approx(
                value, rel=self.QUANTILE_RTOL
            ), f"quantile {q} drifted past the documented tolerance"

    def test_per_entity_counters_are_layout_invariant(self):
        single = self.merged(1)
        sharded = self.merged(3)
        for entity in range(FidelityProgram.N_ENTITIES):
            key = ("fid.events", (("entity", str(entity)),))
            assert single[key]["value"] == sharded[key]["value"] == entity + 1


class TestShardSeriesGathering:
    def test_series_gathered_and_merged_at_collect_barrier(self):
        from repro.obs.timeseries import TimeSeriesCollection
        from repro.runcontext import use_run

        collection = TimeSeriesCollection(window=1.0)
        with use_run(collection=collection):
            with ShardedBackend(
                2, build=build_series, lookahead=0.25
            ) as backend:
                backend.run()
                shard_collection = backend.collect()

        merged = shard_collection.series
        assert merged is not None
        assert [s is not None for s in shard_collection.series_per_shard] == (
            [True, True]
        )
        # 10 ticks per shard, summed window-by-window across shards.
        total = sum(
            delta
            for window in merged.windows
            for key, delta in window["counters"].items()
            if key.startswith("series.ticks")
        )
        assert total == 20
        # The merged timeline was adopted into the active collection, so
        # --timeseries/--slo see sharded runs like any other.
        assert merged in collection.runs

    def test_no_series_without_active_collection(self):
        with ShardedBackend(2, build=build_series, lookahead=0.25) as backend:
            backend.run()
            shard_collection = backend.collect()
        assert shard_collection.series is None
        assert shard_collection.series_per_shard == [None, None]
