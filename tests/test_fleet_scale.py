"""Fleet-scale experiment: determinism seam and provisioning sanity.

The load-bearing test is byte-identical equivalence: the same
:class:`FleetSpec` at the same seed must produce the exact same JSON
rows whether the campus runs on ``LocalBackend`` (via ``LocalBus``), a
single-shard ``ShardedBackend``, or a multi-shard one.  This guards the
backend refactor the way ``encode_damage_scalar`` guarded the PR-5
encoder rewrite: any change that lets shard layout or message ordering
leak into results breaks it loudly.
"""

import json

import pytest

from repro.experiments.fleet_scale import (
    FleetAggregator,
    FleetSpec,
    fleet_spec,
    provisioning_rows,
    run_fleet_local,
    run_fleet_sharded,
)

#: Small campus: 12 workgroups, ~6 simulated hours — seconds of wall time.
SMALL = fleet_spec(
    n_desktops=600,
    n_workgroups=12,
    seed=71,
    duration=6 * 3600.0,
    sample_interval=120.0,
    report_window=600.0,
)


def rows_json(aggregator: FleetAggregator, spec: FleetSpec) -> str:
    rows, _notes = provisioning_rows(aggregator, spec)
    return json.dumps(rows, sort_keys=True)


class TestEquivalence:
    def test_sharded1_byte_identical_to_local(self):
        local = rows_json(run_fleet_local(SMALL), SMALL)
        sharded, _collection = run_fleet_sharded(SMALL, 1)
        assert rows_json(sharded, SMALL) == local

    def test_sharded4_byte_identical_to_local(self):
        # Stronger than the ISSUE asks: layout across 4 shards must not
        # leak either, because RNG streams are keyed by workgroup id and
        # aggregation is keyed by (window, workgroup).
        local = rows_json(run_fleet_local(SMALL), SMALL)
        sharded, collection = run_fleet_sharded(SMALL, 4)
        assert rows_json(sharded, SMALL) == local
        assert len(collection.results) == 4

    def test_different_seed_differs(self):
        other = FleetSpec(
            n_workgroups=SMALL.n_workgroups,
            scale=SMALL.scale,
            seed=SMALL.seed + 1,
            duration=SMALL.duration,
            sample_interval=SMALL.sample_interval,
            report_window=SMALL.report_window,
        )
        assert rows_json(run_fleet_local(SMALL), SMALL) != rows_json(
            run_fleet_local(other), other
        )


class TestFleetModel:
    def test_every_window_reported_by_every_workgroup(self):
        aggregator = run_fleet_local(SMALL)
        assert len(aggregator.cells) == SMALL.n_windows * SMALL.n_workgroups

    def test_provisioning_rows_shape(self):
        aggregator = run_fleet_local(SMALL)
        rows, notes = provisioning_rows(aggregator, SMALL)
        mixes = [row["mix"] for row in rows]
        assert mixes == ["design", "lab", "office", "fleet"]
        fleet = rows[-1]
        assert fleet["desktops"] == SMALL.total_desktops()
        assert fleet["servers (E4500)"] >= 1
        assert fleet["peak active"] <= fleet["desktops"]
        assert any("workgroups" in note for note in notes)

    def test_spec_sizes_to_target(self):
        spec = fleet_spec(n_desktops=10_240, n_workgroups=160)
        assert spec.total_desktops() >= 10_000

    def test_merged_telemetry_counts_all_samples(self):
        _aggregator, collection = run_fleet_sharded(SMALL, 2)
        merged = {e["name"]: e for e in collection.telemetry}
        expected = SMALL.n_workgroups * int(
            SMALL.duration / SMALL.sample_interval
        )
        assert merged["fleet.active_users"]["count"] == expected
        shard_samples = sum(r["samples"] for r in collection.results)
        assert shard_samples == expected

    def test_experiment_registered_and_runs_small(self):
        from repro.experiments.fleet_scale import run
        from repro.experiments.runner import EXPERIMENTS

        assert "fleet_scale" in EXPERIMENTS
        result = run(
            n_users=400,
            duration=2 * 3600.0,
            shards=2,
        )
        assert result.rows[-1]["mix"] == "fleet"
        assert any("2 shard processes" in note for note in result.notes)


class TestFleetSeriesAndSlo:
    def test_window_series_mirrors_window_totals(self):
        from repro.experiments.fleet_scale import fleet_window_series

        aggregator = run_fleet_local(SMALL)
        series = fleet_window_series(aggregator, SMALL)
        totals = aggregator.window_totals()
        assert series.label == "fleet/windows"
        assert len(series.windows) == len(totals)
        first = series.windows[0]
        assert first["t1"] - first["t0"] == SMALL.report_window
        assert first["gauges"]["fleet.cpu"] == totals[0]["cpu"]
        assert first["gauges"]["fleet.active"] == totals[0]["active"]

    def test_capacity_slo_holds_at_provisioned_cpus(self):
        from repro.experiments.fleet_scale import (
            fleet_capacity_slos,
            fleet_window_series,
        )
        from repro.obs.slo import SloEngine

        aggregator = run_fleet_local(SMALL)
        rows, _notes = provisioning_rows(aggregator, SMALL)
        series = fleet_window_series(aggregator, SMALL)
        specs = fleet_capacity_slos(rows[-1]["CPUs needed"])
        report = SloEngine(specs).evaluate([series])
        capacity = report.compliance(series.label, "fleet_capacity")
        # cpus_needed is derived from the observed peak, so the capacity
        # objective holds by construction; a violation means the table
        # and the series disagree.
        assert capacity is not None and capacity.compliant

    def test_experiment_adds_slo_column_when_sampling(self):
        from repro.experiments.fleet_scale import run
        from repro.obs.timeseries import TimeSeriesCollection
        from repro.runcontext import use_run

        collection = TimeSeriesCollection(window=600.0)
        with use_run(collection=collection):
            result = run(n_users=400, duration=2 * 3600.0, shards=2)
        fleet = result.rows[-1]
        assert "SLO" in fleet
        assert "capacity" in fleet["SLO"]
        assert collection.run_by_label("fleet/windows") is not None
        assert any("SLO column" in note for note in result.notes)

    def test_no_slo_column_without_sampling(self):
        from repro.experiments.fleet_scale import run

        result = run(n_users=400, duration=2 * 3600.0, shards=1)
        assert "SLO" not in result.rows[-1]
