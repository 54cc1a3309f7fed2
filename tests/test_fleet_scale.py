"""Fleet-scale experiment: determinism seam and provisioning sanity.

The load-bearing test is byte-identical equivalence: the same
:class:`FleetSpec` at the same seed must produce the exact same JSON
rows however many of its slices run side by side.  Any change that lets
the worker count or the order slices finish in leak into results
breaks it loudly.
"""

import json
import re

import pytest

from repro.experiments.fleet_scale import (
    SLICES,
    FleetAggregator,
    FleetSpec,
    fleet_spec,
    provisioning_rows,
    run_fleet,
    run_slice,
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


def run_fleet_local(spec: FleetSpec) -> FleetAggregator:
    """Every slice in turn, in this process: no child, no sweep."""
    return FleetAggregator([run_slice(spec, index) for index in range(SLICES)])


class TestEquivalence:
    def test_sharded1_byte_identical_to_local(self, monkeypatch):
        # One worker: the sweep's children run the slices one by one.
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        local = rows_json(run_fleet_local(SMALL), SMALL)
        assert rows_json(run_fleet(SMALL), SMALL) == local

    def test_sharded4_byte_identical_to_local(self, monkeypatch):
        # Every slice at once: RNG streams are keyed by workgroup id and
        # aggregation by (window, workgroup), so neither the worker count
        # nor the order slices finish in may leak.
        monkeypatch.setattr("os.cpu_count", lambda: SLICES)
        local = rows_json(run_fleet_local(SMALL), SMALL)
        assert rows_json(run_fleet(SMALL), SMALL) == local

    def test_slices_partition_the_campus(self):
        keys = []
        for index in range(SLICES):
            keys.append(set(run_slice(SMALL, index)["reports"]))
        every = set().union(*keys)
        assert sum(len(k) for k in keys) == len(every)
        assert len(every) == SMALL.n_windows * SMALL.n_workgroups
        for index, slice_keys in enumerate(keys):
            assert {w % SLICES for _window, w in slice_keys} == {index}

    def test_different_seed_differs(self):
        other = FleetSpec(
            n_workgroups=SMALL.n_workgroups,
            scale=SMALL.scale,
            seed=SMALL.seed + 1,
            duration=SMALL.duration,
            sample_interval=SMALL.sample_interval,
            report_window=SMALL.report_window,
        )
        assert rows_json(run_fleet(SMALL), SMALL) != rows_json(
            run_fleet(other), other
        )


@pytest.fixture(scope="module")
def small_fleet():
    return run_fleet(SMALL)


class TestFleetModel:
    def test_every_window_reported_by_every_workgroup(self, small_fleet):
        aggregator = small_fleet
        assert len(aggregator.cells) == SMALL.n_windows * SMALL.n_workgroups

    def test_provisioning_rows_shape(self, small_fleet):
        rows, notes = provisioning_rows(small_fleet, SMALL)
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

    def test_merged_telemetry_counts_all_samples(self, small_fleet):
        expected = SMALL.n_workgroups * int(
            SMALL.duration / SMALL.sample_interval
        )
        assert small_fleet.samples == expected

    def test_experiment_registered_and_runs_small(self):
        from repro.experiments.fleet_scale import run
        from repro.experiments.runner import EXPERIMENTS

        assert "fleet_scale" in EXPERIMENTS
        result = run(n_users=400, duration=2 * 3600.0)
        assert result.rows[-1]["mix"] == "fleet"
        assert any(
            note.startswith(f"{SLICES} independent slices")
            # 160 workgroups x 120 one-minute samples.
            and "19200 demand samples" in note
            for note in result.notes
        )


class TestFleetSeriesAndSlo:
    def test_window_series_mirrors_window_totals(self, small_fleet):
        from repro.experiments.fleet_scale import fleet_window_series

        aggregator = small_fleet
        series = fleet_window_series(aggregator, SMALL, [])
        totals = aggregator.window_totals()
        assert series.label == "fleet/windows"
        assert len(series.windows) == len(totals)
        first = series.windows[0]
        assert first["t1"] - first["t0"] == SMALL.report_window
        assert first["gauges"]["fleet.cpu"] == totals[0]["cpu"]
        assert first["gauges"]["fleet.active"] == totals[0]["active"]

    def test_capacity_slo_holds_at_provisioned_cpus(self, small_fleet):
        from repro.experiments.fleet_scale import (
            fleet_capacity_slos,
            fleet_window_series,
        )
        from repro.obs.slo import SloReport

        rows, _notes = provisioning_rows(small_fleet, SMALL)
        specs = fleet_capacity_slos(rows[-1]["CPUs needed"])
        series = fleet_window_series(small_fleet, SMALL, specs)
        report = SloReport.of([series.grader])
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
            result = run(n_users=400, duration=2 * 3600.0)
        fleet = result.rows[-1]
        assert "SLO" in fleet
        assert "capacity" in fleet["SLO"]
        assert collection.run_by_label("fleet/windows") is not None
        assert any("SLO column" in note for note in result.notes)

    def test_the_run_verdict_is_the_one_the_table_prints(self):
        """An hour's fleet curve, graded by the run that holds it: the
        collection's report — a record's ``slo.jsonl``, what ``--slo``
        and ``postmortem --slo`` read — holds the capacity objective met
        in 12 of 12 windows and the headroom objective broken, as the
        ``SLO`` column prints."""
        from repro.experiments.fleet_scale import run
        from repro.obs.timeseries import TimeSeriesCollection
        from repro.runcontext import use_run

        collection = TimeSeriesCollection()
        with use_run(collection=collection):
            result = run(duration=3600.0)
        report = collection.slo_report()
        capacity = report.compliance("fleet/windows", "fleet_capacity")
        headroom = report.compliance("fleet/windows", "fleet_headroom")
        assert capacity is not None and headroom is not None
        assert (capacity.ok_windows, capacity.windows) == (12, 12)
        assert capacity.compliant and not headroom.compliant
        assert not report.compliant
        assert result.rows[-1]["SLO"] == (
            f"capacity 12/12 ok; "
            f"headroom {headroom.ok_windows}/{headroom.windows} VIOL"
        )

    def test_metrics_report_counts_every_demand_sample_per_mix(
        self, capsys, monkeypatch, tmp_path
    ):
        """``--metrics`` arms a registry, so the slices run in this
        process and each demand sample is counted under its mix."""
        from repro.experiments.__main__ import main

        monkeypatch.chdir(tmp_path)
        argv = ["--metrics", "--users", "400", "--duration", "7200", "fleet_scale"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        samples = int(re.search(r"(\d+) demand samples", out).group(1))
        per_mix = dict(re.findall(r"^  \{mix=(\w+)\} +(\d+)$", out, re.M))
        assert sorted(per_mix) == ["design", "lab", "office"]
        assert sum(map(int, per_mix.values())) == samples == 19200

    def test_no_slo_column_without_sampling(self):
        from repro.experiments.fleet_scale import run

        result = run(n_users=400, duration=2 * 3600.0)
        assert "SLO" not in result.rows[-1]
