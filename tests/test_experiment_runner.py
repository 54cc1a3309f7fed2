"""Tests for the experiment registry, rendering, and run() smoke paths."""

import pytest

from repro.errors import ReproError
from repro.experiments.runner import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    experiment,
    render_table,
)


class TestResultAndRendering:
    def make(self):
        return ExperimentResult(
            experiment_id="x1",
            title="A title",
            rows=[{"a": 1, "b": 2.5}, {"a": 3, "c": "z"}],
            notes=["a note"],
        )

    def test_column_names_union_in_order(self):
        assert self.make().column_names() == ["a", "b", "c"]

    def test_render_contains_everything(self):
        text = render_table(self.make())
        assert "x1" in text and "A title" in text
        assert "2.5" in text
        assert "a note" in text

    def test_render_empty_rows(self):
        text = render_table(ExperimentResult("e", "t"))
        assert "e: t" in text


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        # Importing the package __main__ registers everything.
        import repro.experiments.__main__  # noqa: F401

        expected = {
            "table4", "table5",
            "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fleet_scale", "multimedia", "ablations",
        }
        assert expected <= set(EXPERIMENTS)

    def test_duplicate_registration_rejected(self):
        @experiment("only-once-test")
        def run(config):
            return ExperimentResult("x", "y")

        try:
            with pytest.raises(ReproError):
                @experiment("only-once-test")
                def run2(config):
                    return ExperimentResult("x", "y")
        finally:
            EXPERIMENTS.pop("only-once-test", None)

    def test_runner_specs_are_zero_arg_callable(self):
        import repro.experiments.__main__  # noqa: F401

        assert "table4" in EXPERIMENTS
        result = EXPERIMENTS["table4"].runner()
        assert result.experiment_id == "table4"


class TestConfig:
    def test_get_typed_field_with_default(self):
        config = ExperimentConfig(seed=7)
        assert config.get("seed", 3) == 7
        assert config.get("duration", 60.0) == 60.0

    def test_get_extra(self):
        config = ExperimentConfig(extra={"suite": "probe"})
        assert config.get("suite") == "probe"
        assert config.get("missing", "d") == "d"

    def test_with_overrides_splits_typed_and_extra(self):
        config = ExperimentConfig().with_overrides(seed=1, suite="x")
        assert config.seed == 1
        assert config.extra == {"suite": "x"}


class TestDecorator:
    def test_decorator_registers_and_wraps(self):
        @experiment("decorator-test", title="A decorated run", section="9.9")
        def run(config):
            return ExperimentResult(
                "decorator-test", "t", rows=[{"seed": config.get("seed", 0)}]
            )

        spec = EXPERIMENTS["decorator-test"]
        assert spec.title == "A decorated run"
        assert spec.section == "9.9"
        assert run().rows == [{"seed": 0}]
        assert run(seed=5).rows == [{"seed": 5}]
        assert run(ExperimentConfig(seed=2)).rows == [{"seed": 2}]
        assert run(ExperimentConfig(seed=2), seed=4).rows == [{"seed": 4}]

    def test_duplicate_decorator_rejected(self):
        @experiment("decorator-dup-test")
        def run(config):
            return ExperimentResult("decorator-dup-test", "t")

        with pytest.raises(ReproError):
            @experiment("decorator-dup-test")
            def run2(config):
                return ExperimentResult("decorator-dup-test", "t")

    def test_non_config_positional_rejected(self):
        @experiment("decorator-badarg-test")
        def run(config):
            return ExperimentResult("decorator-badarg-test", "t")

        with pytest.raises(ReproError):
            run(42)


class TestRunSmoke:
    """Cheap run() smoke tests for modules not covered elsewhere."""

    def test_table4_run(self):
        from repro.experiments.table4 import run

        result = run()
        assert len(result.rows) == 4
        assert any("550" in str(row.values()) for row in result.rows)

    def test_fig12_run(self):
        from repro.experiments.fig12 import run

        result = run(seed=5)
        assert len(result.rows) == 2

    def test_multimedia_run(self):
        from repro.experiments.multimedia import run

        result = run()
        assert len(result.rows) == 7
        assert all("fps" in row for row in result.rows)

    def test_cli_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out

    def test_cli_unknown_experiment(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["definitely-not-registered"])

    def test_cli_runs_single_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Xmark" in out or "x11perf" in out

    def test_cli_metrics_report(self, capsys):
        from repro.experiments.__main__ import main
        from repro.telemetry import get_registry

        assert main(["--metrics", "table4"]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "console.decode.count" in out
        assert "net.link.bytes_sent" in out
        assert "net.switch.queue_depth" in out
        assert "server.driver.update_service_seconds" in out
        # The CLI's collection registry must not leak into the process.
        assert not get_registry().enabled

    def test_cli_metrics_json(self, tmp_path, capsys):
        """The registry snapshot is the ``--record`` bundle's
        ``metrics.json``."""
        from repro.experiments.__main__ import main
        from repro.obs import load_bundle

        assert main(["--record", "--postmortem-dir", str(tmp_path), "table4"]) == 0
        data = load_bundle(tmp_path / "table4.slimpm").metrics
        assert any(e["name"] == "console.decode.count" for e in data)


class TestCliProfilingAndInterrupt:
    """--profile / --memprofile hooks and Ctrl-C flushing (satellite b)."""

    def _register(self, experiment_id, fn):
        @experiment(experiment_id, title=f"fake {experiment_id}")
        def run(config):
            return fn(config)

        return run

    def _cleanup(self, *ids):
        for experiment_id in ids:
            EXPERIMENTS.pop(experiment_id, None)

    def test_profile_writes_report(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "profile.txt"
        assert main(["--profile", str(path), "table4"]) == 0
        text = path.read_text()
        assert "cumulative" in text  # pstats header
        assert "cProfile report written" in capsys.readouterr().out

    def test_memprofile_writes_snapshot_diff(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "mem.txt"
        assert main(["--memprofile", str(path), "table4"]) == 0
        text = path.read_text()
        assert "net allocation growth" in text
        assert "total net growth" in text

    def test_progress_flag_restores_monitor_hook(self, capsys):
        from repro.experiments.__main__ import main
        from repro.netsim.engine import Simulator

        assert main(["--progress", "table4"]) == 0
        # The run's painter must not outlive it.
        assert not Simulator().monitored

    def test_keyboard_interrupt_flushes_partial_results(
        self, tmp_path, capsys
    ):
        from repro.experiments.__main__ import main

        self._register(
            "fake-ok-test",
            lambda config: ExperimentResult(
                "fake-ok-test", "ok", rows=[{"v": 1}]
            ),
        )

        def interrupt(config):
            raise KeyboardInterrupt

        self._register("fake-intr-test", interrupt)
        try:
            rc = main([
                "--metrics",
                "--record",
                "--postmortem-dir", str(tmp_path),
                "fake-ok-test",
                "fake-intr-test",
            ])
        finally:
            self._cleanup("fake-ok-test", "fake-intr-test")
        captured = capsys.readouterr()
        assert rc == 130
        # The completed experiment's table was printed before the
        # interrupt, and the reports still flushed afterwards.
        assert "fake-ok-test" in captured.out
        assert "telemetry report" in captured.out
        assert "interrupted" in captured.err
        assert (tmp_path / "fake-ok-test-fake-intr-test.slimpm").exists()

    def test_interrupt_with_profile_still_writes_report(
        self, tmp_path, capsys
    ):
        from repro.experiments.__main__ import main

        def interrupt(config):
            raise KeyboardInterrupt

        self._register("fake-intr2-test", interrupt)
        path = tmp_path / "profile.txt"
        try:
            rc = main(["--profile", str(path), "fake-intr2-test"])
        finally:
            self._cleanup("fake-intr2-test")
        assert rc == 130
        assert path.exists()


class TestUserstudyCache:
    def test_memoised_identity(self):
        from repro.experiments import userstudy
        from repro.workloads.apps import PIM

        a = userstudy.get_study(PIM, n_users=1, duration=30.0, seed=77)
        b = userstudy.get_study(PIM, n_users=1, duration=30.0, seed=77)
        assert a is b  # same cached object

    def test_distinct_configs_distinct_entries(self):
        from repro.experiments import userstudy
        from repro.workloads.apps import PIM

        a = userstudy.get_study(PIM, n_users=1, duration=30.0, seed=77)
        c = userstudy.get_study(PIM, n_users=1, duration=30.0, seed=78)
        assert a is not c

    def test_clear_cache(self):
        from repro.experiments import userstudy
        from repro.workloads.apps import PIM

        a = userstudy.get_study(PIM, n_users=1, duration=30.0, seed=79)
        userstudy.clear_cache()
        b = userstudy.get_study(PIM, n_users=1, duration=30.0, seed=79)
        assert a is not b


class TestTimeseriesAndSloFlags:
    def test_timeseries_flag_writes_valid_jsonl(self, tmp_path, capsys):
        """``--timeseries-window`` sets the width of the windows the
        ``--record`` bundle's ``timeseries.jsonl`` holds."""
        from repro.experiments.__main__ import main
        from repro.obs import load_bundle
        from repro.obs.timeseries import validate_timeseries_records

        argv = ["--record", "--timeseries-window", "0.5", "--postmortem-dir"]
        assert main([*argv, str(tmp_path), "table4"]) == 0
        records = load_bundle(tmp_path / "table4.slimpm").timeseries
        validate_timeseries_records(records)
        assert records[0]["window_seconds"] == 0.5
        assert "run record written" in capsys.readouterr().out

    def test_slo_flag_prints_report_and_writes_jsonl(
        self, tmp_path, capsys
    ):
        """``--slo`` prints the report; the ``--record`` bundle keeps it
        as ``slo.jsonl``."""
        from repro.experiments.__main__ import main
        from repro.obs import load_bundle
        from repro.obs.slo import validate_slo_records

        argv = ["--slo", "--record", "--postmortem-dir", str(tmp_path)]
        assert main([*argv, "table4"]) == 0
        out = capsys.readouterr().out
        assert "interactivity SLO report" in out
        validate_slo_records(load_bundle(tmp_path / "table4.slimpm").slo)

    def test_dashboard_flag_restores_monitor_hook(self, capsys):
        from repro.experiments.__main__ import main
        from repro.netsim.engine import Simulator
        from repro.runcontext import current_run

        assert main(["--dashboard", "table4"]) == 0
        assert not Simulator().monitored
        assert current_run().collection is None
