"""Tests for the windowed-series views of ``postmortem`` (``--series``,
``--slo`` and the counter lanes of ``--chrome-trace``) and the
sparkline/heatstrip rendering they drive."""

import json

import pytest

from repro.analysis.textplot import (
    DENSITY_RAMP,
    render_heatstrip,
    render_sparkline,
)
from repro.errors import ReproError
from repro.obs.flightrec import load_bundle, write_bundle
from repro.obs.timeseries import TimeSeriesCollection
from repro.tools.postmortem import chrome_trace, main, render_run


def sample_collection():
    collection = TimeSeriesCollection(window=1.0)
    lan = collection.new_run("lan/static")
    cellular = collection.new_run("cellular/static")
    for i in range(8):
        lan.append_window({
            "t0": float(i), "t1": float(i) + 1.0,
            "counters": {"net.pkts": 10 + i},
            "gauges": {"test.level{client=1}": 0},
            "histograms": {
                "net.yardstick.rtt_seconds": {
                    "count": 5, "sum": 0.05,
                    "buckets": [[0.01, 5], [float("inf"), 0]],
                },
            },
        })
        cellular.append_window({
            "t0": float(i), "t1": float(i) + 1.0,
            "counters": {"net.pkts": 3},
            "gauges": {},
            "histograms": {
                "net.yardstick.rtt_seconds": {
                    "count": 5, "sum": 4.0,
                    "buckets": [[0.8, 5], [float("inf"), 0]],
                },
            },
        })
    return collection


def write_series_bundle(path, records, verdict=None):
    members = {"timeseries.jsonl": records}
    if verdict is not None:
        members["slo.jsonl"] = verdict
    write_bundle(path, {"label": "dashboard"}, members)
    return str(path)


@pytest.fixture
def series_file(tmp_path):
    """The sample series with the verdict every runner bundle carries."""
    collection = sample_collection()
    return write_series_bundle(
        tmp_path / "run.slimpm",
        collection.to_records(),
        collection.slo_report().to_records(),
    )


class TestTextplotRamp:
    def test_sparkline_has_fixed_width_and_ramp_glyphs(self):
        line = render_sparkline([0, 1, 2, 3, 4, 5], width=12)
        assert len(line) == 12
        assert set(line) <= set(DENSITY_RAMP)
        assert line[0] == DENSITY_RAMP[0] and line[-1] == DENSITY_RAMP[-1]

    def test_sparkline_resamples_long_series(self):
        line = render_sparkline(list(range(1000)), width=10)
        assert len(line) == 10
        # Monotonic input stays monotonic on the ramp.
        assert [DENSITY_RAMP.index(g) for g in line] == sorted(
            DENSITY_RAMP.index(g) for g in line
        )

    def test_empty_sparkline_is_blank(self):
        assert render_sparkline([], width=6) == " " * 6

    def test_heatstrip_shares_one_scale(self):
        text = render_heatstrip(
            {"hot": [10, 10], "cold": [0, 0]}, width=8
        )
        lines = text.split("\n")
        assert lines[0].startswith("hot")
        assert DENSITY_RAMP[-1] in lines[0]
        # On the shared scale the cold row sits at the bottom glyph.
        assert set(lines[1].split("|")[1]) == {DENSITY_RAMP[0]}

    def test_empty_heatstrip_rejected(self):
        with pytest.raises(ReproError):
            render_heatstrip({})

    def test_heatstrip_draws_an_infinite_value(self):
        """A starved yardstick's ``inf`` gauge tops the shared scale."""
        text = render_heatstrip({"rtt": [1.0, float("inf")]}, width=2)
        assert text.split("\n")[0] == f"rtt |{DENSITY_RAMP[0]}{DENSITY_RAMP[-1]}|"


class TestRenderRun:
    def test_labelled_sparkline_rows(self):
        run = sample_collection().runs[0]
        text = render_run(run, width=16)
        assert "run 'lan/static': 8 windows" in text
        assert "net.pkts" in text
        assert "test.level{client=1}" in text
        assert "last" in text and "max" in text

    def test_metric_patterns_filter(self):
        run = sample_collection().runs[0]
        text = render_run(run, patterns=["net.yardstick.*"])
        assert "net.yardstick.rtt_seconds" in text
        assert "net.pkts" not in text
        assert "(no series match)" in render_run(run, patterns=["zzz*"])

    def test_heat_mode(self):
        run = sample_collection().runs[0]
        text = render_run(run, width=10, heat=True)
        assert "|" in text and "scale" in text


class TestChromeExport:
    def test_counter_events_per_run_process(self, tmp_path):
        path = write_series_bundle(tmp_path / "run.slimpm", sample_collection().to_records())
        events = chrome_trace(load_bundle(path))["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        counters = [e for e in events if e["ph"] == "C"]
        assert {m["args"]["name"] for m in meta} == {
            "lan/static", "cellular/static",
        }
        # lan carries 3 series, cellular 2 (no gauge), 8 windows each.
        assert len(counters) == 8 * 3 + 8 * 2
        assert all(e["ts"] == pytest.approx(e["ts"]) for e in counters)
        first = min(counters, key=lambda e: e["ts"])
        assert first["ts"] == 0.0


class TestCli:
    def test_render_all_runs(self, series_file, capsys):
        assert main([series_file, "--series"]) == 0
        out = capsys.readouterr().out
        assert "lan/static" in out and "cellular/static" in out

    def test_runs_substring_filter(self, series_file, capsys):
        assert main([series_file, "--series", "--runs", "cellular"]) == 0
        out = capsys.readouterr().out
        assert "cellular/static" in out and "lan/static" not in out

    def test_no_matching_runs_fails(self, series_file, capsys):
        assert main([series_file, "--series", "--runs", "nope"]) == 1
        assert "no runs match" in capsys.readouterr().err

    def test_invalid_file_exits_2(self, tmp_path, capsys):
        bad = write_series_bundle(
            tmp_path / "bad.slimpm", [{"type": "window", "run": 0}]
        )
        assert main([bad, "--series"]) == 2
        err = capsys.readouterr().err
        assert "timeseries.jsonl" in err and len(err.splitlines()) == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.slimpm"), "--series"]) == 2
        err = capsys.readouterr().err
        assert "no such bundle" in err and len(err.splitlines()) == 1

    def test_series_argument_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_chrome_trace_export(self, series_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main([series_file, "--chrome-trace", str(trace)]) == 0
        document = json.loads(trace.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "C" for e in document["traceEvents"])
        assert "trace events" in capsys.readouterr().err

    def test_slo_mode_flags_violations(self, series_file, capsys):
        # The cellular run violates keystroke_echo -> exit 1.
        assert main([series_file, "--slo"]) == 1
        out = capsys.readouterr().out
        assert "VIOL" in out and "keystroke_echo" in out

    def test_slo_mode_compliant_exit_zero(self, series_file, capsys):
        assert main([series_file, "--runs", "lan", "--slo"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "VIOL" not in out and "cellular" not in out

    def test_slo_file_validated_alongside(self, tmp_path, capsys):
        """A bundle's saved verdict, ``slo.jsonl``, is schema-checked
        with its series as the bundle loads."""
        collection = sample_collection()
        verdict = collection.slo_report().to_records()
        path = write_series_bundle(
            tmp_path / "run.slimpm", collection.to_records(), verdict
        )
        assert load_bundle(path).slo == verdict
        assert main([path, "--summary"]) == 0
        assert "keystroke_echo" in capsys.readouterr().out

    def test_corrupt_slo_file_exits_2(self, tmp_path, capsys):
        path = write_series_bundle(
            tmp_path / "run.slimpm",
            sample_collection().to_records(),
            [{"type": "slo"}],
        )
        assert main([path, "--series"]) == 2
        err = capsys.readouterr().err
        assert "slo.jsonl" in err and len(err.splitlines()) == 1
