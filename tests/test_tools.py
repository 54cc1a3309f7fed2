"""Tests for the command-line tools (replay, capacity) and the exit
contract every file-reading tool shares."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.traces import save_traces
from repro.errors import ReproError
from repro.tools import run_cli
from repro.tools.capacity import main as capacity_main
from repro.tools.capacity import parse_users, plan
from repro.tools.replay import main as replay_main
from repro.tools.replay import parse_bandwidth, replay
from repro.workloads.apps import PIM
from repro.workloads.mixes import WorkgroupMix
from repro.workloads.session import run_user_study


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    traces, _profiles = run_user_study(PIM, n_users=2, duration=120.0, seed=8)
    path = tmp_path_factory.mktemp("traces") / "pim.jsonl"
    save_traces(traces, path)
    return path


def _exit_status(main, argv):
    """``main(argv)`` under the exit contract ``python -m`` runs it with:
    the status, and what it wrote to stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        with pytest.raises(SystemExit) as done:
            run_cli(lambda: main(argv))
    return done.value.code, stderr.getvalue()


class TestParseBandwidth:
    def test_units(self):
        assert parse_bandwidth("56Kbps") == 56e3
        assert parse_bandwidth("1.5Mbps") == 1.5e6
        assert parse_bandwidth("1Gbps") == 1e9
        assert parse_bandwidth("2e6") == 2e6
        assert parse_bandwidth("10m") == 10e6

    def test_invalid(self):
        with pytest.raises(ReproError):
            parse_bandwidth("fast")
        with pytest.raises(ReproError):
            parse_bandwidth("-5Mbps")
        with pytest.raises(ReproError):
            parse_bandwidth("0")


class TestReplayTool:
    def test_fast_link_is_clean(self, trace_file):
        summary = replay(trace_file, 10e6)
        assert summary["traces"] == 2
        assert summary["verdict"] == "indistinguishable"

    def test_slow_link_is_painful(self, trace_file):
        summary = replay(trace_file, 28.8e3)  # a 28.8k modem
        assert summary["pct_above_150ms"] > 20
        assert summary["verdict"] != "indistinguishable"

    def test_monotone_in_bandwidth(self, trace_file):
        fast = replay(trace_file, 10e6)["median_added_ms"]
        slow = replay(trace_file, 128e3)["median_added_ms"]
        assert slow >= fast

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            replay(tmp_path / "nope.jsonl", 1e6)

    def test_cli_text(self, trace_file, capsys):
        assert replay_main([str(trace_file), "--bandwidth", "2Mbps"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out

    def test_cli_json(self, trace_file, capsys):
        assert replay_main([str(trace_file), "--bandwidth", "2Mbps", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bandwidth_bps"] == 2e6

    @pytest.mark.parametrize(
        "line, fault",
        [
            ('{"application": "a"}', "lacks"),
            ("bogus", "unknown field 'bogus'"),
            ("[1, 2]", "not an object"),
            (
                '{"application": "a", "user": "u", "duration": "x",'
                ' "inputs": [], "updates": []}',
                "field 'duration' is not a float",
            ),
            (
                '{"application": "a", "user": "u", "duration": 0,'
                ' "inputs": [], "updates": []}',
                "duration must be positive",
            ),
            (
                '{"application": "a", "user": "u", "duration": NaN,'
                ' "inputs": [], "updates": []}',
                "not JSON",
            ),
        ],
        ids=[
            "missing field", "unknown field", "not an object", "mistyped field",
            "out of range", "not strict JSON",
        ],
    )
    def test_a_malformed_trace_line_is_one_line_and_exit_2(
        self, trace_file, tmp_path, line, fault
    ):
        """A line that is not a session with exactly its fields, each of
        its type, is refused by its number, after the good lines before
        it."""
        if line == "bogus":
            record = json.loads(trace_file.read_text().splitlines()[0])
            record["bogus"] = 1
            line = json.dumps(record)
        path = tmp_path / "bad.jsonl"
        path.write_text(trace_file.read_text() + line + "\n")
        status, stderr = _exit_status(replay_main, [str(path), "--bandwidth", "1Mbps"])
        assert status == 2
        assert stderr.count("\n") == 1
        assert "line 3" in stderr and fault in stderr


class TestCapacityTool:
    def test_parse_users(self):
        mix = parse_users(["Netscape=3", "PIM=5"])
        assert mix.total_users == 8

    def test_parse_users_errors(self):
        with pytest.raises(ReproError):
            parse_users(["Netscape"])
        with pytest.raises(ReproError):
            parse_users(["Netscape=three"])
        with pytest.raises(ReproError):
            parse_users(["Minesweeper=2"])

    def test_plan_sizing_only(self):
        mix = WorkgroupMix("x", (("PIM", 30),))
        report = plan(mix)
        assert report["demand_ref_cpus"] == pytest.approx(0.9)
        assert report["suggested_cpus"] == 1
        assert "yardstick_added_ms" not in report

    def test_plan_with_simulation(self):
        mix = WorkgroupMix("x", (("PIM", 6),))
        report = plan(mix, simulate=True, duration=60.0, sim_seconds=20.0)
        assert report["interactive_ok"]
        assert report["display_traffic_mbps"] < 5

    def test_cli(self, capsys):
        assert capacity_main(["--users", "Netscape=4", "PIM=4"]) == 0
        out = capsys.readouterr().out
        assert "suggested sizing" in out


_UNREADABLE_FILES = ("missing", "100 random bytes")

#: Each reader of a file, by the name its cases carry.
_FILE_READERS = {
    "replay": ["repro.tools.replay", "--bandwidth", "1000000"],
    "postmortem": ["repro.tools.postmortem"],
    "postmortem --series": ["repro.tools.postmortem", "--series"],
    "postmortem --slo": ["repro.tools.postmortem", "--slo"],
}


@pytest.mark.parametrize(
    "tool, unreadable",
    [
        pytest.param(tool, unreadable, id=f"{name}-{unreadable}")
        for name, tool in _FILE_READERS.items()
        for unreadable in _UNREADABLE_FILES
    ]
    + [
        pytest.param(["repro.tools.capacity", "--users"], bad, id=f"capacity-{bad}")
        for bad in ("Photoshop=abc", "Nope=3")
    ],
)
def test_an_unreadable_file_is_one_line_and_exit_2(tool, unreadable, tmp_path):
    """``unreadable`` is the state of the file the tool is pointed at,
    or (the planner reads no file) the argument it cannot parse."""
    argument = unreadable
    if unreadable in _UNREADABLE_FILES:
        path = tmp_path / "input"
        if unreadable != "missing":
            path.write_bytes(os.urandom(100))
        argument = str(path)
    done = subprocess.run(
        [sys.executable, "-m", *tool, argument],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
