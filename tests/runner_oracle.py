"""Runner invocations with every observer armed at once (and one
sweep of independent cells under sampling), frozen under
``tests/golden/runner_all_flags.json``.

The golden was written by ``tests/golden/regen.py runner`` on b2a5892,
the last commit that armed its observers through five ambient seams and
a chain of wrapped engine monitors.  The single run context and the
engine's monitor list that replaced them must produce the same tables,
telemetry, series, SLO report, capture, Chrome trace and post-mortem
bundles, byte for byte, apart from what the host clock writes and from
where engine marks fall (``engine.json`` and the manifest's mark count:
marks keep their own 20 000-event cadence now).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

from tests.fabric_oracle import _without_wall_clock

GOLDEN = Path(__file__).resolve().parent / "golden" / "runner_all_flags.json"
SRC = Path(__file__).resolve().parent.parent / "src"

#: File arguments are relative: the run's cwd is the scratch directory,
#: so the argv and bundle paths the manifest records do not move.
ALL_FLAGS = (
    "--metrics-json", "M",
    "--timeseries", "T",
    "--slo", "S",
    "--capture", "C",
    "--trace-events", "E",
    "--dashboard",
    "--postmortem-dir", "D",
    "lossy_fabric",
)  # fmt: skip

#: A sweep under sampling and the default-armed recorder: sampling is
#: an observer a fork cannot ship back, so the four cells run in place
#: and each slice's simulator is sampled into a run of its own.
SHARDED_FLAGS = (
    "--users", "400",
    "--duration", "7200",
    "--timeseries", "T",
    "--postmortem-dir", "D",
    "fleet_scale",
)  # fmt: skip

_WALL_LINE = re.compile(r"^  \(\d+\.\ds\)$")
_SPAN_HEADER = "[histogram] span."


def load_golden() -> dict:
    with GOLDEN.open(encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(argv, cwd) -> subprocess.CompletedProcess:
    """``python -m repro.experiments`` on this checkout, in ``cwd``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _json_sha256(value) -> str:
    return _sha256(json.dumps(value, sort_keys=True))


def simulated_stdout(stdout: str) -> str:
    """Stdout minus the host clock: the ``(1.2s)`` lines and the two
    value rows under each ``span.*`` histogram header."""
    kept = []
    skip = 0
    for line in stdout.splitlines():
        if skip:
            skip -= 1
            continue
        if _WALL_LINE.match(line):
            continue
        kept.append(line)
        if line.startswith(_SPAN_HEADER):
            skip = 2
    return "\n".join(kept)


def simulated_series(text: str) -> list:
    """Time-series JSONL with ``span.*`` histograms cut to their count."""
    records = []
    for line in text.splitlines():
        record = json.loads(line)
        for key, hist in record.get("histograms", {}).items():
            if key.startswith("span."):
                record["histograms"][key] = {"count": hist["count"]}
        records.append(record)
    return records


def _bundle(path: Path) -> dict:
    members = {}
    with zipfile.ZipFile(path) as archive:
        for name in archive.namelist():
            data = archive.read(name)
            if name == "engine.json":
                continue
            if name == "timeseries.jsonl":
                members[name] = _json_sha256(simulated_series(data.decode()))
            elif name == "manifest.json":
                manifest = json.loads(data)
                del manifest["counts"]["marks"]
                members[name] = _json_sha256(manifest)
            else:
                members[name] = _sha256(data)
    return members


def all_flags(scratch) -> dict:
    scratch = Path(scratch)
    done = run_cli(ALL_FLAGS, scratch)
    bundles = sorted((scratch / "D").glob("*.slimpm"))
    return {
        "stdout": _sha256(simulated_stdout(done.stdout)),
        "metrics": _json_sha256(
            _without_wall_clock(json.loads((scratch / "M").read_text()))
        ),
        "timeseries": _json_sha256(
            simulated_series((scratch / "T").read_text())
        ),
        "slo": _sha256((scratch / "S").read_bytes()),
        "capture": _sha256((scratch / "C").read_bytes()),
        "trace_events": _sha256((scratch / "E").read_bytes()),
        "bundles": {path.name: _bundle(path) for path in bundles},
    }


def sharded(scratch) -> dict:
    scratch = Path(scratch)
    done = run_cli(SHARDED_FLAGS, scratch)
    return {
        "stdout": _sha256(simulated_stdout(done.stdout)),
        "timeseries": _sha256((scratch / "T").read_bytes()),
        "bundles": sorted(p.name for p in (scratch / "D").glob("*.slimpm")),
    }


def compute_all(scratch) -> dict:
    """Every golden, by name."""

    def sub(name):
        path = Path(scratch) / name
        path.mkdir()
        return path

    return {
        "all_flags/lossy_fabric": all_flags(sub("all_flags")),
        "sharded/fleet_scale": sharded(sub("sharded")),
        "help": _sha256(run_cli(["--help"], scratch).stdout),
    }
