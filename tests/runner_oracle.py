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

Since the artefact flags were retired, the run writes one file, its
``--record`` bundle, and the telemetry, series, SLO report, capture and
Chrome trace are read from it: each digest is taken as it was taken of
the file its flag wrote (the series and verdict rendered as those JSONL
files were, the Chrome trace drawn by ``postmortem`` less its probe
rounds and counter lanes), so each still holds the value blessed of
that file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

from repro.obs import load_bundle
from repro.tools import postmortem

from tests.fabric_oracle import _without_wall_clock, ring_bytes

GOLDEN = Path(__file__).resolve().parent / "golden" / "runner_all_flags.json"
SRC = Path(__file__).resolve().parent.parent / "src"

#: File arguments are relative: the run's cwd is the scratch directory,
#: so the argv and bundle paths the manifest records do not move.
ALL_FLAGS = (
    "--slo",
    "--record",
    "--dashboard",
    "--postmortem-dir", "D",
    "lossy_fabric",
)  # fmt: skip

#: A sweep under sampling and the default-armed recorder: sampling is
#: an observer a fork cannot ship back, so the four cells run in place
#: and each slice's simulator is sampled into a run of its own.
SAMPLED_FLAGS = (
    "--users", "400",
    "--duration", "7200",
    "--record",
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


def jsonl_sha256(records) -> str:
    """The digest of ``records`` as JSONL in the default separators, as
    the runner's ``--timeseries`` and ``--slo PATH`` wrote them."""
    return _sha256("".join(json.dumps(record) + "\n" for record in records))


def simulated_series(records) -> list:
    """Time-series records with ``span.*`` histograms cut to their count."""
    records = [json.loads(json.dumps(record)) for record in records]
    for record in records:
        for key, hist in record.get("histograms", {}).items():
            if key.startswith("span."):
                record["histograms"][key] = {"count": hist["count"]}
    return records


def message_trace_events(bundle: Path) -> bytes:
    """The Chrome trace ``postmortem --chrome-trace`` draws from a record
    bundle, less its probe rounds and its series' counter lanes: the
    completed message traces' events, in order, as the runner's
    ``--trace-events`` wrote them."""
    out = bundle.with_suffix(".json")
    with contextlib.redirect_stderr(io.StringIO()):
        assert postmortem.main([str(bundle), "--chrome-trace", str(out)]) == 0
    document = json.loads(out.read_text(encoding="utf-8"))
    document["traceEvents"] = [
        event
        for event in document["traceEvents"]
        if event.get("cat") != "probe"
        and event["ph"] != "C"
        and event["name"] != "process_name"
    ]
    return json.dumps(document).encode("utf-8")


def _bundle(path: Path) -> dict:
    members = {}
    with zipfile.ZipFile(path) as archive:
        for name in archive.namelist():
            data = archive.read(name)
            if name in ("engine.json", "metrics.json"):
                continue
            if name == "timeseries.jsonl":
                records = load_bundle(path).timeseries
                members[name] = _json_sha256(simulated_series(records))
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
    record = load_bundle(scratch / "D" / "lossy_fabric.slimpm")
    bundles = sorted(
        path for path in (scratch / "D").glob("*.slimpm") if path != record.path
    )
    return {
        "stdout": _sha256(simulated_stdout(done.stdout)),
        "metrics": _json_sha256(_without_wall_clock(record.metrics)),
        "timeseries": _json_sha256(simulated_series(record.timeseries)),
        "slo": jsonl_sha256(record.slo),
        "capture": _sha256(ring_bytes(record.path)),
        "trace_events": _sha256(message_trace_events(record.path)),
        "bundles": {path.name: _bundle(path) for path in bundles},
        "record": _bundle(record.path),
    }


def sampled(scratch) -> dict:
    scratch = Path(scratch)
    done = run_cli(SAMPLED_FLAGS, scratch)
    record = load_bundle(scratch / "D" / "fleet_scale.slimpm")
    return {
        "stdout": _sha256(simulated_stdout(done.stdout)),
        "timeseries": jsonl_sha256(record.timeseries),
        "bundles": sorted(
            p.name for p in (scratch / "D").glob("*.slimpm") if p != record.path
        ),
    }


def compute_all(scratch) -> dict:
    """Every golden, by name."""

    def sub(name):
        path = Path(scratch) / name
        path.mkdir()
        return path

    return {
        "all_flags/lossy_fabric": all_flags(sub("all_flags")),
        "sampled/fleet_scale": sampled(sub("sampled")),
        "help": _sha256(run_cli(["--help"], scratch).stdout),
    }
