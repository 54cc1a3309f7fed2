"""Seeded runs whose *derived* observer outputs are frozen under
``tests/golden/observer_outputs.json``.

Observers record on the hot path and derive at read time: a trace's
stage partition, its ``to_dict()`` and the flight recorder's serialised
frames are all computed when someone looks.  The golden was written by
``tests/golden/regen.py observers`` on 7cd9ba1, the last commit that
computed every one of them eagerly — at close, and as each frame
crossed the tap.  What a reader sees must not have moved by a byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import zipfile
from pathlib import Path

from repro.experiments.lossy_fabric import run_lossy_session
from repro.experiments.runner import EXPERIMENTS, experiment
from repro.obs import TraceCollector, stage_percentiles
from repro.runcontext import use_run

from tests.fabric_oracle import normalize, ring_bytes
from tests.runner_oracle import message_trace_events

GOLDEN = Path(__file__).resolve().parent / "golden" / "observer_outputs.json"


def load_golden() -> dict:
    with GOLDEN.open(encoding="utf-8") as handle:
        return json.load(handle)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def traced_session(loss_rate: float, updates: int, seed: int) -> dict:
    """Every message's ``to_dict()`` (open and superseded ones included),
    every update's ``breakdown()`` and the ``stage_percentiles`` table of
    one Netscape session under a retaining tracer."""
    tracer = TraceCollector()
    with use_run(tracer=tracer):
        channel = run_lossy_session(loss_rate, updates=updates, seed=seed)
    assert channel.converged
    return normalize(
        {
            "messages": [trace.to_dict() for trace in tracer.messages],
            "breakdowns": [update.breakdown() for update in tracer.updates],
            "percentiles": stage_percentiles(tracer.messages),
        }
    )


def _run(argv) -> int:
    from repro.experiments.__main__ import main

    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


def runner_files(scratch) -> dict:
    """``lossy_fabric`` through the runner with its ``--record`` bundle:
    the capture is its ``ring.slimcap``, the trace events what
    ``postmortem --chrome-trace`` draws from it less the probe rounds
    and counter lanes."""
    scratch = Path(scratch)
    status = _run(
        ["--record", "--postmortem-dir", str(scratch / "pm"), "lossy_fabric"]
    )
    record = scratch / "pm" / "lossy_fabric.slimpm"
    return {
        "status": status,
        "capture_sha256": _sha256(ring_bytes(record)),
        "trace_events_sha256": _sha256(message_trace_events(record)),
    }


def frozen_bundle(scratch) -> dict:
    """``lossy_fabric`` with default flags, interrupted as it returns:
    the runner freezes the recorder's rings at a seeded instant."""
    scratch = Path(scratch)

    @experiment("lossy-fabric-then-interrupt")
    def run(config):
        EXPERIMENTS["lossy_fabric"].runner(config)
        raise KeyboardInterrupt

    try:
        status = _run(
            ["--postmortem-dir", str(scratch), "lossy-fabric-then-interrupt"]
        )
    finally:
        EXPERIMENTS.pop("lossy-fabric-then-interrupt", None)
    (bundle,) = scratch.glob("*.slimpm")
    with zipfile.ZipFile(bundle) as archive:
        ring = archive.read("ring.slimcap")
        traces = archive.read("traces.jsonl")
        counts = json.loads(archive.read("manifest.json"))["counts"]
    return {
        "status": status,
        "ring_sha256": _sha256(ring),
        "traces_sha256": _sha256(traces),
        "counts": counts,
    }


def compute_all(scratch) -> dict:
    """Every golden, by name."""

    def sub(name):
        path = Path(scratch) / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    return {
        "session/clean": traced_session(0.0, updates=8, seed=3),
        # 183 messages: 22 superseded by re-encodes, 3 never closed,
        # 7 updates whose critical message is a recovery.
        "session/lossy": traced_session(0.08, updates=10, seed=7),
        "runner/lossy_fabric": runner_files(sub("runner")),
        "bundle/lossy_fabric": frozen_bundle(sub("bundle")),
    }
