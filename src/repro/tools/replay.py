"""Replay saved protocol traces over a simulated link.

The paper's scalability methodology (Section 5.4) as a reusable tool:
record a session once (``repro.analysis.traces.save_traces`` or a
``.slimpm`` bundle), then ask "what would this feel like over X?"
for any bandwidth::

    python -m repro.tools.replay traces.jsonl --bandwidth 2Mbps
    python -m repro.tools.replay lossy_fabric.slimpm --bandwidth 384Kbps --json

Both input formats are detected automatically: JSON-lines session traces
(:func:`repro.analysis.traces.save_traces`) and ``.slimpm`` bundles (the
experiment runner's ``--record``), whose wire capture's server->console
display messages are lifted into per-update records.

Bandwidth accepts ``56Kbps`` / ``1.5Mbps`` / plain bits-per-second.
"""

from __future__ import annotations

import argparse
import json
import re
import zipfile
from pathlib import Path
from typing import Dict, List

from repro.analysis.cdf import Cdf
from repro.analysis.traces import SessionTrace, UpdateRecord, load_traces
from repro.core import commands as cmd
from repro.errors import ReproError
from repro.experiments.fig6 import trace_packet_windows, windowed_added_delays
from repro.experiments.scalability import classify
from repro.obs.capture import SlimcapReader
from repro.obs.flightrec import load_bundle
from repro.tools import run_cli
from repro.units import MBPS


def parse_bandwidth(text: str) -> float:
    """Parse '56Kbps', '1.5Mbps', '2e6', ... into bits/second."""
    match = re.fullmatch(
        r"\s*([0-9.eE+-]+)\s*([kKmMgG]?)(?:bps)?\s*", text
    )
    if not match:
        raise ReproError(f"cannot parse bandwidth {text!r}")
    value = float(match.group(1))
    unit = match.group(2).lower()
    scale = {"": 1.0, "k": 1e3, "m": 1e6, "g": 1e9}[unit]
    result = value * scale
    if result <= 0:
        raise ReproError("bandwidth must be positive")
    return result


def session_from_capture(reader: SlimcapReader, name: str = "capture") -> SessionTrace:
    """Lift a wire capture into a replayable session trace.

    Each server->console display message becomes one
    :class:`UpdateRecord` timestamped at its first fragment's capture
    time; status and input traffic is ignored (the replay models
    display-channel congestion only).
    """
    updates: List[UpdateRecord] = []
    end = 0.0
    for message in reader.messages():
        end = max(end, message.time)
        if not isinstance(message.command, cmd.DisplayCommand):
            continue
        opcode = message.opcode
        updates.append(
            UpdateRecord(
                time=message.first_time,
                pixels=message.command.pixels,
                wire_bytes=message.wire_bytes,
                payload_bytes_by_opcode={
                    opcode: message.command.payload_nbytes()
                },
                pixels_by_opcode={opcode: message.command.pixels},
                commands_by_opcode={opcode: 1},
            )
        )
    if not updates:
        raise ReproError(f"no display messages in capture {name}")
    return SessionTrace(
        application="capture",
        user=name,
        duration=max(end, updates[-1].time) or 1.0,
        updates=updates,
    )


def replay(path: Path, rate_bps: float) -> Dict[str, object]:
    """Replay every trace in a file; returns the summary dict.

    Accepts JSON-lines session traces or a ``.slimpm`` bundle's wire
    capture (detected by magic).
    """
    if zipfile.is_zipfile(path):
        reader = load_bundle(path).ring
        if reader is None:
            raise ReproError(f"bundle {path} holds no wire capture")
        traces = [session_from_capture(reader, Path(path).stem)]
    else:
        traces = load_traces(path)
    if not traces:
        raise ReproError(f"no traces in {path}")
    delays: List[float] = []
    for trace in traces:
        nbytes, npackets = trace_packet_windows(trace, trace.duration)
        delays.extend(windowed_added_delays(nbytes, npackets, rate_bps))
    if not delays:
        raise ReproError("traces contain no display traffic")
    cdf = Cdf(delays)
    return {
        "traces": len(traces),
        "packets": cdf.n,
        "bandwidth_bps": rate_bps,
        "median_added_ms": cdf.median * 1000,
        "p90_added_ms": cdf.percentile(90) * 1000,
        "pct_above_50ms": cdf.fraction_above(0.050) * 100,
        "pct_above_150ms": cdf.fraction_above(0.150) * 100,
        "verdict": classify(cdf),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.replay",
        description="Replay saved SLIM traces over a simulated link.",
    )
    parser.add_argument(
        "traces", type=Path,
        help="JSON-lines trace file or .slimpm bundle",
    )
    parser.add_argument(
        "--bandwidth", required=True, help="e.g. 56Kbps, 1.5Mbps, 1e7"
    )
    parser.add_argument("--json", action="store_true", help="machine output")
    args = parser.parse_args(argv)

    summary = replay(args.traces, parse_bandwidth(args.bandwidth))
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(
        f"{summary['traces']} trace(s), {summary['packets']} packets at "
        f"{summary['bandwidth_bps'] / MBPS:g} Mbps"
    )
    print(
        f"added delay: median {summary['median_added_ms']:.2f} ms, "
        f"p90 {summary['p90_added_ms']:.1f} ms"
    )
    print(
        f"above perception: {summary['pct_above_50ms']:.1f}% > 50ms, "
        f"{summary['pct_above_150ms']:.1f}% > 150ms"
    )
    print(f"verdict: {summary['verdict']}")
    return 0


if __name__ == "__main__":
    run_cli(main)
