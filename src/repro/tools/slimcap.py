"""Protocol analyzer for ``.slimcap`` wire captures.

The capture half of the observability story: a simulation records its
wire traffic (``--capture`` on the experiment runner, or a
:class:`~repro.obs.capture.SlimcapWriter` tapped onto any link), and
this tool turns the file into the views a perf investigation needs::

    python -m repro.tools.slimcap run.slimcap --summary
    python -m repro.tools.slimcap run.slimcap --latency
    python -m repro.tools.slimcap run.slimcap --timeline
    python -m repro.tools.slimcap run.slimcap --chrome-trace out.json
    python -m repro.tools.slimcap run.slimcap --json

* ``--summary`` — Table-4-style per-command statistics: message and
  datagram counts, wire/payload bytes, byte shares, plus loss/drop
  totals per direction.
* ``--latency`` — per-command stage-breakdown percentiles (encode /
  queueing / serialization / switch / decode / paint and end-to-end)
  from the causal traces embedded in the capture.
* ``--timeline`` — the loss-recovery conversation in time order: frame
  losses and drops, NACKs, recovery re-encodes, RECOVERED / SYNC /
  FRONTIER status traffic.
* ``--chrome-trace`` — the embedded causal traces as Chrome
  ``trace_event`` JSON (load in ``about:tracing`` / Perfetto).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import commands as cmd
from repro.core.commands import StatusKind
from repro.errors import ReproError
from repro.obs.capture import (
    KIND_DROP,
    KIND_LOSS,
    SlimcapReader,
    is_slimcap,
)
from repro.obs.causal import chrome_trace_events, stage_percentiles
from repro.tools import run_cli

__all__ = ["summarize", "latency_table", "timeline_events", "main"]


def _status_name(value: int) -> str:
    try:
        return StatusKind(value).name
    except ValueError:
        return f"STATUS#{value}"


def summarize(reader: SlimcapReader) -> Dict[str, object]:
    """Per-command statistics over a capture (the ``--summary`` view)."""
    per_opcode: Dict[str, Dict[str, float]] = {}
    directions: Dict[Tuple[str, str], int] = {}
    first_time: Optional[float] = None
    last_time: Optional[float] = None
    total_wire = 0
    for message in reader.messages():
        row = per_opcode.setdefault(
            message.opcode,
            {"messages": 0, "datagrams": 0, "wire_bytes": 0, "payload_bytes": 0},
        )
        row["messages"] += 1
        row["datagrams"] += message.ndatagrams
        row["wire_bytes"] += message.wire_bytes
        row["payload_bytes"] += message.command.payload_nbytes()
        total_wire += message.wire_bytes
        directions[(message.src, message.dst)] = (
            directions.get((message.src, message.dst), 0) + 1
        )
        if first_time is None or message.first_time < first_time:
            first_time = message.first_time
        if last_time is None or message.time > last_time:
            last_time = message.time
    losses = drops = frames = 0
    for record in reader.records():
        if record.kind == KIND_LOSS:
            losses += 1
        elif record.kind == KIND_DROP:
            drops += 1
        elif record.datagram is not None:
            frames += 1
    for row in per_opcode.values():
        row["byte_share"] = (
            row["wire_bytes"] / total_wire if total_wire else 0.0
        )
    return {
        "path": str(reader.path),
        "per_opcode": per_opcode,
        "directions": {
            f"{src}->{dst}": count for (src, dst), count in directions.items()
        },
        "frames": frames,
        "losses": losses,
        "drops": drops,
        "wire_bytes": total_wire,
        "start": first_time if first_time is not None else 0.0,
        "end": last_time if last_time is not None else 0.0,
        "embedded_traces": len(reader.traces()),
        "truncated": reader.truncated,
    }


def latency_table(reader: SlimcapReader) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Stage-breakdown percentiles from the embedded causal traces."""
    return stage_percentiles(reader.traces())


def timeline_events(reader: SlimcapReader) -> List[Tuple[float, str]]:
    """The loss-recovery conversation, in time order.

    Returns ``(time, description)`` pairs covering frame losses and
    drops, status traffic (NACK / RECOVERED / SYNC / FRONTIER), and
    recovery re-encodes from the embedded causal traces.
    """
    events: List[Tuple[float, str]] = []
    for record in reader.records():
        if record.kind in (KIND_LOSS, KIND_DROP):
            what = "LOSS" if record.kind == KIND_LOSS else "DROP"
            datagram = record.datagram
            events.append(
                (
                    record.time,
                    f"{what:9s} {record.src}->{record.dst} seq={datagram.seq}"
                    f" frag {datagram.index + 1}/{datagram.count}",
                )
            )
    for message in reader.messages():
        if isinstance(message.command, cmd.StatusMessage):
            name = _status_name(message.command.kind)
            events.append(
                (
                    message.time,
                    f"{name:9s} {message.src}->{message.dst}"
                    f" value={message.command.value} (seq={message.seq})",
                )
            )
    for trace in reader.traces():
        if trace.get("recovery") and trace.get("recovery_of") is not None:
            if trace.get("opcode") == "StatusMessage":
                continue  # the RECOVERED confirmation is already listed
            events.append(
                (
                    float(trace["sent_at"]),
                    f"REENCODE  {trace['src']}->{trace['dst']}"
                    f" {trace['opcode']} seq={trace['seq']}"
                    f" recovers seq={trace['recovery_of']}",
                )
            )
    events.sort(key=lambda pair: pair[0])
    return events


# --- rendering --------------------------------------------------------------


def _print_summary(summary: Dict[str, object]) -> None:
    start, end = summary["start"], summary["end"]
    print(f"capture: {summary['path']}")
    if summary.get("truncated"):
        print(
            "warning: capture ends mid-record (interrupted run?); "
            "trailing partial record ignored"
        )
    print(
        f"span: {start * 1000:.1f} ms .. {end * 1000:.1f} ms  "
        f"({(end - start) * 1000:.1f} ms)"
    )
    print(
        f"frames: {summary['frames']}  losses: {summary['losses']}  "
        f"drops: {summary['drops']}  wire bytes: {summary['wire_bytes']}"
    )
    for direction, count in sorted(summary["directions"].items()):
        print(f"  {direction}: {count} messages")
    per_opcode = summary["per_opcode"]
    if not per_opcode:
        print("no complete messages in capture")
        return
    print()
    header = (
        f"{'command':<14}{'msgs':>7}{'dgrams':>8}"
        f"{'wire B':>10}{'payload B':>11}{'share':>8}"
    )
    print(header)
    print("-" * len(header))
    for opcode in sorted(
        per_opcode, key=lambda op: -per_opcode[op]["wire_bytes"]
    ):
        row = per_opcode[opcode]
        print(
            f"{opcode:<14}{row['messages']:>7}{row['datagrams']:>8}"
            f"{row['wire_bytes']:>10}{row['payload_bytes']:>11}"
            f"{row['byte_share'] * 100:>7.1f}%"
        )


def _print_latency(table: Dict[str, Dict[str, Dict[str, float]]]) -> None:
    if not table:
        print(
            "no causal traces embedded in this capture "
            "(run with tracing enabled, e.g. the experiment runner's "
            "--capture flag)"
        )
        return
    for opcode in sorted(table):
        stages = table[opcode]
        count = int(stages.get("end_to_end", {}).get("count", 0))
        print(f"{opcode} ({count} messages), milliseconds:")
        header = f"  {'stage':<14}{'mean':>9}{'p50':>9}{'p90':>9}{'p99':>9}"
        print(header)
        print("  " + "-" * (len(header) - 2))
        ordered = [s for s in stages if s != "end_to_end"] + ["end_to_end"]
        for stage in ordered:
            if stage not in stages:
                continue
            row = stages[stage]
            print(
                f"  {stage:<14}"
                f"{row['mean'] * 1000:>9.3f}{row['p50'] * 1000:>9.3f}"
                f"{row['p90'] * 1000:>9.3f}{row['p99'] * 1000:>9.3f}"
            )
        print()


def _print_timeline(events: List[Tuple[float, str]]) -> None:
    if not events:
        print("no losses, drops, or status traffic in this capture")
        return
    for when, text in events:
        print(f"{when * 1000:>10.3f} ms  {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.slimcap",
        description="Analyze a .slimcap SLIM wire capture.",
    )
    parser.add_argument("capture", type=Path, help=".slimcap file")
    parser.add_argument(
        "--summary", action="store_true",
        help="per-command statistics (the default view)",
    )
    parser.add_argument(
        "--latency", action="store_true",
        help="per-command stage-breakdown percentiles",
    )
    parser.add_argument(
        "--timeline", action="store_true",
        help="NACK / retransmission timeline",
    )
    parser.add_argument(
        "--chrome-trace", type=Path, metavar="OUT",
        help="write embedded causal traces as Chrome trace_event JSON",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)

    if not args.capture.exists():
        raise ReproError(f"no such capture: {args.capture}")
    if not is_slimcap(args.capture):
        raise ReproError(f"{args.capture} is not a .slimcap file")
    reader = SlimcapReader(args.capture)

    wants_any = args.summary or args.latency or args.timeline
    if not wants_any and args.chrome_trace is None:
        args.summary = True

    output: Dict[str, object] = {}
    if args.summary:
        output["summary"] = summarize(reader)
    if args.latency:
        output["latency"] = latency_table(reader)
    if args.timeline:
        output["timeline"] = [
            {"time": when, "event": text}
            for when, text in timeline_events(reader)
        ]
    if args.chrome_trace is not None:
        document = chrome_trace_events(reader.traces())
        args.chrome_trace.write_text(json.dumps(document))
        print(
            f"wrote {len(document['traceEvents'])} trace events "
            f"to {args.chrome_trace}",
            file=sys.stderr,
        )

    if args.json:
        print(json.dumps(output, indent=2))
        return 0
    if args.summary:
        _print_summary(output["summary"])
    if args.latency:
        if args.summary:
            print()
        _print_latency(output["latency"])
    if args.timeline:
        if args.summary or args.latency:
            print()
        _print_timeline(timeline_events(reader))
    return 0


if __name__ == "__main__":
    run_cli(main)
