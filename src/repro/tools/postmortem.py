"""Post-mortem triage for ``.slimpm`` bundles: the one reader.

A bundle is what :class:`repro.obs.flightrec.FlightRecorder` freezes
when an anomaly trips: the wire-frame ring, implicated causal traces,
the telemetry window slice and its SLO verdict, engine marks,
and what the cells of a sweep shipped.  The runner's ``--record``
writes the same format for a whole run.  This tool answers the three
triage questions in order:

* ``--summary`` — *what fired?*  The trigger, the SLO scoreboard over
  the frozen window slice, and what the rings held.
* ``--blame``   — *where did the time go?*  Per-stage latency
  attribution for the implicated traces (stage sums are checked
  against the traced end-to-end latency — they telescope exactly, by
  construction) and the LOSS -> NACK -> REENCODE conversation from the
  wire ring.
* ``--chrome-trace OUT`` — *show me.*  The completed traces and the
  probe rounds as Chrome ``trace_event`` JSON for about:tracing, then
  each run's windowed series as counter lanes.

Two views read a whole run's record best: ``--latency``, per-command
stage-latency percentiles over the completed traces, and
``--timeline``, the loss-recovery conversation on the wire in time
order.  ``--json`` adds the wire's per-command statistics to
``--summary``.

Two read the windowed series: ``--series``, each run's series as
sparklines (or, ``--heat``, one heatstrip), and ``--slo``, the saved
verdict as a CI gate.  ``--runs`` keeps the runs whose label holds a
substring.

Exit status: 0 on a readable bundle, 1 when ``--slo`` finds a violated
result or ``--series`` no run, 2 on a corrupt or unrecognized one (see
:func:`~repro.obs.flightrec.load_bundle`) — scriptable from CI smoke
jobs.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import commands as cmd
from repro.core.commands import StatusKind
from repro.obs.capture import KIND_DROP, KIND_LOSS, SlimcapReader
from repro.obs.causal import STAGES, chrome_trace_events, stage_percentiles
from repro.obs.flightrec import Bundle, BundleError, load_bundle
from repro.obs.timeseries import RENDER_KINDS, RunSeries, TimeSeriesCollection, sparkline_rows
from repro.tools import run_cli

__all__ = ["summarize", "timeline_events", "render_run", "chrome_trace", "main"]

#: Traces shown by --blame when no trigger named specific culprits.
_FALLBACK_BLAME = 5

EXIT_OK = 0
#: A gate's answer: a violated verdict, or no run to draw.
EXIT_FAIL = 1
EXIT_CORRUPT = 2


# --- summary ----------------------------------------------------------------


def _describe_trigger(trigger: Dict[str, Any]) -> str:
    parts = [trigger.get("kind", "?")]
    where = trigger.get("run") or trigger.get("phase")
    if where:
        parts.append(f"in {where}")
    if trigger.get("series"):
        parts.append(f"on {trigger['series']}")
    value, threshold = trigger.get("value"), trigger.get("threshold")
    if value is not None and threshold is not None:
        parts.append(f"({value:.6g} vs {threshold:.6g})")
    t0, t1 = trigger.get("t0"), trigger.get("t1")
    if t0 is not None and t1 is not None:
        parts.append(f"window {t0 * 1000:.0f}..{t1 * 1000:.0f} ms")
    return " ".join(parts)


def scoreboard(bundle: Bundle, runs: Optional[str] = None) -> Tuple[List[str], bool]:
    """The saved verdict of the runs whose label holds ``runs`` (all when
    None): the SLO table and the health events, and whether every
    result is compliant."""
    kept = [r for r in bundle.slo if r["type"] != "slo_header"]
    kept = [r for r in kept if runs is None or runs in r["run"]]
    results = [r for r in kept if r["type"] == "slo"]
    events = [r for r in kept if r["type"] == "event"]
    lines = []
    if results:
        header = f"{'slo':<18}{'run':<26}{'windows':>8}{'bad':>5}{'burn':>7}  verdict"
        lines += [header, "-" * len(header)]
        for record in results:
            burn = record.get("burn", 0)
            burn_text = burn if isinstance(burn, str) else f"{burn:.2f}"
            verdict = "ok" if record["compliant"] else "VIOLATED"
            lines.append(
                f"{record['spec']:<18}{record['run']:<26}{record['windows']:>8}"
                f"{record['violations']:>5}{burn_text:>7}  {verdict}"
            )
    if events:
        if results:
            lines.append("")
        lines.append(f"health events ({len(events)}):")
        lines += [f"  - {_describe_trigger(event)}" for event in events]
    return lines, all(record["compliant"] for record in results)


def print_summary(bundle: Bundle, runs: Optional[str] = None) -> None:
    manifest = bundle.manifest
    counts = manifest.get("counts", {})
    print(f"bundle:  {bundle.path}")
    print(f"label:   {manifest.get('label')}")
    reason = manifest.get("reason", {})
    print(f"reason:  {_describe_trigger(reason)}")
    if reason.get("detail"):
        print(f"         {reason['detail']}")
    triggers = manifest.get("triggers", [])
    if len(triggers) > 1:
        print(f"triggers ({len(triggers)} total):")
        for trigger in triggers:
            print(f"  - {_describe_trigger(trigger)}")
    print(
        "rings:   "
        f"{counts.get('ring_frames', 0)} frames "
        f"({counts.get('ring_bytes', 0)} B, "
        f"{counts.get('frames_evicted', 0)} evicted), "
        f"{counts.get('traces', 0)} traces, "
        f"{counts.get('windows', 0)} windows, "
        f"{counts.get('marks', 0)} marks"
    )
    lines, _compliant = scoreboard(bundle, runs)
    if lines:
        print()
        print("\n".join(lines))


def print_slo(bundle: Bundle, runs: Optional[str]) -> int:
    """The saved verdict, graded as the run went by the grader the
    recorder streams windows through — what grading the series again
    would say; exit 1 if a result is violated."""
    lines, compliant = scoreboard(bundle, runs)
    print("\n".join(lines) or "no SLO verdict for these runs")
    return EXIT_OK if compliant else EXIT_FAIL


# --- blame ------------------------------------------------------------------


def implicated_trace_ids(bundle: Bundle) -> List[int]:
    """Trace ids named by the trigger(s), in first-seen order."""
    seen: List[int] = []
    sources = [bundle.manifest.get("reason", {})]
    sources.extend(bundle.manifest.get("triggers", []))
    for source in sources:
        for trace_id in source.get("trace_ids", ()):
            if trace_id not in seen:
                seen.append(int(trace_id))
    return seen


def _stage_rows(record: Dict[str, Any]) -> List[str]:
    """One trace's stage table; verifies the telescoping invariant."""
    stages = record.get("stages", {})
    end_to_end = float(record.get("end_to_end", 0.0))
    rows = []
    for stage in STAGES:
        if stage not in stages:
            continue
        duration = float(stages[stage])
        share = duration / end_to_end * 100 if end_to_end > 0 else 0.0
        bar = "#" * int(round(share / 4))
        rows.append(
            f"    {stage:<14}{duration * 1000:>10.3f} ms {share:>6.1f}%  {bar}"
        )
    total = sum(float(v) for v in stages.values())
    exact = total == end_to_end
    rows.append(
        f"    {'sum':<14}{total * 1000:>10.3f} ms "
        f"({'exact' if exact else f'off by {(total - end_to_end) * 1e3:.6f} ms'}"
        f" vs end-to-end {end_to_end * 1000:.3f} ms)"
    )
    return rows


def _trace_heading(record: Dict[str, Any]) -> str:
    if record.get("probe"):
        return (
            f"  trace {record.get('trace_id')}  probe {record['probe']}  "
            f"opened {record.get('started_at', 0) * 1000:.3f} ms"
        )
    head = (
        f"  trace {record.get('trace_id')}  "
        f"{record.get('opcode')} seq={record.get('seq')} "
        f"{record.get('src')}->{record.get('dst')}"
    )
    if record.get("recovery"):
        head += f"  [recovery of seq={record.get('recovery_of')}]"
    if record.get("open"):
        head += "  [open at freeze]"
    return head


def print_blame(bundle: Bundle) -> None:
    traces = bundle.traces
    by_id = {t["trace_id"]: t for t in traces}
    wanted = implicated_trace_ids(bundle)
    records: List[Dict[str, Any]]
    if wanted:
        records = [by_id[i] for i in wanted if i in by_id]
        missing = [i for i in wanted if i not in by_id]
        print(
            f"implicated traces: {len(records)} of {len(wanted)} named by "
            f"triggers present in the ring"
            + (f" (evicted: {missing})" if missing else "")
        )
    else:
        completed = [t for t in traces if t.get("completed")]
        completed.sort(key=lambda t: -float(t.get("end_to_end", 0.0)))
        records = completed[:_FALLBACK_BLAME]
        print(
            "no traces named by triggers; showing the "
            f"{len(records)} slowest completed traces in the ring"
        )
    for record in records:
        print()
        print(_trace_heading(record))
        if record.get("probe"):
            duration = record.get("duration")
            text = f"{duration * 1000:.3f} ms" if duration is not None else "open"
            print(f"    probe {record['probe']}: {text}")
            continue
        if record.get("completed"):
            for row in _stage_rows(record):
                print(row)
        else:
            print("    open at freeze — no stage partition yet")

    reader = bundle.ring
    if reader is not None:
        events = timeline_events(reader)
        if events:
            print()
            print(f"loss-recovery conversation ({len(events)} events):")
            for when, text in events:
                print(f"  {when * 1000:>10.3f} ms  {text}")
        if reader.truncated:
            print("  (wire ring ends mid-record: capture truncated)")


# --- the wire ---------------------------------------------------------------


def _status_name(value: int) -> str:
    try:
        return StatusKind(value).name
    except ValueError:
        return f"STATUS#{value}"


def summarize(reader: SlimcapReader) -> Dict[str, object]:
    """Per-command statistics over a capture: message and datagram
    counts, wire and payload bytes and byte shares, per direction
    message counts, loss and drop totals."""
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


def timeline_events(reader: SlimcapReader) -> List[Tuple[float, str]]:
    """The loss-recovery conversation, in time order.

    Returns ``(time, description)`` pairs covering frame losses and
    drops, status traffic (NACK / RECOVERED / SYNC / FRONTIER), and
    recovery re-encodes from the causal traces embedded in the capture.
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


def print_latency(table: Dict[str, Dict[str, Dict[str, float]]]) -> None:
    if not table:
        print("no completed traces in this bundle")
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


def print_timeline(events: List[Tuple[float, str]]) -> None:
    if not events:
        print("no losses, drops, or status traffic on the wire")
        return
    for when, text in events:
        print(f"{when * 1000:>10.3f} ms  {text}")


# --- the windowed series ----------------------------------------------------


def series_runs(bundle: Bundle, runs: Optional[str]) -> List[RunSeries]:
    """The bundle's runs whose label holds ``runs`` (all when None)."""
    if not bundle.timeseries:
        return []
    collection = TimeSeriesCollection.from_records(bundle.timeseries)
    return [run for run in collection.runs if runs is None or runs in run.label]


def render_run(
    run: RunSeries, patterns: Sequence[str] = (), width: int = 60, heat: bool = False
) -> str:
    """One run's series (those matching a glob of ``patterns``, or all)
    as labelled sparklines, or as one shared-scale heatstrip."""
    from repro.analysis.textplot import render_heatstrip  # as sparkline_rows does

    keys = {
        key: family
        for key, family in sorted(run.series_keys().items())
        if not patterns or any(fnmatch.fnmatch(key, p) for p in patterns)
    }
    coalesced = f" (coalesced x{run.coalesce_count})" if run.coalesce_count else ""
    lines = [
        f"run {run.label!r}: {len(run.windows)} windows, "
        f"{run.span:g} sim-s at {run.window:g}s{coalesced}"
    ]
    if not keys:
        lines.append("  (no series match)")
    elif heat:
        rows = {key: run.values(key, RENDER_KINDS[family][0]) for key, family in keys.items()}
        lines.append(render_heatstrip(
            {key: [value for _t, value in points] for key, points in rows.items() if points},
            width=width,
        ))
    else:
        lines.extend(sparkline_rows(run, keys, width))
    return "\n".join(lines)


def print_series(runs: List[RunSeries], args: argparse.Namespace) -> int:
    if not runs:
        print("no runs match", file=sys.stderr)
        return EXIT_FAIL
    for run in runs:
        print(render_run(run, args.metric, args.width, args.heat))
        print()
    return EXIT_OK


def chrome_trace(bundle: Bundle, runs: Optional[str] = None) -> Dict[str, Any]:
    """The bundle as one Chrome trace: the completed message traces and
    probe rounds (incomplete traces are skipped), then a counter ("C")
    event per window of each series, each run a process of its own on a
    pid no causal lane uses, timestamps window starts in microseconds."""
    document = chrome_trace_events(bundle.traces)
    events = document["traceEvents"]
    first = 1 + max((event["pid"] for event in events), default=0)
    for pid, run in enumerate(series_runs(bundle, runs), start=first):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": run.label}}
        )
        for key, family in sorted(run.series_keys().items()):
            kind = RENDER_KINDS[family][0]
            events.extend(
                {"name": key, "ph": "C", "pid": pid, "tid": 0, "ts": t0 * 1e6,
                 "args": {kind: value}}
                for t0, value in run.values(key, kind)
            )
    return document


# --- entry point ------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.postmortem",
        description="Read a .slimpm bundle: a run record or a "
        "flight-recorder bundle.",
    )
    parser.add_argument("bundle", type=Path, help=".slimpm bundle file")
    parser.add_argument(
        "--summary", action="store_true",
        help="what fired, the SLO scoreboard, ring counts (default)",
    )
    parser.add_argument(
        "--blame", action="store_true",
        help="per-stage latency attribution for the implicated traces "
        "and the loss-recovery conversation",
    )
    parser.add_argument(
        "--latency", action="store_true",
        help="per-command stage-latency percentiles over the completed traces",
    )
    parser.add_argument(
        "--timeline", action="store_true",
        help="the loss-recovery conversation on the wire, in time order",
    )
    parser.add_argument(
        "--series", action="store_true", help="each run's windowed series as sparklines"
    )
    parser.add_argument(
        "--slo", action="store_true",
        help="the saved SLO verdict; exit 1 if any result is violated",
    )
    parser.add_argument(
        "--runs", metavar="SUBSTR", help="only runs whose label contains this substring"
    )
    parser.add_argument(
        "--metric", action="append", default=[], metavar="GLOB",
        help="--series: only series matching this pattern (repeatable)",
    )
    parser.add_argument(
        "--width", type=int, default=60, help="--series: sparkline width (default 60)"
    )
    parser.add_argument(
        "--heat", action="store_true", help="--series: each run as one shared-scale heatstrip"
    )
    parser.add_argument(
        "--chrome-trace", type=Path, metavar="OUT",
        help="write completed traces, probe rounds and series counters "
        "as Chrome trace_event JSON",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)

    try:
        bundle = load_bundle(args.bundle)
    except BundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT

    views = [args.summary, args.blame, args.latency, args.timeline, args.series, args.slo]
    if not any(views) and args.chrome_trace is None:
        args.summary = True

    if args.chrome_trace is not None:
        document = chrome_trace(bundle, args.runs)
        args.chrome_trace.write_text(json.dumps(document))
        print(
            f"wrote {len(document['traceEvents'])} trace events "
            f"to {args.chrome_trace}",
            file=sys.stderr,
        )

    reader = bundle.ring
    if args.json:
        output: Dict[str, Any] = {"manifest": bundle.manifest}
        if args.summary or args.slo:
            output["slo"] = bundle.slo
            if args.summary and reader is not None:
                output["summary"] = summarize(reader)
        if args.blame:
            output["traces"] = bundle.traces
        if args.latency:
            output["latency"] = stage_percentiles(bundle.traces)
        if args.timeline and reader is not None:
            output["timeline"] = [
                {"time": when, "event": text}
                for when, text in timeline_events(reader)
            ]
        print(json.dumps(output, indent=2))
        return EXIT_FAIL if args.slo and not scoreboard(bundle, args.runs)[1] else EXIT_OK

    status = EXIT_OK
    shown = False
    for wanted, show in (
        (args.summary, lambda: print_summary(bundle, args.runs)),
        (args.blame, lambda: print_blame(bundle)),
        (args.latency, lambda: print_latency(stage_percentiles(bundle.traces))),
        (
            args.timeline,
            lambda: print_timeline(timeline_events(reader) if reader else []),
        ),
        (args.series, lambda: print_series(series_runs(bundle, args.runs), args)),
        (args.slo, lambda: print_slo(bundle, args.runs)),
    ):
        if wanted:
            if shown:
                print()
            status = max(status, show() or EXIT_OK)
            shown = True
    return status


if __name__ == "__main__":
    run_cli(main)
