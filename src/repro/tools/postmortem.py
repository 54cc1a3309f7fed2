"""Post-mortem triage for ``.slimpm`` flight-recorder bundles.

A bundle is what :class:`repro.obs.flightrec.FlightRecorder` freezes
when an anomaly trips: the wire-frame ring, implicated causal traces,
the telemetry window slice and its SLO verdict, engine marks,
and what the cells of a sweep shipped.  This tool answers the three
triage questions in order:

* ``--summary`` — *what fired?*  The trigger, the SLO scoreboard over
  the frozen window slice, and what the rings held.
* ``--blame``   — *where did the time go?*  Per-stage latency
  attribution for the implicated traces (stage sums are checked
  against the traced end-to-end latency — they telescope exactly, by
  construction) and the LOSS -> NACK -> REENCODE conversation from the
  wire ring.
* ``--chrome-trace OUT`` — *show me.*  The completed traces and the
  probe rounds as Chrome ``trace_event`` JSON for about:tracing.

Exit status: 0 on a readable bundle, 2 on a corrupt or unrecognized
one (bad zip, missing/invalid manifest, unknown format or version) —
scriptable from CI smoke jobs.
"""

from __future__ import annotations

import argparse
import json
import sys
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.capture import SlimcapReader
from repro.obs.causal import STAGES, chrome_trace_events
from repro.obs.flightrec import BUNDLE_FORMAT, BUNDLE_VERSION
from repro.tools import run_cli

__all__ = ["Bundle", "BundleError", "load_bundle", "main"]

#: Traces shown by --blame when no trigger named specific culprits.
_FALLBACK_BLAME = 5

EXIT_OK = 0
EXIT_CORRUPT = 2


class BundleError(Exception):
    """The file is not a readable .slimpm bundle."""


class Bundle:
    """A loaded ``.slimpm`` bundle, members parsed lazily-enough."""

    def __init__(self, path: Path, manifest: Dict[str, Any], members: Dict[str, bytes]) -> None:
        self.path = path
        self.manifest = manifest
        self._members = members

    def _jsonl(self, name: str) -> List[Dict[str, Any]]:
        raw = self._members.get(name)
        if raw is None:
            return []
        records = []
        for line in raw.decode("utf-8").splitlines():
            line = line.strip()
            if line:
                records.append(json.loads(line))
        return records

    @property
    def traces(self) -> List[Dict[str, Any]]:
        return self._jsonl("traces.jsonl")

    @property
    def timeseries(self) -> List[Dict[str, Any]]:
        return self._jsonl("timeseries.jsonl")

    @property
    def slo(self) -> List[Dict[str, Any]]:
        return self._jsonl("slo.jsonl")

    @property
    def engine(self) -> Dict[str, Any]:
        raw = self._members.get("engine.json")
        return json.loads(raw.decode("utf-8")) if raw else {}

    @property
    def ring(self) -> Optional[SlimcapReader]:
        raw = self._members.get("ring.slimcap")
        if not raw:
            return None
        return SlimcapReader.from_bytes(raw)


def load_bundle(path: Path) -> Bundle:
    """Open and validate a bundle; raises :class:`BundleError` when the
    file is not a well-formed .slimpm archive."""
    if not path.exists():
        raise BundleError(f"no such bundle: {path}")
    try:
        with zipfile.ZipFile(path) as archive:
            members = {
                info.filename: archive.read(info.filename)
                for info in archive.infolist()
            }
    except (zipfile.BadZipFile, OSError) as exc:
        raise BundleError(f"{path}: not a readable zip archive ({exc})")
    raw = members.get("manifest.json")
    if raw is None:
        raise BundleError(f"{path}: bundle has no manifest.json")
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise BundleError(f"{path}: manifest.json is not valid JSON ({exc})")
    if not isinstance(manifest, dict):
        raise BundleError(f"{path}: manifest.json is not an object")
    if manifest.get("format") != BUNDLE_FORMAT:
        raise BundleError(
            f"{path}: not a {BUNDLE_FORMAT} bundle "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != BUNDLE_VERSION:
        raise BundleError(
            f"{path}: unsupported bundle version "
            f"{manifest.get('version')!r} (tool speaks {BUNDLE_VERSION})"
        )
    return Bundle(path, manifest, members)


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
    if trigger.get("t0") is not None:
        parts.append(
            f"window {trigger['t0'] * 1000:.0f}..{trigger['t1'] * 1000:.0f} ms"
        )
    return " ".join(parts)


def print_summary(bundle: Bundle) -> None:
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
    results = [r for r in bundle.slo if r.get("type") == "slo"]
    if results:
        print()
        header = (
            f"{'slo':<18}{'run':<26}{'windows':>8}{'bad':>5}"
            f"{'burn':>7}  verdict"
        )
        print(header)
        print("-" * len(header))
        for record in results:
            burn = record.get("burn", 0)
            burn_text = burn if isinstance(burn, str) else f"{burn:.2f}"
            verdict = "ok" if record.get("compliant") else "VIOLATED"
            print(
                f"{record.get('spec', '?'):<18}"
                f"{str(record.get('run', '?')):<26}"
                f"{record.get('windows', 0):>8}"
                f"{record.get('violations', 0):>5}"
                f"{burn_text:>7}  {verdict}"
            )
    events = [r for r in bundle.slo if r.get("type") == "event"]
    if events:
        print()
        print(f"health events ({len(events)}):")
        for event in events:
            print(f"  - {_describe_trigger(event)}")


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
    by_id = {
        t["trace_id"]: t for t in traces if "trace_id" in t
    }
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
        from repro.tools.slimcap import timeline_events

        events = timeline_events(reader)
        if events:
            print()
            print(f"loss-recovery conversation ({len(events)} events):")
            for when, text in events:
                print(f"  {when * 1000:>10.3f} ms  {text}")
        if reader.truncated:
            print("  (wire ring ends mid-record: capture truncated)")


# --- entry point ------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.postmortem",
        description="Triage a .slimpm flight-recorder bundle.",
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
        "--chrome-trace", type=Path, metavar="OUT",
        help="write completed traces as Chrome trace_event JSON",
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

    wants_any = args.summary or args.blame
    if not wants_any and args.chrome_trace is None:
        args.summary = True

    if args.chrome_trace is not None:
        # Incomplete message traces are skipped by the renderer.
        document = chrome_trace_events(bundle.traces)
        args.chrome_trace.write_text(json.dumps(document))
        print(
            f"wrote {len(document['traceEvents'])} trace events "
            f"to {args.chrome_trace}",
            file=sys.stderr,
        )

    if args.json:
        output: Dict[str, Any] = {"manifest": bundle.manifest}
        if args.summary:
            output["slo"] = bundle.slo
        if args.blame:
            output["traces"] = bundle.traces
        print(json.dumps(output, indent=2))
        return EXIT_OK

    if args.summary:
        print_summary(bundle)
    if args.blame:
        if args.summary:
            print()
        print_blame(bundle)
    return EXIT_OK


if __name__ == "__main__":
    run_cli(main)
