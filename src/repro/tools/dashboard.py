"""Render a bundle's time-series telemetry as a terminal dashboard.

``python -m repro.tools.dashboard RUN.slimpm`` draws the windowed
series of a ``.slimpm`` bundle — the runner's ``--record``, or a
flight-recorder bundle's window slice — as sparklines (one row per
series, density-ramp glyphs), or as a heatstrip with ``--heat``.  The
same bundle can be schema-checked (``--validate``), evaluated against
the interactivity SLOs (``--slo``; ``--validate`` checks the bundle's
saved verdict too), or exported as Chrome ``trace_event`` counter
JSON (``--chrome-trace``, load in about:tracing / Perfetto alongside
the causal traces ``postmortem --chrome-trace`` draws).

Examples::

    python -m repro.tools.dashboard wan_matrix.slimpm
    python -m repro.tools.dashboard wan_matrix.slimpm --metric 'net.yardstick.*'
    python -m repro.tools.dashboard wan_matrix.slimpm --heat --runs cellular/
    python -m repro.tools.dashboard wan_matrix.slimpm --slo
    python -m repro.tools.dashboard wan_matrix.slimpm --chrome-trace trace.json
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.textplot import render_heatstrip
from repro.errors import ReproError
from repro.obs.flightrec import load_bundle
from repro.obs.slo import SloEngine, validate_slo_records
from repro.obs.timeseries import (
    RENDER_KINDS,
    RunSeries,
    TimeSeriesCollection,
    sparkline_rows,
    validate_timeseries_records,
)
from repro.tools import run_cli

__all__ = ["main", "chrome_counter_events", "render_run"]

def _selected_keys(
    run: RunSeries, patterns: Sequence[str]
) -> Dict[str, str]:
    keys = run.series_keys()
    if not patterns:
        return keys
    return {
        key: family
        for key, family in keys.items()
        if any(fnmatch.fnmatch(key, pattern) for pattern in patterns)
    }


def render_run(
    run: RunSeries,
    patterns: Sequence[str] = (),
    width: int = 60,
    heat: bool = False,
    quantile: float = 0.95,
) -> str:
    """One run's series as labelled sparklines (or one heatstrip)."""
    keys = _selected_keys(run, patterns)
    title = (
        f"run {run.label!r}: {len(run.windows)} windows, "
        f"{run.span:g} sim-s at {run.window:g}s"
        + (f" (coalesced x{run.coalesce_count})" if run.coalesce_count else "")
    )
    lines = [title]
    if not keys:
        lines.append("  (no series match)")
        return "\n".join(lines)
    if heat:
        rows = {}
        for key in sorted(keys):
            points = run.values(key, RENDER_KINDS[keys[key]][0], quantile)
            if points:
                rows[key] = [value for _t, value in points]
        lines.append(render_heatstrip(rows, width=width))
        return "\n".join(lines)
    lines.extend(sparkline_rows(run, dict(sorted(keys.items())), width, quantile))
    return "\n".join(lines)


def chrome_counter_events(
    collection: TimeSeriesCollection, quantile: float = 0.95
) -> Dict[str, Any]:
    """Chrome ``trace_event`` counter ("C") events for every series.

    Each run becomes a process (pid = run index) so Perfetto groups its
    counters together; timestamps are window starts in microseconds.
    """
    events: List[Dict[str, Any]] = []
    for pid, run in enumerate(collection.runs):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": run.label},
            }
        )
        for key, family in sorted(run.series_keys().items()):
            kind = RENDER_KINDS[family][0]
            for t0, value in run.values(key, kind, quantile):
                events.append(
                    {
                        "name": key,
                        "ph": "C",
                        "pid": pid,
                        "tid": 0,
                        "ts": t0 * 1e6,
                        "args": {kind: value},
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.dashboard",
        description="Render a bundle's time-series telemetry as a terminal "
        "dashboard.",
    )
    parser.add_argument(
        "bundle",
        help=".slimpm bundle (the runner's --record, or a flight-recorder "
        "bundle)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="GLOB",
        help="only series matching this pattern (repeatable)",
    )
    parser.add_argument(
        "--runs",
        metavar="SUBSTR",
        help="only runs whose label contains this substring",
    )
    parser.add_argument(
        "--width", type=int, default=60, help="sparkline width (default 60)"
    )
    parser.add_argument(
        "--quantile",
        type=float,
        default=0.95,
        help="quantile for histogram series (default 0.95)",
    )
    parser.add_argument(
        "--heat",
        action="store_true",
        help="render each run as one shared-scale heatstrip",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="schema-check the bundle's series (and SLO verdict) instead "
        "of rendering",
    )
    parser.add_argument(
        "--slo",
        action="store_true",
        help="evaluate the interactivity SLOs and print the report",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="export Chrome trace_event counter JSON",
    )
    args = parser.parse_args(argv)

    try:
        bundle = load_bundle(args.bundle)
        records = bundle.timeseries
        validate_timeseries_records(records)
        verdict = bundle.slo
        if verdict:
            validate_slo_records(verdict)
    except (OSError, ValueError, ReproError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    if args.validate:
        suffix = " (+ SLO report)" if verdict else ""
        print(f"{args.bundle}: {len(records)} records ok{suffix}")
        return 0

    collection = TimeSeriesCollection.from_records(records)
    runs = [
        run
        for run in collection.runs
        if args.runs is None or args.runs in run.label
    ]
    if not runs:
        print("no runs match", file=sys.stderr)
        return 1
    for run in runs:
        print(render_run(
            run,
            patterns=args.metric,
            width=args.width,
            heat=args.heat,
            quantile=args.quantile,
        ))
        print()

    if args.chrome_trace is not None:
        subset = TimeSeriesCollection(window=collection.window)
        for run in runs:
            subset.adopt_run(run)
        document = chrome_counter_events(subset, quantile=args.quantile)
        with open(args.chrome_trace, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        print(
            f"{len(document['traceEvents'])} counter events "
            f"written to {args.chrome_trace}"
        )

    if args.slo:
        report = SloEngine().evaluate(runs)
        print(report.render())
        return 0 if report.compliant else 1
    return 0


if __name__ == "__main__":
    run_cli(main)
