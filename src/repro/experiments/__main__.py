"""Regenerate the paper's evaluation section from the command line.

Usage::

    python -m repro.experiments                    # every table and figure
    python -m repro.experiments fig9 fig11         # a subset
    python -m repro.experiments --list             # what's available
    python -m repro.experiments --metrics table4   # + telemetry report
    python -m repro.experiments --progress fig11   # live health line
    python -m repro.experiments --slo wan_matrix   # + SLO report
    python -m repro.experiments --record lossy_fabric    # ./lossy_fabric.slimpm
    python -m repro.experiments --dashboard fleet_scale  # live sparklines
    python -m repro.experiments --profile fig9     # cProfile top-N
    python -m repro.experiments --memprofile fig9  # tracemalloc diff

``--record`` writes the whole run as one ``.slimpm`` bundle in
``--postmortem-dir`` at exit — wire capture, traces, telemetry windows,
SLO verdict, registry snapshot — beside any anomaly bundles the flight
recorder froze; ``python -m repro.tools.postmortem`` reads both.

Long runs print a live one-line health readout with ``--progress``
(sim-time, events/sec, drops, ETA).  Ctrl-C is safe: partial results,
telemetry and the run record collected so far are flushed before exit
(status 130).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time
import tracemalloc

# Importing the modules registers their runners.
from repro.experiments import (  # noqa: F401
    ablations,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fleet_scale,
    lossy_fabric,
    multimedia,
    scalability,
    table4,
    table5,
    wan_matrix,
)
from repro.experiments.runner import EXPERIMENTS, ExperimentConfig, render_table
from repro.obs import (
    FlightRecorder,
    RunRecord,
    TimeSeriesCollection,
    TraceCollector,
)
from repro.obs.progress import DashboardMonitor, ProgressMonitor
from repro.runcontext import use_run
from repro.telemetry import MetricsRegistry, render_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the SLIM paper's tables and figures.",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        help="also write the results as a markdown report",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect telemetry during the runs and print a report",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="root RNG seed override"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated-seconds override (where applicable)",
    )
    parser.add_argument(
        "--users",
        type=int,
        default=None,
        help="simulated-user-count override (where applicable)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a live progress/health line while simulators run "
        "(sim-time, events/sec, drops, ETA)",
    )
    parser.add_argument(
        "--timeseries-window",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="window width for --record/--slo/--dashboard sampling "
        "(default 1.0)",
    )
    parser.add_argument(
        "--slo",
        action="store_true",
        help="evaluate the interactivity SLOs over the sampled windows "
        "and print the report",
    )
    parser.add_argument(
        "--dashboard",
        action="store_true",
        help="live multi-line mini-dashboard (status line + telemetry "
        "sparklines) instead of the one-line --progress readout",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="profile.txt",
        default=None,
        metavar="PATH",
        help="cProfile the runs; write the top functions by cumulative "
        "time next to the results (default: profile.txt)",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=30,
        metavar="N",
        help="rows in the profile report (default: 30)",
    )
    parser.add_argument(
        "--no-flight-recorder",
        action="store_true",
        help="disarm the always-on flight recorder (no anomaly-triggered "
        ".slimpm post-mortem bundles)",
    )
    parser.add_argument(
        "--postmortem-dir",
        metavar="DIR",
        default=".",
        help="where .slimpm bundles land, anomaly-triggered and --record's "
        "(default: .; triage with python -m repro.tools.postmortem)",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="write the whole run as one .slimpm bundle in --postmortem-dir "
        "at exit: wire capture, traces, windows, SLO verdict, telemetry",
    )
    parser.add_argument(
        "--memprofile",
        nargs="?",
        const="memprofile.txt",
        default=None,
        metavar="PATH",
        help="tracemalloc the runs; write the top allocation sites "
        "(snapshot diff, grouped by line) next to the results "
        "(default: memprofile.txt)",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for spec in EXPERIMENTS.values():
            section = f"§{spec.section}" if spec.section else ""
            print(f"{spec.experiment_id:<12} {section:<8} {spec.title}")
        return 0

    selected = args.ids or list(EXPERIMENTS)
    unknown = [i for i in selected if i not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    label = "+".join(selected) if args.ids else "all"
    run_config = {
        "experiments": selected,
        "seed": args.seed,
        "duration": args.duration,
        "users": args.users,
        "argv": list(argv) if argv is not None else sys.argv[1:],
    }
    record = (
        RunRecord(args.postmortem_dir, label, run_config) if args.record else None
    )
    sampling = args.record or args.slo or args.dashboard
    # Windowed sampling needs instruments to sample, so it implies a
    # registry; the end-of-run telemetry report still keys off --metrics.
    registry = MetricsRegistry() if args.metrics or sampling else None
    collection = (
        TimeSeriesCollection(window=args.timeseries_window)
        if sampling
        else None
    )
    config = ExperimentConfig(
        seed=args.seed, duration=args.duration, n_users=args.users
    )

    # Sampling also installs a tracer so windows (and SLO health events)
    # carry the trace ids that were in flight.
    tracer = TraceCollector() if sampling else None

    # The flight recorder is armed by default: bounded rings over the
    # wire frames, recent traces, and telemetry windows, frozen into a
    # .slimpm bundle when an SLO trips, a loss burst is detected, or
    # the run is interrupted or crashes.  When the run already traces
    # (--record, sampling) the recorder rides the same tracer;
    # otherwise it brings its own bounded one.
    flightrec = None
    if not args.no_flight_recorder:
        flightrec = FlightRecorder(
            out_dir=args.postmortem_dir, label=label, config=run_config
        )
    progress = None
    if args.dashboard:
        progress = DashboardMonitor(target_sim_seconds=args.duration)
    elif args.progress:
        progress = ProgressMonitor(target_sim_seconds=args.duration)
    # One context for the run, and the only hand-off: nothing armed is
    # passed to a constructor.  Only what was asked for is replaced, so
    # an embedding caller's own registry or observers stay in place.
    armed = {
        "registry": registry,
        "tracer": tracer,
        "capture": record.capture if record is not None else None,
        "collection": collection,
        "recorder": flightrec,
        "progress": progress,
    }

    profiler = cProfile.Profile() if args.profile is not None else None
    memory_before = None
    if args.memprofile is not None:
        tracemalloc.start()
        memory_before = tracemalloc.take_snapshot()

    # The run loop is interruptible: everything collected up to a Ctrl-C
    # — printed tables, telemetry, captures, profiles — is flushed by
    # the reporting code below, which runs either way.  A partial
    # multi-hour scalability run is still data.
    results = []
    interrupted = False
    try:
        with use_run(**{k: v for k, v in armed.items() if v is not None}):
            for experiment_id in selected:
                started = time.time()
                if flightrec is not None:
                    flightrec.note(experiment_id)
                if profiler is not None:
                    profiler.enable()
                try:
                    result = EXPERIMENTS[experiment_id].runner(config)
                finally:
                    if profiler is not None:
                        profiler.disable()
                results.append(result)
                print(render_table(result))
                print(f"  ({time.time() - started:.1f}s)")
                print()
    except KeyboardInterrupt:
        interrupted = True
        print(
            "\ninterrupted — flushing partial results and reports",
            file=sys.stderr,
        )
        if flightrec is not None:
            flightrec.trigger(
                "keyboard_interrupt",
                detail="run interrupted; rings frozen as of Ctrl-C",
            )
    except Exception as exc:
        # A crash is the flight recorder's reason to exist: freeze the
        # rings before the traceback unwinds, then re-raise unchanged.
        if flightrec is not None:
            flightrec.trigger("crash", detail=repr(exc))
        raise

    _write_reports(args, armed, record, profiler, memory_before)
    if args.markdown:
        from repro.experiments.report import write_report

        path = write_report(results, args.markdown)
        print(f"markdown report written to {path}")
    return 130 if interrupted else 0


def _write_reports(args, armed, record, profiler, memory_before) -> None:
    """Flush what the run's observers (``armed``, by context field)
    collected: the run record, the SLO report, telemetry, profiles, and
    the flight recorder's triggers."""
    collection = armed["collection"]
    if record is not None:
        path = record.write(
            armed["tracer"],
            collection,
            armed["registry"].snapshot(),
            armed["recorder"],
        )
        print(f"run record written to {path}")
    if args.slo:
        print(collection.slo_report().render())
    if args.metrics:
        print(render_report(armed["registry"], title="telemetry report"))
    if profiler is not None:
        _write_profile(profiler, args.profile, args.profile_top)
        print(f"cProfile report written to {args.profile}")
    if memory_before is not None:
        memory_after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        _write_memprofile(memory_before, memory_after, args.memprofile)
        print(f"tracemalloc report written to {args.memprofile}")
    flightrec = armed["recorder"]
    if flightrec is not None and flightrec.triggers:
        print(
            f"flight recorder: {len(flightrec.triggers)} trigger(s), "
            f"{len(flightrec.bundles)} post-mortem bundle(s)"
        )
        for trigger in flightrec.triggers:
            where = trigger.get("run") or trigger.get("phase") or ""
            print(
                f"  {trigger['kind']}"
                + (f" in {where}" if where else "")
                + (f": {trigger['detail']}" if trigger.get("detail") else "")
            )
        for path in flightrec.bundles:
            print(
                f"  bundle {path} "
                f"(triage with python -m repro.tools.postmortem)"
            )


def _write_profile(profiler: cProfile.Profile, path: str, top: int) -> None:
    """Top functions by cumulative time, written next to the results."""
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(pstats.SortKey.CUMULATIVE).print_stats(top)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buffer.getvalue())


def _write_memprofile(before, after, path: str, top: int = 25) -> None:
    """Allocation-site snapshot diff, biggest net growth first."""
    growth = after.compare_to(before, "lineno")
    lines = ["net allocation growth during the runs, by source line", ""]
    for stat in growth[:top]:
        lines.append(
            f"{stat.size_diff / 1024:+10.1f} KiB  "
            f"({stat.count_diff:+d} blocks)  {stat.traceback}"
        )
    total = sum(stat.size_diff for stat in growth)
    lines.append("")
    lines.append(f"total net growth: {total / 1024:.1f} KiB")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
