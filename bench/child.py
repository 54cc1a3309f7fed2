"""One (workload, repeat) in a fresh interpreter.

Spawned by ``run.py``, one at a time.  Registers the workloads, runs the
chosen one through ``repro.experiments.__main__.main`` with the flags a
user would type, and writes what it measured as JSON to ``--result``.
The runner's own output (the rendered table) goes to stdout untouched.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

#: Workloads run with the runner's observers disarmed.
BARE = frozenset({"fabric_knee_bare"})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--postmortem-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_out is not None:
        import layers
        import tracing

        recorder = tracing.SpanRecorder(dispatchers=layers.DISPATCHERS)
        try:
            tracing.install(recorder, layers.TARGETS, layers.FACTORY_TARGETS)
        except tracing.WrapTargetGone as gone:
            print(gone, file=sys.stderr)
            return 3

    import workloads
    from repro.experiments import __main__ as runner

    run = workloads.BenchRun(
        workload=args.workload,
        seed=args.seed,
        scale=args.scale,
        spawned_at=args.spawned_at,
        recorder=recorder,
    )
    experiment_id = workloads.register(run)[args.workload]
    flags = ["--postmortem-dir", args.postmortem_dir]
    if args.workload in BARE:
        flags.append("--no-flight-recorder")
    status = runner.main(flags + [experiment_id])

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "runner_status": status,
        "timing": run.timing,
        "slices_ms": run.slices_ms,
        "counts": run.counts,
        "checks": run.checks,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        self_s, calls = recorder.snapshot()
        result["trace"] = dict(
            run.section,
            total_self_s=self_s,
            total_calls=calls,
            layer_of=recorder.layer_of,
        )
        recorder.write_chrome_trace(args.trace_out)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
