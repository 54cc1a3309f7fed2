"""Metric arithmetic shared by the runner, ``--compare`` and the tests.

Nothing here imports the program: the definitions in ``BENCHMARK.json``
are read as data, child results are plain dicts, and every function is
pure, so the rules (the percentile rule, the digest, the compare
classification) can be tested on hand-built inputs.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Percentiles a tail metric may be reported at, highest first.
TAIL_PERCENTILES = (95, 90, 75, 50)
#: A percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: What one call of the children's host-speed probe takes on a quiet
#: spell of the host the benchmark was defined on.  It fixes the size of
#: a *reference second*: a run whose probe calls took 3 ms each ran on a
#: host two thirds as fast, and its times are scaled by 2/3.
PROBE_REFERENCE_MS = 1.7

#: Left out of the digest of simulated statistics: they count the
#: simulator's work (allowed to fall under a speed-only change) or the
#: host's.
NOT_SIMULATED = ("netsim.events_fired", "netsim.events_per_packet", "host.")


def load_definitions(path: Optional[Path] = None) -> Dict[str, object]:
    with open(path or ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- percentiles -----------------------------------------------------------
def tail_percentile(n: int) -> int:
    """The highest percentile that has at least ten of ``n`` samples
    beyond it; the median when none has."""
    for percentile in TAIL_PERCENTILES:
        if n * (100 - percentile) >= 100 * MIN_BEYOND:
            return percentile
    return 50


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single sample is all
    three."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def spread(samples: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / q2 if q2 else 0.0


# -- one workload's end-to-end metrics ---------------------------------------
def end_to_end(runs: Sequence[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Aggregate the untraced repeats of one workload.

    Each metric carries its ``value`` (median over repeats; slice
    percentiles over the pooled slices), the per-repeat ``samples`` the
    quartiles in ``--compare`` come from, and, for slice percentiles,
    the pooled sample count and the percentile actually supported.

    The first four are the ones ``BENCHMARK.json`` bounds.  Their times
    are in seconds of a reference host: each run's wall times multiplied
    by that run's ``host_speed`` (see :data:`PROBE_REFERENCE_MS`).  The
    rest are ``run_ref_s`` inverted into throughput, the same times as
    the clock read them, and ``slice_wall_ms_p95``, which a slow spell
    of a few seconds in one repeat is enough to set; they are printed
    and stored, not bounded.
    """
    def timing(key: str) -> List[float]:
        return [run["timing"][key] for run in runs]

    speed = [PROBE_REFERENCE_MS / probe_ms for probe_ms in timing("probe_ms")]
    wall = timing("run_wall_s")
    ref = [w * s for w, s in zip(wall, speed)]
    user_sim_s = runs[0]["timing"]["user_sim_s"]
    slices = [run["slices_ms"] for run in runs]
    ref_slices = [[ms * s for ms in run] for run, s in zip(slices, speed)]
    tail = tail_percentile(sum(len(run) for run in slices))
    metrics = {
        "setup_s": _median_metric(
            [t * s for t, s in zip(timing("setup_wall_s"), speed)], "s"
        ),
        "run_ref_s": _median_metric(ref, "s"),
        "slice_ref_ms_p50": _slice_metric(ref_slices, 50),
        "peak_rss_mb": _median_metric([run["peak_rss_mb"] for run in runs], "MB"),
        "user_sim_s_per_ref_s": _median_metric([user_sim_s / r for r in ref], "1/s"),
        "host_speed": _median_metric(speed, "ratio"),
        "setup_wall_s": _median_metric(timing("setup_wall_s"), "s"),
        "run_wall_s": _median_metric(wall, "s"),
        "run_cpu_s": _median_metric(timing("run_cpu_s"), "s"),
        "user_sim_s_per_wall_s": _median_metric(
            [user_sim_s / w for w in wall], "1/s"
        ),
        "slice_wall_ms_p50": _slice_metric(slices, 50),
        "slice_wall_ms_p95": dict(_slice_metric(slices, tail), percentile=tail),
    }
    for name in ("user_sim_s_per_ref_s", "user_sim_s_per_wall_s"):
        metrics[name]["user_sim_s"] = user_sim_s
    return metrics


def _slice_metric(slices: List[List[float]], q: int) -> Dict[str, object]:
    pooled = [ms for run in slices for ms in run]
    return {
        "value": percentile(pooled, q),
        "unit": "ms",
        "samples": [percentile(run, q) for run in slices],
        "n": len(pooled),
    }


def _median_metric(samples: List[float], unit: str) -> Dict[str, object]:
    return {"value": statistics.median(samples), "unit": unit, "samples": samples}


def ops(runs: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Checks attempted and failed over ``runs``, failures by name."""
    attempted = 0
    failed: List[str] = []
    for run in runs:
        for check in run["checks"]:
            attempted += 1
            if not check["ok"]:
                failed.append(f"{check['name']}: {check['detail']}")
    return {"attempted": attempted, "failed": len(failed), "failures": failed}


# -- per-layer metrics from the traced run -----------------------------------
def per_layer(
    traced: Dict[str, object], untraced_wall_s: float, layers: Sequence[str]
) -> Dict[str, float]:
    """The per-layer metrics of one traced child.  Counts come from the
    program's public statistics (a layer the workload never enters
    reports none, which reads as 0); self times from the spans that
    closed inside the timed section."""
    trace = traced["trace"]
    counts = defaultdict(int, traced["counts"])
    self_s = {layer: trace["self_s"].get(layer, 0.0) for layer in layers}
    values: Dict[str, float] = dict(counts)
    for layer in layers:
        values[f"{layer}.self_s"] = self_s[layer]
    # The runner's shell and the user study run outside the timed
    # section, so these two are totals over the whole process.
    values["experiments.self_s"] = trace["total_self_s"].get("experiments", 0.0)
    values["workloads.setup_self_s"] = trace["setup_self_s"].get("workloads", 0.0)
    values["obs.hook_calls"] = sum(
        count
        for name, count in trace["calls"].items()
        if trace["layer_of"][name] == "obs"
    )

    def per(seconds: float, count: float) -> float:
        return 1e6 * seconds / count if count else 0.0

    values["core.encoder.us_per_command"] = per(
        self_s["core.encoder"],
        counts["core.encoder.commands"] + counts["core.encoder.recovery_commands"],
    )
    values["core.wire.us_per_datagram"] = per(
        self_s["core.wire"], counts["core.wire.datagrams"]
    )
    values["netsim.us_per_packet"] = per(
        self_s["netsim"], counts["netsim.packets_offered"]
    )
    values["netsim.us_per_event"] = per(
        self_s["netsim"], counts["netsim.events_fired"]
    )
    wall = trace["wall_s"]
    values["trace.unattributed_s"] = wall - sum(trace["self_s"].values())
    values["trace.overhead_ratio"] = wall / untraced_wall_s
    return values


# -- the digest of simulated statistics --------------------------------------
def simulated_statistics(counts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer counts that describe the simulated system: integers
    exact, floats to six significant digits."""
    stats = {}
    for name in sorted(counts):
        if name.startswith(NOT_SIMULATED):
            continue
        value = counts[name]
        stats[name] = value if isinstance(value, int) else float(f"{value:.6g}")
    return stats


def digest(stats: Dict[str, float]) -> str:
    canonical = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def differing(a: Dict[str, float], b: Dict[str, float]) -> List[str]:
    return [
        f"{name}: {a.get(name)} != {b.get(name)}"
        for name in sorted(set(a) | set(b))
        if a.get(name) != b.get(name)
    ]


# -- comparing two result files ----------------------------------------------
def classify(
    base: Dict[str, object],
    change: Dict[str, object],
    better: str,
    bound: float,
) -> Dict[str, object]:
    """One (workload, metric) pairing of ``--compare``.

    ``regression`` — the change's value is worse than the base's by more
    than the bound.  ``unresolved`` — it is not, but the run-to-run
    quartile spread of either side exceeds the bound, so "no regression"
    cannot be told from noise (unless every sample of the change reads
    better than every sample of the base).  ``within-bound`` otherwise.
    """
    ratio = change["value"] / base["value"]
    worse_by = (change["value"] - base["value"]) / base["value"]
    if better == "higher":
        worse_by = -worse_by
    noise = max(spread(base["samples"]), spread(change["samples"]))
    if better == "lower":
        separated = max(change["samples"]) < min(base["samples"])
    else:
        separated = min(change["samples"]) > max(base["samples"])
    if worse_by > bound:
        status = "regression"
    elif noise > bound and not separated:
        status = "unresolved"
    else:
        status = "within-bound"
    return {
        "status": status,
        "ratio": ratio,
        "worse_by": worse_by,
        "spread": noise,
        "base_quartiles": quartiles(base["samples"]),
        "change_quartiles": quartiles(change["samples"]),
    }
