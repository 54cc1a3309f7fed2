"""Capacity planning for a SLIM workgroup server.

The sharing results (Figures 9-12) as a planner: describe the user
population and get a server sizing plus a simulated check of the
interactive yardstick on that sizing::

    python -m repro.tools.capacity --users Netscape=10 PIM=20
    python -m repro.tools.capacity --users Photoshop=8 --cpus 2 --simulate
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Tuple

from repro.errors import ReproError, WorkloadError
from repro.experiments.fig9 import POOR_THRESHOLD, yardstick_latency
from repro.tools import run_cli
from repro.units import MBPS
from repro.workloads.apps import BENCHMARK_APPS
from repro.workloads.mixes import WorkgroupMix


def parse_users(specs: List[str]) -> WorkgroupMix:
    """Parse ['Netscape=10', 'PIM=20'] into a mix."""
    counts: List[Tuple[str, int]] = []
    for spec in specs:
        if "=" not in spec:
            raise ReproError(f"expected App=count, got {spec!r}")
        name, _, count_text = spec.partition("=")
        try:
            count = int(count_text)
        except ValueError as exc:
            raise ReproError(f"bad count in {spec!r}") from exc
        counts.append((name, count))
    try:
        return WorkgroupMix("cli", tuple(counts))
    except WorkloadError as exc:
        raise ReproError(str(exc)) from exc


def plan(
    mix: WorkgroupMix,
    cpus: int = 0,
    simulate: bool = False,
    duration: float = 120.0,
    sim_seconds: float = 45.0,
) -> Dict[str, object]:
    """Produce the sizing report (and optional simulated check)."""
    suggested = mix.estimated_cpus_needed()
    chosen = cpus or suggested
    report: Dict[str, object] = {
        "users": mix.total_users,
        "demand_ref_cpus": mix.mean_cpu_demand(),
        "memory_mb": mix.mean_memory_mb(),
        "suggested_cpus": suggested,
        "chosen_cpus": chosen,
    }
    if simulate:
        profiles = mix.build_profiles(duration=duration)
        added = yardstick_latency(
            profiles,
            n_users=len(profiles),
            num_cpus=chosen,
            sim_seconds=sim_seconds,
        )
        report["yardstick_added_ms"] = added * 1000
        report["interactive_ok"] = added < POOR_THRESHOLD
        bandwidth = sum(p.mean_bandwidth_bps() for p in profiles)
        report["display_traffic_mbps"] = bandwidth / MBPS
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.capacity",
        description="Size a SLIM server for a workgroup.",
    )
    parser.add_argument(
        "--users",
        nargs="+",
        required=True,
        metavar="APP=N",
        help=f"population, apps: {', '.join(BENCHMARK_APPS)}",
    )
    parser.add_argument("--cpus", type=int, default=0, help="override CPU count")
    parser.add_argument(
        "--simulate",
        action="store_true",
        help="run the yardstick check on the sizing (slower)",
    )
    args = parser.parse_args(argv)

    mix = parse_users(args.users)
    report = plan(mix, cpus=args.cpus, simulate=args.simulate)
    print(
        f"{report['users']} users: demand {report['demand_ref_cpus']:.2f} "
        f"reference CPUs, ~{report['memory_mb']:.0f} MB resident"
    )
    print(
        f"suggested sizing: {report['suggested_cpus']} CPU(s); "
        f"planning for {report['chosen_cpus']}"
    )
    if args.simulate:
        verdict = "OK" if report["interactive_ok"] else "POOR"
        print(
            f"simulated yardstick: +{report['yardstick_added_ms']:.0f} ms "
            f"per event -> interactive service {verdict} "
            f"(limit {POOR_THRESHOLD * 1000:.0f} ms)"
        )
        print(
            f"display traffic: {report['display_traffic_mbps']:.2f} Mbps "
            "aggregate (a 100 Mbps IF is not the constraint)"
        )
    return 0


if __name__ == "__main__":
    run_cli(main)
