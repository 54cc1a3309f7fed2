"""Benchmarks: Figures 9-10 — processor sharing with the CPU yardstick."""

from scale import N_USERS, SIM_SECONDS
from repro.experiments.fig9 import (
    DEFAULT_SWEEPS,
    PAPER_RANGES,
    latency_curve,
    users_at_threshold,
)
from repro.experiments.fig10 import scaling_surface
from repro.workloads.apps import BENCHMARK_APPS


def test_fig9_users_per_cpu_at_100ms(benchmark):
    def run():
        crossings = {}
        for name, app in BENCHMARK_APPS.items():
            curve = latency_curve(
                app,
                DEFAULT_SWEEPS[name],
                sim_seconds=SIM_SECONDS,
                study_users=N_USERS,
            )
            crossings[name] = users_at_threshold(curve)
        return crossings

    crossings = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, crossing in crossings.items():
        lo, hi = PAPER_RANGES[name]
        benchmark.extra_info[name] = (
            f"{crossing:.1f} users @100ms (paper {lo}-{hi})"
            if crossing
            else "no crossing in sweep"
        )
        assert crossing is not None, name
        # Shape: within the paper's band, allowing for the stochastic
        # user population at reduced study scale.
        assert 0.5 * lo <= crossing <= 1.75 * hi, name
    # Ordering: PIM >> FrameMaker > image apps.
    assert crossings["PIM"] > crossings["FrameMaker"]
    assert crossings["FrameMaker"] > 0.9 * crossings["Netscape"]


def test_fig10_multiprocessor_scaling(benchmark):
    surface = benchmark.pedantic(
        lambda: scaling_surface(sim_seconds=SIM_SECONDS, study_users=N_USERS),
        rounds=1,
        iterations=1,
    )
    for cpus, curve in surface.items():
        benchmark.extra_info[f"{cpus} CPUs"] = "  ".join(
            f"{per}/cpu:{lat * 1000:.0f}ms" for per, lat in curve
        )
    # More CPUs never do worse at equal users-per-CPU (paper: slightly
    # better, "better able to find a free CPU").
    for column in range(len(next(iter(surface.values())))):
        lat_1 = surface[1][column][1]
        lat_8 = surface[8][column][1]
        assert lat_8 < lat_1 * 1.1
