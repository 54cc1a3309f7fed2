"""Benchmark: Figure 11 — sharing the interconnection fabric."""

from scale import FULL_SCALE, N_USERS
from repro.experiments.fig11 import (
    PAPER_RANGES,
    rtt_curve,
    users_at_rtt,
)
from repro.workloads.apps import BENCHMARK_APPS

# The full sweeps take minutes; the default bench uses coarser grids.
SWEEPS = (
    {
        "Photoshop": (40, 80, 110, 130, 145, 160),
        "Netscape": (40, 80, 110, 130, 145, 160),
        "FrameMaker": (120, 250, 350, 420, 470, 520),
        "PIM": (120, 250, 350, 420, 470, 520),
    }
    if FULL_SCALE
    else {
        "Photoshop": (60, 100, 140),
        "Netscape": (60, 110, 150),
        "FrameMaker": (200, 350, 470),
        "PIM": (200, 380, 500),
    }
)
SIM = 40.0 if FULL_SCALE else 20.0


def test_fig11_network_yardstick_crossings(benchmark):
    def run():
        crossings = {}
        for name, app in BENCHMARK_APPS.items():
            curve = rtt_curve(
                app, SWEEPS[name], sim_seconds=SIM, study_users=N_USERS
            )
            crossings[name] = (users_at_rtt(curve), curve)
        return crossings

    crossings = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, (crossing, curve) in crossings.items():
        lo, hi = PAPER_RANGES[name]
        label = f"{crossing:.0f}" if crossing else f">{curve[-1][0]}"
        benchmark.extra_info[name] = f"{label} users @30ms (paper {lo}-{hi})"
    # Shape: text apps sustain far more users than image apps, and both
    # are an order of magnitude beyond the Figure 9 CPU crossings.
    image_xs = [
        crossings[name][0]
        for name in ("Photoshop", "Netscape")
        if crossings[name][0] is not None
    ]
    text_xs = [
        crossings[name][0]
        for name in ("FrameMaker", "PIM")
        if crossings[name][0] is not None
    ]
    assert image_xs, "image apps never crossed 30ms in the sweep"
    assert min(image_xs) > 50  # vs ~12 users on the CPU
    if text_xs:
        assert max(text_xs) > 2 * min(image_xs)
