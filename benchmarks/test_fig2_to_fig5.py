"""Benchmarks: Figures 2-5 — user-study characterisation.

One shared simulated user study feeds all four figures (the paper's own
economy); the first bench to run pays the simulation, the rest hit the
memoised cache, and each records its figure's landmark numbers.
"""

from scale import DURATION, N_USERS
from repro.experiments.fig2 import frequency_cdfs
from repro.experiments.fig3 import pixel_cdfs
from repro.experiments.fig4 import command_breakdown
from repro.experiments.fig5 import bytes_cdfs


def test_fig2_input_event_frequency(benchmark):
    cdfs = benchmark.pedantic(
        lambda: frequency_cdfs(n_users=N_USERS, duration=DURATION),
        rounds=1,
        iterations=1,
    )
    for name, cdf in cdfs.items():
        benchmark.extra_info[name] = (
            f">28Hz {cdf.fraction_above(28) * 100:.2f}% (paper <1%), "
            f"<10Hz {cdf.fraction_below(10) * 100:.1f}% (paper ~70%)"
        )
        assert cdf.fraction_above(28.0) < 0.01


def test_fig3_pixels_per_event(benchmark):
    cdfs = benchmark.pedantic(
        lambda: pixel_cdfs(n_users=N_USERS, duration=DURATION),
        rounds=1,
        iterations=1,
    )
    for name, cdf in cdfs.items():
        benchmark.extra_info[name] = (
            f"<10Kpx {cdf.fraction_below(1e4) * 100:.1f}%, "
            f">50Kpx {cdf.fraction_above(5e4) * 100:.1f}%"
        )
    assert cdfs["Netscape"].fraction_above(5e4) > cdfs["Photoshop"].fraction_above(5e4)


def test_fig4_command_efficiency(benchmark):
    data = benchmark.pedantic(
        lambda: command_breakdown(n_users=N_USERS, duration=DURATION),
        rounds=1,
        iterations=1,
    )
    for name, entry in data.items():
        benchmark.extra_info[name] = f"compression {entry['compression']:.1f}x"
    assert data["Photoshop"]["compression"] < 5.0
    for name in ("Netscape", "FrameMaker", "PIM"):
        assert data[name]["compression"] >= 8.0


def test_fig5_bytes_per_event(benchmark):
    cdfs = benchmark.pedantic(
        lambda: bytes_cdfs(n_users=N_USERS, duration=DURATION),
        rounds=1,
        iterations=1,
    )
    for name, cdf in cdfs.items():
        benchmark.extra_info[name] = (
            f">10KB {cdf.fraction_above(1e4) * 100:.1f}%, "
            f">50KB {cdf.fraction_above(5e4) * 100:.1f}%"
        )
    for name in ("FrameMaker", "PIM"):
        assert cdfs[name].fraction_above(1e4) < 0.03
