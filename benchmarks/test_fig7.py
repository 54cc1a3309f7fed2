"""Benchmark: Figure 7 — console display-update service times."""

from scale import DURATION, N_USERS
from repro.experiments.fig7 import service_time_cdfs


def test_fig7_console_service_times(benchmark):
    cdfs = benchmark.pedantic(
        lambda: service_time_cdfs(n_users=N_USERS, duration=DURATION),
        rounds=1,
        iterations=1,
    )
    for name, cdf in cdfs.items():
        benchmark.extra_info[name] = (
            f"<50ms {cdf.fraction_below(0.05) * 100:.1f}% (paper >=80%), "
            f">100ms {cdf.fraction_above(0.1) * 100:.2f}%"
        )
        assert cdf.fraction_below(0.050) > 0.80
