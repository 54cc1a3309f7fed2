"""Benchmark: Figure 8 — X vs SLIM vs raw-pixel average bandwidth."""

from scale import DURATION, N_USERS
from repro.experiments.fig8 import bandwidth_table
from repro.units import MBPS


def test_fig8_protocol_bandwidths(benchmark):
    table = benchmark.pedantic(
        lambda: bandwidth_table(n_users=N_USERS, duration=DURATION),
        rounds=1,
        iterations=1,
    )
    for name, bw in table.items():
        benchmark.extra_info[name] = (
            f"X {bw['x'] / MBPS:.3f} / SLIM {bw['slim'] / MBPS:.3f} / "
            f"raw {bw['raw'] / MBPS:.3f} Mbps"
        )
    # Shape assertions: SLIM wins on image apps, X competitive on text
    # apps, raw worst everywhere, order of magnitude between classes.
    for name in ("Photoshop", "Netscape"):
        assert table[name]["x"] > 1.2 * table[name]["slim"]
    for name in ("FrameMaker", "PIM"):
        assert table[name]["x"] < 1.5 * table[name]["slim"]
    for bw in table.values():
        assert bw["raw"] >= bw["slim"]
    image = min(table["Photoshop"]["slim"], table["Netscape"]["slim"])
    text = max(table["FrameMaker"]["slim"], table["PIM"]["slim"])
    assert image > 5 * text
