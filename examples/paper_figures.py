#!/usr/bin/env python
"""Render the paper's CDF figures as ASCII charts in the terminal.

Runs a small user study, post-processes it the way Sections 5.1-5.3 do,
and draws Figures 2, 3, and 5 (cumulative distributions) plus the
Figure 9 latency curves — no plotting stack needed.

Run:  python examples/paper_figures.py      (~1 minute)
"""

from repro.analysis.textplot import render_cdf, render_series
from repro.experiments.fig2 import frequency_cdfs
from repro.experiments.fig3 import pixel_cdfs
from repro.experiments.fig5 import bytes_cdfs
from repro.experiments.fig9 import latency_at
from repro.workloads.apps import NETSCAPE, PIM

N_USERS = 4
DURATION = 240.0


def latency_curve_ms(app, user_counts):
    """Figure 9's (users, added ms) points for one app on a small study."""
    return [
        (n, latency_at(app, n, sim_seconds=30.0, study_users=N_USERS) * 1000)
        for n in user_counts
    ]


def main() -> None:
    print("Figure 2 — CDF of input event frequency (Hz, log axis)")
    print(render_cdf(frequency_cdfs(n_users=N_USERS, duration=DURATION),
                     x_label="events/second"))
    print()
    print("Figure 3 — CDF of pixels changed per input event (log axis)")
    print(render_cdf(pixel_cdfs(n_users=N_USERS, duration=DURATION),
                     x_label="pixels"))
    print()
    print("Figure 5 — CDF of SLIM bytes per input event (log axis)")
    print(render_cdf(bytes_cdfs(n_users=N_USERS, duration=DURATION),
                     x_label="bytes"))
    print()
    print("Figure 9 (excerpt) — yardstick latency vs users, 1 CPU")
    curves = {
        "Netscape": latency_curve_ms(NETSCAPE, (4, 8, 12, 16)),
        "PIM": latency_curve_ms(PIM, (10, 20, 30, 40)),
    }
    print(render_series(curves, x_label="active users", y_label="added ms"))


if __name__ == "__main__":
    main()
