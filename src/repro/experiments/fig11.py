"""Figure 11: sharing the interconnection fabric (Section 6.2).

Three nodes on a switch: an active console running the network yardstick
(64 B request up, 1200 B response down, 150 ms think), a server, and a
sink.  The server plays back the network portion of N users' resource
profiles toward the sink, so the server's link is shared by measured and
background traffic — the contention point.

The paper found the system usable until yardstick round-trip delay hit
~30 ms (at which point packet loss also set in), reached at roughly
130-140 Photoshop/Netscape users or 400-450 Frame Maker/PIM users — the
network sustains an order of magnitude more users than the processor.

Calibration note: those crossing counts imply per-active-user traffic of
roughly 0.6 Mbps (image apps) / 0.2 Mbps (text apps) — the 100 Mbps
server link saturates near the knee.  Our simulated studies measure
lower averages (Figure 8), so the experiment runs the background load at
a per-app scale factor that reproduces the paper's implied intensity,
and also reports the unscaled saturation estimate.  Either way the
paper's headline — link capacity, not switching or latency, limits
sharing, at ~10x the processor's user count — emerges from the fabric
simulation.

Known miss: Photoshop knees below the paper's band, and well before
Netscape, though both run at the same paper-implied mean rate: its
traffic is lumpier, and its rare huge image operations queue at the
shared link where Netscape's steadier stream does not.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.analysis.stats import crossing
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    experiment,
    sweep,
)
from repro.experiments import userstudy
from repro.loadgen.generator import NetworkLoadGenerator, TrafficPattern
from repro.loadgen.yardstick import yardstick_rig
from repro.netsim.transport import Endpoint
from repro.units import ETHERNET_100, MBPS
from repro.workloads.apps import BENCHMARK_APPS, AppProfile
from repro.workloads.session import ResourceProfile

#: "response time suffered greatly" past this round-trip delay.
POOR_RTT = 0.030

DEFAULT_SIM_SECONDS = 40.0

#: Per-active-user traffic implied by the paper's crossing counts.
PAPER_IMPLIED_BPS = {
    "Photoshop": 0.63 * MBPS,
    "Netscape": 0.63 * MBPS,
    "FrameMaker": 0.21 * MBPS,
    "PIM": 0.21 * MBPS,
}

PAPER_RANGES = {
    "Photoshop": (130, 140),
    "Netscape": (130, 140),
    "FrameMaker": (400, 450),
    "PIM": (400, 450),
}

DEFAULT_SWEEPS: Dict[str, Tuple[int, ...]] = {
    "Photoshop": (40, 80, 110, 130, 145, 160),
    "Netscape": (40, 80, 110, 130, 145, 160),
    "FrameMaker": (120, 250, 350, 420, 470, 520),
    "PIM": (120, 250, 350, 420, 470, 520),
}


def yardstick_rtt(
    profiles: Sequence[ResourceProfile],
    n_users: int,
    sim_seconds: float = DEFAULT_SIM_SECONDS,
    seed: int = 11,
    rate_bps: float = ETHERNET_100,
    scale: float = 1.0,
) -> Tuple[float, float]:
    """(mean RTT seconds, loss rate) with ``n_users`` of background load."""
    sim, network, yardstick = yardstick_rig(
        rate_bps,
        warmup=5.0,
        # A bounded switch buffer on the contended link: past saturation,
        # packets drop (the paper observed loss at the breaking point).
        server={"queue_limit_bytes": 512 * 1024},
    )
    network.attach(Endpoint("sink"))
    rng = np.random.default_rng(seed)
    for index in range(n_users):
        profile = profiles[index % len(profiles)]
        generator = NetworkLoadGenerator(
            sim,
            network,
            src="server",
            dst="sink",
            profile=profile,
            # An active user at the paper's intensity paints several
            # updates per second; bursts stay near real update sizes.
            pattern=TrafficPattern(updates_per_second=5.0, active_fraction=0.9),
            rng=np.random.default_rng(rng.integers(0, 2**63)),
            flow=f"bg{index}",
            scale=scale,
        )
        generator.start()
    yardstick.start()
    sim.run_until(sim_seconds)
    # Total loss (the shared link saturated, the switch buffer never
    # drains) is an unbounded delay.
    return yardstick.mean_rtt(), yardstick.loss_rate()


def measured_per_user_bps(profiles: Sequence[ResourceProfile]) -> float:
    """Mean per-user background bandwidth of a profile set."""
    return float(np.mean([p.mean_bandwidth_bps() for p in profiles]))


def rtt_at(
    app: AppProfile,
    n_users: int,
    sim_seconds: float = DEFAULT_SIM_SECONDS,
    study_users: int = userstudy.DEFAULT_N_USERS,
) -> float:
    """One Figure 11 point: the yardstick's mean RTT (s) among
    ``n_users`` of ``app``'s study, boosted to the paper-implied
    per-user intensity."""
    _traces, profiles = userstudy.get_study(app, n_users=study_users)
    scale = PAPER_IMPLIED_BPS[app.name] / measured_per_user_bps(profiles)
    return yardstick_rtt(profiles, n_users, sim_seconds=sim_seconds, scale=scale)[0]


@experiment(
    "fig11",
    title="Network yardstick RTT vs active users on a shared IF",
    section="6.2",
)
def run(config: ExperimentConfig) -> ExperimentResult:
    sim_seconds = config.get("duration", DEFAULT_SIM_SECONDS)
    per_user = {
        name: measured_per_user_bps(userstudy.get_study(BENCHMARK_APPS[name])[1])
        for name in DEFAULT_SWEEPS
    }
    cells = [(name, n) for name, counts in DEFAULT_SWEEPS.items() for n in counts]

    def cell(params: Tuple[str, int]) -> float:
        name, n_users = params
        return rtt_at(BENCHMARK_APPS[name], n_users, sim_seconds=sim_seconds)

    rtts = dict(zip(cells, sweep(cells, cell)))
    rows = []
    for name, counts in DEFAULT_SWEEPS.items():
        curve = [(n, rtts[name, n]) for n in counts]
        users = crossing(curve, POOR_RTT)
        lo, hi = PAPER_RANGES[name]
        unscaled_knee = (
            0.95 * ETHERNET_100 / per_user[name] if per_user[name] > 0 else float("inf")
        )
        rows.append(
            {
                "application": name,
                "users @30ms": round(users) if users else f">{curve[-1][0]}",
                "paper range": f"{lo}-{hi}",
                "unscaled knee (est users)": round(unscaled_knee),
                "curve": "  ".join(f"{n}:{rtt * 1000:.1f}ms" for n, rtt in curve),
            }
        )
    return ExperimentResult(
        experiment_id="fig11",
        title="Network yardstick RTT vs active users on a shared IF",
        rows=rows,
        notes=[
            "yardstick: 64B up / 1200B down / 150ms think; background "
            "traffic replays the user studies' network profiles into the "
            "shared server link at the paper-implied per-user intensity",
            "paper: the network sustains an order of magnitude more users "
            "than the processor; loss sets in at the knee",
        ],
    )

