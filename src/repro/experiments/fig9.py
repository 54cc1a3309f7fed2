"""Figure 9: yardstick latency vs number of active users (one CPU).

The Section 6.1 experiment: a load generator plays back recorded
per-user CPU/memory profiles on a single-CPU server while the yardstick
application (30 ms of processing per event, 150 ms think time — more
demanding than any benchmark application at ~17 % of the CPU) measures
the scheduling delay added to each of its events.

Interactive performance was judged "noticeably poor" at ~100 ms of added
latency, which the paper reports is reached at roughly 10-12 Photoshop,
12-14 Netscape, 16-18 Frame Maker, or 34-36 PIM users — i.e. well past
full CPU utilization, because human-perceived response tolerates
substantial oversubscription.

Known miss: Photoshop crosses later than the paper's band, and later
than Netscape.  Under round-robin scheduling its lower input-event rate
offsets its heavier per-event demand.  The paper's earlier Photoshop
knee likely reflects burst structure (long filter operations) that the
per-user profile model does not carry.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Type

import numpy as np

from repro.analysis.stats import crossing
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    experiment,
    sweep,
)
from repro.experiments import userstudy
from repro.loadgen.yardstick import CPU_YARDSTICK_BURST, CPU_YARDSTICK_THINK
from repro.netsim.engine import Simulator
from repro.server.scheduler import PeriodicTask, ProfilePlaybackTask, Scheduler
from repro.workloads.apps import BENCHMARK_APPS, AppProfile
from repro.workloads.session import ResourceProfile

#: The Figure 9 experiment's server: one 296 MHz CPU of the E4500 row in
#: Table 3 (profiles are already expressed in 296 MHz-CPU units).
DEFAULT_SIM_SECONDS = 90.0
DEFAULT_WARMUP_SECONDS = 10.0
#: "interactive performance was noticeably poor" at this added latency.
POOR_THRESHOLD = 0.100


def yardstick_latency(
    profiles: Sequence[ResourceProfile],
    n_users: int,
    num_cpus: int = 1,
    sim_seconds: float = DEFAULT_SIM_SECONDS,
    seed: int = 7,
    memory_mb: float = 4096.0,
    quantum: float = 0.010,
    burst_seconds: float = 0.020,
    scheduler_class: Type[Scheduler] = Scheduler,
    warmup: float = DEFAULT_WARMUP_SECONDS,
) -> float:
    """Mean added latency (s) of the yardstick among ``n_users`` players.

    ``burst_seconds`` is the granularity the background users' CPU
    demand arrives in — one application event's processing.  Use
    :meth:`AppProfile.typical_burst_seconds` for the app being played.
    The yardstick is marked interactive, which only a
    :class:`~repro.server.priority.PriorityScheduler` reads; its first
    ``warmup`` seconds are not measured.
    """
    sim = Simulator()
    scheduler = scheduler_class(
        sim, num_cpus=num_cpus, quantum=quantum, memory_mb=memory_mb
    )
    rng = np.random.default_rng(seed)
    yardstick = PeriodicTask(
        burst=CPU_YARDSTICK_BURST,
        think=CPU_YARDSTICK_THINK,
        warmup=warmup,
    )
    yardstick.interactive = True
    scheduler.spawn(yardstick)
    for index in range(n_users):
        profile = profiles[index % len(profiles)]
        task = ProfilePlaybackTask(
            name=f"user{index}",
            profile_utilization=profile.cpu,
            interval=profile.interval,
            burst=burst_seconds,
            memory_mb=profile.memory_mb,
            rng=np.random.default_rng(rng.integers(0, 2**63)),
        )
        scheduler.spawn(task)
    sim.run_until(sim_seconds)
    return yardstick.mean_added_latency()


def latency_at(
    app: AppProfile,
    n_users: int,
    sim_seconds: float = DEFAULT_SIM_SECONDS,
    study_users: int = userstudy.DEFAULT_N_USERS,
) -> float:
    """One Figure 9 point: the yardstick's mean added latency (s) among
    ``n_users`` players of ``app``'s study on one CPU."""
    _traces, profiles = userstudy.get_study(app, n_users=study_users)
    return yardstick_latency(
        profiles,
        n_users,
        sim_seconds=sim_seconds,
        burst_seconds=app.typical_burst_seconds(),
    )


#: Sweeps sized to bracket the paper's crossing points.
DEFAULT_SWEEPS: Dict[str, Tuple[int, ...]] = {
    "Photoshop": (2, 6, 9, 12, 15, 18, 21),
    "Netscape": (2, 6, 10, 13, 15, 18),
    "FrameMaker": (4, 10, 15, 17, 20, 24),
    "PIM": (10, 20, 30, 34, 38, 44),
}

#: The paper's reported tolerable ranges.
PAPER_RANGES = {
    "Photoshop": (10, 12),
    "Netscape": (12, 14),
    "FrameMaker": (16, 18),
    "PIM": (34, 36),
}


@experiment("fig9", title="Yardstick added latency vs active users (1 CPU)", section="6.1")
def run(config: ExperimentConfig) -> ExperimentResult:
    sim_seconds = config.get("duration", DEFAULT_SIM_SECONDS)
    for name in DEFAULT_SWEEPS:
        userstudy.get_study(BENCHMARK_APPS[name])  # once, before any cell
    cells = [(name, n) for name, counts in DEFAULT_SWEEPS.items() for n in counts]

    def cell(params: Tuple[str, int]) -> float:
        name, n_users = params
        return latency_at(BENCHMARK_APPS[name], n_users, sim_seconds=sim_seconds)

    latency = dict(zip(cells, sweep(cells, cell)))
    rows = []
    for name, counts in DEFAULT_SWEEPS.items():
        curve = [(n, latency[name, n]) for n in counts]
        users = crossing(curve, POOR_THRESHOLD)
        lo, hi = PAPER_RANGES[name]
        rows.append(
            {
                "application": name,
                "users @100ms": round(users, 1) if users else ">max",
                "paper range": f"{lo}-{hi}",
                "curve": "  ".join(f"{n}:{lat * 1000:.0f}ms" for n, lat in curve),
            }
        )
    return ExperimentResult(
        experiment_id="fig9",
        title="Yardstick added latency vs active users (1 CPU)",
        rows=rows,
        notes=[
            "yardstick: 30ms processing / 150ms think; load generators "
            "play back the user-study CPU+memory profiles",
            "the CPU is significantly oversubscribed at the 100ms point — "
            "good interactive service survives full processor utilization",
        ],
    )

