"""Figure 10: multiprocessor scaling of the sharing experiment.

Netscape load playback with 1-8 active CPUs and a proportional number of
active users, reported as added yardstick latency vs *users per
processor*.  The paper's findings:

* the system scales almost linearly — no visible contention collapse;
* at the same users-per-CPU figure, configurations with more processors
  do slightly better, "because a multiprocessor system is better able to
  find a free CPU when one is required".
"""

from __future__ import annotations

from typing import Tuple

from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    experiment,
    sweep,
)
from repro.experiments import userstudy
from repro.experiments.fig9 import yardstick_latency
from repro.workloads.apps import NETSCAPE

DEFAULT_CPU_COUNTS = (1, 2, 4, 8)
DEFAULT_USERS_PER_CPU = (6, 10, 13)


@experiment(
    "fig10",
    title="Netscape yardstick latency vs users per CPU (1-8 CPUs)",
    section="6.1",
)
def run(config: ExperimentConfig) -> ExperimentResult:
    sim_seconds = config.get("duration", 60.0)
    _traces, profiles = userstudy.get_study(NETSCAPE)
    cells = [
        (cpus, per_cpu)
        for cpus in DEFAULT_CPU_COUNTS
        for per_cpu in DEFAULT_USERS_PER_CPU
    ]

    def cell(params: Tuple[int, int]) -> float:
        cpus, per_cpu = params
        return yardstick_latency(
            profiles,
            n_users=per_cpu * cpus,
            num_cpus=cpus,
            sim_seconds=sim_seconds,
        )

    latency = dict(zip(cells, sweep(cells, cell)))
    rows = []
    for cpus in DEFAULT_CPU_COUNTS:
        row = {"CPUs": cpus}
        for per_cpu in DEFAULT_USERS_PER_CPU:
            row[f"{per_cpu} users/cpu (ms)"] = round(latency[cpus, per_cpu] * 1000, 1)
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig10",
        title="Netscape yardstick latency vs users per CPU (1-8 CPUs)",
        rows=rows,
        notes=[
            "paper: near-linear scaling with no contention effects; more "
            "CPUs slightly outperform at equal users-per-CPU (easier to "
            "find a free processor)",
        ],
    )

