"""Fleet-scale provisioning: a campus of workgroups over one diurnal day.

The paper answers the workgroup question — how many SLIM consoles one
server sustains (Sections 6.1-6.3).  This experiment asks the campus
question from Gray's *Locally Served Network Computers*: given tens of
thousands of desktops spread across workgroup subtrees, what does the
server tier have to look like at the diurnal peak?

The model composes two existing pieces:

* population blends from :mod:`repro.workloads.mixes` (office, design,
  lab workgroups, scaled to the target desktop count), and
* the diurnal presence/activity machinery of
  :mod:`repro.monitor.casestudy` (AR(1) presence tracking a daily
  intensity curve, binomially-thinned active users, lognormal burst
  noise that partially cancels across users).

Every workgroup is served locally, so no workgroup sends another
anything: the campus runs as :data:`SLICES` independent slices through
:func:`~repro.experiments.runner.sweep`, each on a simulator of its own.
Each workgroup samples its own demand on its own RNG stream (seeded by
``(seed, workgroup_id)``, never by slice) and reports per-window maxima
keyed by ``(window, workgroup)``; the fleet curve iterates those keys
in sorted order, so it is the same whichever slice ran first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    experiment,
    sweep,
)
from repro.monitor.casestudy import ENGINEERING_GROUP, UNIVERSITY_LAB, SiteModel
from repro.netsim.engine import Simulator
from repro.obs.slo import SloSpec
from repro.obs.timeseries import RunSeries
from repro.runcontext import current_run
from repro.server.host import E4500
from repro.telemetry.metrics import get_registry
from repro.units import MBPS
from repro.workloads.mixes import DESIGN_MIX, LAB_MIX, OFFICE_MIX, WorkgroupMix

#: Workgroup ``w`` runs in slice ``w % SLICES``.  A constant, not a
#: knob: the rows do not depend on it, but how the slices' series merge
#: (the ``--timeseries`` output) does.
SLICES = 4

#: Planning headroom, matching :meth:`WorkgroupMix.estimated_cpus_needed`.
PROVISION_HEADROOM = 0.5

#: Workgroup archetypes cycle through the campus...
_MIX_CYCLE: Tuple[WorkgroupMix, ...] = (OFFICE_MIX, DESIGN_MIX, LAB_MIX)
#: ...and so do the diurnal shapes (lab-like vs office-like days).
_SITE_CYCLE: Tuple[SiteModel, ...] = (ENGINEERING_GROUP, UNIVERSITY_LAB)


@dataclass(frozen=True)
class FleetSpec:
    """One fleet simulation, fully pinned by plain picklable data.

    Attributes:
        n_workgroups: Workgroup (= switch subtree) count.
        scale: Population multiplier applied to each archetype mix.
        seed: Root RNG seed; workgroup ``w`` streams from ``(seed, w)``.
        duration: Simulated seconds (a diurnal day is 86400).
        sample_interval: Demand sampling cadence, seconds.
        report_window: Per-window maxima cadence (the paper's five-minute
            reporting idiom).
    """

    n_workgroups: int = 160
    scale: float = 1.0
    seed: int = 2026
    duration: float = 24 * 3600.0
    sample_interval: float = 60.0
    report_window: float = 300.0

    def __post_init__(self) -> None:
        if self.n_workgroups < 1:
            raise SimulationError("fleet needs at least one workgroup")
        if self.sample_interval <= 0 or self.report_window < self.sample_interval:
            raise SimulationError(
                "need 0 < sample_interval <= report_window"
            )

    @property
    def n_windows(self) -> int:
        return int(math.ceil(self.duration / self.report_window - 1e-9))

    def workgroup_mix(self, workgroup_id: int) -> WorkgroupMix:
        base = _MIX_CYCLE[workgroup_id % len(_MIX_CYCLE)]
        if self.scale == 1.0:
            return base
        return base.scaled(self.scale)

    def workgroup_site(self, workgroup_id: int) -> SiteModel:
        return _SITE_CYCLE[workgroup_id % len(_SITE_CYCLE)]

    def total_desktops(self) -> int:
        return sum(
            self.workgroup_mix(w).total_users for w in range(self.n_workgroups)
        )


def fleet_spec(
    n_desktops: int = 10_240,
    n_workgroups: int = 160,
    seed: int = 2026,
    duration: float = 24 * 3600.0,
    sample_interval: float = 60.0,
    report_window: float = 300.0,
) -> FleetSpec:
    """Size a spec to approximately ``n_desktops`` total terminals."""
    base_total = sum(
        _MIX_CYCLE[w % len(_MIX_CYCLE)].total_users for w in range(n_workgroups)
    )
    return FleetSpec(
        n_workgroups=n_workgroups,
        scale=max(n_desktops / base_total, 1e-3),
        seed=seed,
        duration=duration,
        sample_interval=sample_interval,
        report_window=report_window,
    )


class _Workgroup:
    """One switch subtree's demand process (lives inside a slice).

    Mirrors :func:`repro.monitor.casestudy.simulate_day`: an AR(1)
    presence tracker follows the site's daily curve, a binomial thinning
    picks the actively-computing subset, and lognormal burst noise with
    relative sigma ``sigma / sqrt(n)`` models partially-cancelling
    per-user bursts.  Every ``report_window`` the window maxima go into
    ``reports`` under ``(window, workgroup)``.
    """

    #: AR(1) tracking coefficient per sample (casestudy uses 0.02 at a
    #: 10 s cadence; this is the equivalent pull at 60 s).
    TRACK = 0.11

    def __init__(
        self,
        sim: Simulator,
        spec: FleetSpec,
        workgroup_id: int,
        reports: Dict[Tuple[int, int], Dict[str, Any]],
    ):
        self.sim = sim
        self.spec = spec
        self.reports = reports
        self.workgroup_id = workgroup_id
        mix = spec.workgroup_mix(workgroup_id)
        site = spec.workgroup_site(workgroup_id)
        self.mix_name = _MIX_CYCLE[workgroup_id % len(_MIX_CYCLE)].name
        self.n_desktops = mix.total_users
        self.cpu_per_active = mix.mean_cpu_demand() / mix.total_users
        self.net_per_active = site.net_bps_per_active
        self.presence = site.presence
        self.activity = site.activity
        self.sigma = site.burstiness_sigma
        # Seeded by identity, never by slice: the stream is the same
        # whichever slice this workgroup runs in.
        self.rng = np.random.default_rng([spec.seed, workgroup_id])
        self.current_present = 0.0
        self.samples = 0
        self.active_total = 0
        self._window: Optional[int] = None
        self._reset_maxima()
        m = get_registry()
        self._m_samples = self._m_active = None
        if m.enabled:
            self._m_samples = m.counter("fleet.samples", mix=self.mix_name)
            self._m_active = m.histogram("fleet.active_users")
        sim.schedule_at(0.0, self._sample)

    def _reset_maxima(self) -> None:
        self.max_present = 0.0
        self.max_active = 0
        self.max_cpu = 0.0
        self.max_net_mbps = 0.0

    def _flush(self) -> None:
        if self._window is None:
            return
        self.reports[(self._window, self.workgroup_id)] = {
            "mix": self.mix_name,
            "desktops": self.n_desktops,
            "present": round(self.max_present, 6),
            "active": self.max_active,
            "cpu": round(self.max_cpu, 6),
            "net_mbps": round(self.max_net_mbps, 6),
        }
        self._reset_maxima()

    def _sample(self) -> None:
        now = self.sim.now
        window = int(now / self.spec.report_window + 1e-9)
        if self._window is not None and window != self._window:
            self._flush()
        self._window = window

        hour = (now / 3600.0) % 24.0
        target = self.presence(hour) * self.n_desktops
        self.current_present += self.TRACK * (
            target - self.current_present
        ) + float(self.rng.normal(0, 0.25))
        self.current_present = float(
            np.clip(self.current_present, 0.0, self.n_desktops)
        )
        active = int(
            self.rng.binomial(
                int(round(self.current_present)),
                min(1.0, self.activity(hour)),
            )
        )
        cpu = net_mbps = 0.0
        if active > 0:
            sigma = self.sigma / math.sqrt(active)
            burst = max(0.2, float(self.rng.lognormal(0.0, sigma)))
            cpu = active * self.cpu_per_active * burst
            net_burst = max(0.2, float(self.rng.lognormal(0.0, sigma * 1.5)))
            net_mbps = active * self.net_per_active * net_burst / MBPS

        self.max_present = max(self.max_present, self.current_present)
        self.max_active = max(self.max_active, active)
        self.max_cpu = max(self.max_cpu, cpu)
        self.max_net_mbps = max(self.max_net_mbps, net_mbps)
        self.samples += 1
        self.active_total += active

        if self._m_samples is not None:
            self._m_samples.inc()
            self._m_active.observe(active)

        next_time = now + self.spec.sample_interval
        if next_time < self.spec.duration - 1e-9:
            self.sim.schedule_at(next_time, self._sample)
        else:
            self._flush()


def run_slice(spec: FleetSpec, index: int) -> Dict[str, Any]:
    """Slice ``index`` of the campus — workgroups ``w`` with
    ``w % SLICES == index`` — on a simulator of its own, driven to the
    instant the fleet's trailing windows close: its reports, and how
    many demand samples it took with their sum of active users."""
    sim = Simulator()
    reports: Dict[Tuple[int, int], Dict[str, Any]] = {}
    workgroups = [
        _Workgroup(sim, spec, workgroup_id, reports)
        for workgroup_id in range(index, spec.n_workgroups, SLICES)
    ]
    sim.run_until(spec.duration + 2 * spec.sample_interval)
    return {
        "reports": reports,
        "samples": sum(w.samples for w in workgroups),
        "active": sum(w.active_total for w in workgroups),
    }


class FleetAggregator:
    """The slices' reports merged: order-insensitive per-window cells.

    Reports are keyed by ``(window, workgroup)``; every derived figure
    iterates the cells in sorted key order, so the output is a pure
    function of cell *contents* — which slice finished first cannot leak
    into the results.
    """

    def __init__(self, slices: List[Dict[str, Any]]) -> None:
        self.cells: Dict[Tuple[int, int], Dict[str, Any]] = {}
        for result in slices:
            self.cells.update(result["reports"])
        #: Demand samples taken fleet-wide, and their sum of active users.
        self.samples = sum(result["samples"] for result in slices)
        self.active_total = sum(result["active"] for result in slices)

    # -- derived fleet curve ---------------------------------------------------
    def window_totals(self) -> List[Dict[str, float]]:
        totals: Dict[int, Dict[str, float]] = {}
        for (window, _workgroup), cell in sorted(self.cells.items()):
            row = totals.setdefault(
                window,
                {"window": window, "present": 0.0, "active": 0,
                 "cpu": 0.0, "net_mbps": 0.0},
            )
            row["present"] += cell["present"]
            row["active"] += cell["active"]
            row["cpu"] += cell["cpu"]
            row["net_mbps"] += cell["net_mbps"]
        return [totals[window] for window in sorted(totals)]

    def mix_summary(self) -> List[Dict[str, Any]]:
        by_mix: Dict[str, Dict[str, Any]] = {}
        per_mix_windows: Dict[Tuple[str, int], Dict[str, float]] = {}
        workgroups: Dict[str, set] = {}
        for (window, workgroup), cell in sorted(self.cells.items()):
            mix = cell["mix"]
            workgroups.setdefault(mix, set()).add(workgroup)
            row = per_mix_windows.setdefault(
                (mix, window), {"active": 0, "cpu": 0.0, "net_mbps": 0.0}
            )
            row["active"] += cell["active"]
            row["cpu"] += cell["cpu"]
            row["net_mbps"] += cell["net_mbps"]
            by_mix.setdefault(mix, {"desktops": {}})["desktops"][workgroup] = (
                cell["desktops"]
            )
        summaries = []
        for mix in sorted(by_mix):
            windows = [
                row for (m, _w), row in sorted(per_mix_windows.items())
                if m == mix
            ]
            summaries.append(
                {
                    "mix": mix,
                    "workgroups": len(workgroups[mix]),
                    "desktops": sum(by_mix[mix]["desktops"].values()),
                    "peak active": max(r["active"] for r in windows),
                    "peak cpu (ref)": round(
                        max(r["cpu"] for r in windows), 2
                    ),
                    "peak Mbps": round(
                        max(r["net_mbps"] for r in windows), 2
                    ),
                }
            )
        return summaries


def provisioning_rows(
    aggregator: FleetAggregator, spec: FleetSpec
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """The experiment's table: per-mix peaks plus the fleet answer."""
    totals = aggregator.window_totals()
    if not totals:
        raise SimulationError("fleet produced no demand reports")
    peak_cpu = max(row["cpu"] for row in totals)
    peak_row = max(totals, key=lambda row: (row["active"], -row["window"]))
    peak_net = max(row["net_mbps"] for row in totals)
    # Mirror WorkgroupMix.estimated_cpus_needed: each reference CPU may
    # run 1 + headroom oversubscribed before interactivity suffers.
    cpus_needed = max(
        1, int(math.ceil(peak_cpu / (1.0 + PROVISION_HEADROOM)))
    )
    capacity_per_server = E4500.num_cpus * E4500.speed_factor
    servers = max(1, int(math.ceil(cpus_needed / E4500.num_cpus)))

    rows = list(aggregator.mix_summary())
    rows.append(
        {
            "mix": "fleet",
            "workgroups": spec.n_workgroups,
            "desktops": spec.total_desktops(),
            "peak active": peak_row["active"],
            "peak cpu (ref)": round(peak_cpu, 2),
            "peak Mbps": round(peak_net, 2),
            "peak hour": round(
                (peak_row["window"] + 1) * spec.report_window / 3600.0, 2
            ),
            "CPUs needed": cpus_needed,
            "servers (E4500)": servers,
        }
    )
    notes = [
        f"{spec.n_workgroups} workgroups, {spec.total_desktops()} desktops, "
        f"{len(totals)} windows of {spec.report_window:.0f}s "
        f"({spec.sample_interval:.0f}s samples)",
        "provisioning assumes 1.5x interactive oversubscription per "
        f"reference CPU (headroom {PROVISION_HEADROOM}); one E4500 = "
        f"{capacity_per_server:.1f} reference CPUs",
    ]
    return rows, notes


def fleet_window_series(
    aggregator: FleetAggregator, spec: FleetSpec, specs: Sequence[SloSpec]
) -> RunSeries:
    """The fleet demand curve as a gauge time-series, graded against
    ``specs`` as it is built.

    One window per ``report_window``, carrying the fleet-wide per-window
    maxima as gauges (``fleet.cpu``, ``fleet.active``, ``fleet.net_mbps``)
    so the dashboard and the series' grader see the same numbers as the
    provisioning table.
    """
    run = RunSeries("fleet/windows", window=spec.report_window, specs=specs)
    for row in aggregator.window_totals():
        t0 = row["window"] * spec.report_window
        run.append_window(
            {
                "t0": t0,
                "t1": t0 + spec.report_window,
                "counters": {},
                "gauges": {
                    "fleet.cpu": row["cpu"],
                    "fleet.active": float(row["active"]),
                    "fleet.net_mbps": row["net_mbps"],
                },
                "histograms": {},
            }
        )
    return run


def fleet_capacity_slos(cpus_needed: int) -> List[SloSpec]:
    """Capacity SLOs for a fleet provisioned at ``cpus_needed`` CPUs.

    * ``fleet_capacity`` — demand never exceeds the oversubscribed
      capacity the provisioning row promises (zero violation budget: by
      construction ``cpus_needed`` covers the observed peak, so any
      violation means the table and the series disagree).
    * ``fleet_headroom`` — demand stays within the *un*-oversubscribed
      CPU count most of the day; the 30% budget tolerates the diurnal
      peak hours that the 1.5x oversubscription exists to absorb.
    """
    capacity = cpus_needed * (1.0 + PROVISION_HEADROOM)
    return [
        SloSpec(
            name="fleet_capacity",
            metric="fleet.cpu",
            kind="gauge",
            threshold=capacity,
            op="<=",
            budget=0.0,
            event="capacity_exceeded",
            description=(
                f"fleet CPU demand within provisioned capacity "
                f"({capacity:.1f} ref-CPUs)"
            ),
        ),
        SloSpec(
            name="fleet_headroom",
            metric="fleet.cpu",
            kind="gauge",
            threshold=float(cpus_needed),
            op="<=",
            budget=0.30,
            event="headroom_burn",
            description=(
                f"demand within the un-oversubscribed CPU count "
                f"({cpus_needed}) outside peak hours"
            ),
        ),
    ]


def run_fleet(spec: FleetSpec) -> FleetAggregator:
    """The campus, its :data:`SLICES` slices side by side."""
    return FleetAggregator(
        sweep(range(SLICES), lambda index: run_slice(spec, index))
    )


@experiment(
    "fleet_scale",
    title="Fleet-scale provisioning across locally served workgroups",
    section="6.4",
)
def run(config: ExperimentConfig) -> ExperimentResult:
    n_desktops = config.get("n_users", 10_240)
    spec = fleet_spec(
        n_desktops=n_desktops,
        seed=config.get("seed", 2026),
        duration=config.get("duration", 24 * 3600.0),
    )
    recorder = current_run().recorder
    if recorder is not None:
        recorder.note(f"fleet_scale/{n_desktops}d")
    aggregator = run_fleet(spec)
    rows, notes = provisioning_rows(aggregator, spec)
    notes.append(
        f"{SLICES} independent slices (workgroup w in slice w % {SLICES}); "
        f"{aggregator.samples} demand samples, mean "
        f"{aggregator.active_total / aggregator.samples:.1f} active "
        "users/workgroup"
    )

    # While sampling, publish the fleet demand curve as its own run,
    # graded against the capacity SLOs in the table: the run's verdict,
    # a record's and --slo's, is the one this column prints.
    sampling = current_run().collection
    fleet_row = rows[-1]
    if sampling is not None:
        specs = fleet_capacity_slos(fleet_row["CPUs needed"])
        series = fleet_window_series(aggregator, spec, specs)
        sampling.adopt_run(series)
        fleet_row["SLO"] = "; ".join(
            f"{result.spec.split('_', 1)[1]} {result.ok_windows}/{result.windows} "
            + ("ok" if result.compliant else "VIOL")
            for result in series.grader.results()
        ) or "n/a"
        notes.append(
            "SLO column grades the fleet curve: capacity = provisioned "
            f"{fleet_row['CPUs needed']} CPUs x 1.5 oversubscription "
            "(zero budget), headroom = the raw CPU count with a 30% "
            "budget for peak hours"
        )
    return ExperimentResult(
        experiment_id="fleet_scale",
        title="Fleet-scale provisioning across locally served workgroups",
        rows=rows,
        notes=notes,
    )
