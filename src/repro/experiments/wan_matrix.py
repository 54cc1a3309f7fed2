"""WAN/mobile adversity matrix: the Fig 8 comparison beyond the LAN.

The paper evaluates SLIM on a dedicated switched 100 Mbps LAN; Gunther's
*X-Files* study shows thin-client interactivity on WANs is dominated by
latency and loss, and VirtuMob targets smartphone-class links.  This
experiment runs the Figure 8 SLIM-vs-X-vs-raw bandwidth machinery across
a matrix of :mod:`repro.netsim.profiles` network profiles × workloads
(the paper's four GUI applications plus a modern scroll-heavy session),
and probes each cell's *interactivity* end to end:

* the cell's display demand is the workload's busy-second SLIM
  bandwidth (the p95 of per-second wire bytes during active use — the
  rate the access link must carry while the user is interacting);
* a paced display stream offers that demand across the profile's access
  link while the Figure 11 network yardstick measures round-trip delay
  through the same bottleneck;
* each cell runs twice: *static* (the paper's fixed allocation — the
  sender just transmits at full demand) and *adaptive* (a
  :class:`~repro.core.bandwidth.TieredAllocator` watches grant shortfall
  and downlink queue pressure and shifts the stream through quality
  tiers, full → progressive → thumbnail, restoring hysteretically).

The LAN row is the control cell: its X/SLIM/raw columns come from the
same memoised user studies as Figure 8, so they are byte-identical to
that experiment's numbers at the default seed, and its probe shows the
sub-millisecond RTTs the paper reports.  The cellular and long-haul
rows are the adversity story: static senders bufferbloat the access
link (hundreds of ms of standing queue, tail drops), while the tiered
sender parks at the highest tier that fits and keeps the probe RTT near
the propagation floor — graceful degradation instead of collapse.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.bandwidth import TieredAllocator
from repro.experiments import userstudy
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    experiment,
)
from repro.loadgen.yardstick import yardstick_rig
from repro.netsim.packet import Packet
from repro.netsim.profiles import PROFILES, NetworkProfile, get_profile
from repro.obs.slo import KEYSTROKE_ECHO, SloEngine
from repro.obs.timeseries import RunSeries
from repro.runcontext import current_run
from repro.units import ETHERNET_1G, MBPS
from repro.workloads.apps import ADVERSITY_APPS

#: Probe RNG seed (the user studies keep their own default seed).
DEFAULT_PROBE_SEED = 42
#: Simulated seconds per matrix cell.
DEFAULT_CELL_SECONDS = 12.0
#: Tier control-loop period (allocator refresh + pressure observation).
CONTROL_INTERVAL = 0.25
#: Display-stream pacing: bursts per second.
UPDATE_HZ = 20.0
#: Display-stream packet size (the Fig 11 "response" MTU).
PACKET_NBYTES = 1200
#: Fraction of the access-link rate the tier policy budgets; the rest is
#: headroom for reverse traffic and protocol overhead.
CAPACITY_HEADROOM = 0.85
#: Busy-second demand percentile (active-use bandwidth, not session mean).
PEAK_PERCENTILE = 95.0


def busy_second_demand_bps(traces, percentile: float = PEAK_PERCENTILE) -> float:
    """The p-``percentile`` of nonzero per-second SLIM wire rates.

    Session means are diluted by think time; the access link has to
    carry the *active* seconds.  Updates are binned into 1 s buckets per
    session and the percentile is taken over all busy buckets.
    """
    rates: List[float] = []
    for trace in traces:
        bins: Dict[int, int] = {}
        for update in trace.updates:
            second = int(update.time)
            bins[second] = bins.get(second, 0) + update.wire_bytes
        rates.extend(nbytes * 8.0 for nbytes in bins.values() if nbytes > 0)
    if not rates:
        return 0.0
    return float(np.percentile(rates, percentile))


def workload_demands(
    n_users: int = userstudy.DEFAULT_N_USERS,
    duration: float = userstudy.DEFAULT_DURATION,
    seed: int = userstudy.DEFAULT_SEED,
    workloads: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-workload x/slim/raw mean bps plus busy-second SLIM demand.

    Uses the same memoised user studies as Figure 8, so the paper apps'
    mean-bandwidth numbers are byte-identical to that experiment's.
    """
    names = list(workloads) if workloads is not None else list(ADVERSITY_APPS)
    out: Dict[str, Dict[str, float]] = {}
    for name in names:
        try:
            app = ADVERSITY_APPS[name]
        except KeyError as exc:
            known = ", ".join(sorted(ADVERSITY_APPS))
            raise KeyError(
                f"unknown workload {name!r} (known: {known})"
            ) from exc
        traces, _profiles = userstudy.get_study(
            app, n_users=n_users, duration=duration, seed=seed
        )
        out[name] = {
            "x": float(np.mean([t.mean_x_bandwidth_bps() for t in traces])),
            "slim": float(np.mean([t.mean_bandwidth_bps() for t in traces])),
            "raw": float(np.mean([t.mean_raw_bandwidth_bps() for t in traces])),
            "demand": busy_second_demand_bps(traces),
        }
    return out


class CellProbe:
    """One matrix cell's interactivity measurement."""

    def __init__(
        self,
        profile: NetworkProfile,
        demand_bps: float,
        adaptive: bool,
        seconds: float = DEFAULT_CELL_SECONDS,
        seed: int = DEFAULT_PROBE_SEED,
    ) -> None:
        self.profile = profile
        self.demand_bps = demand_bps
        self.adaptive = adaptive
        self.seconds = seconds
        self.display_bytes_received = 0
        rng = np.random.default_rng(seed) if profile.randomized else None
        self.sim, self.network, self.yardstick = yardstick_rig(
            ETHERNET_1G,
            warmup=1.0,
            console={"profile": profile, "rng": rng},
            on_console=self._console_rx,
        )
        self.downlink = self.network.downlink("console")
        self.allocator: Optional[TieredAllocator] = None
        if adaptive:
            self.allocator = TieredAllocator(
                capacity_bps=CAPACITY_HEADROOM * profile.down_rate_bps
            )
            self.allocator.request(1, demand_bps)
            self._rate_bps = self.allocator.effective_rate(1)
        else:
            self._rate_bps = demand_bps
        self._carry_bytes = 0.0

    def _console_rx(self, packet: Packet) -> None:
        if packet.flow == "display":
            self.display_bytes_received += packet.nbytes
        else:
            self.yardstick.handle_console_packet(packet)

    # -- the paced display stream -------------------------------------------
    def _emit(self) -> None:
        self._carry_bytes += self._rate_bps / UPDATE_HZ / 8.0
        burst = []
        while self._carry_bytes >= PACKET_NBYTES:
            self._carry_bytes -= PACKET_NBYTES
            burst.append(
                Packet("server", "console", PACKET_NBYTES, flow="display")
            )
        if burst:
            self.network.send_burst(burst)
        self.sim.schedule(1.0 / UPDATE_HZ, self._emit)

    # -- the tier control loop ----------------------------------------------
    def _control(self) -> None:
        assert self.allocator is not None
        limit = self.profile.queue_limit_bytes
        queue_pressure = (
            min(1.0, self.downlink.queued_bytes / limit) if limit else 0.0
        )
        self.allocator.request(1, self.demand_bps)
        self.allocator.observe(queue_pressure)
        self._rate_bps = self.allocator.effective_rate(1)
        self.sim.schedule(CONTROL_INTERVAL, self._control)

    # -- running --------------------------------------------------------------
    def run(self) -> "CellProbe":
        self.yardstick.start()
        if self.demand_bps > 0:
            self.sim.schedule(0.0, self._emit)
        if self.allocator is not None:
            self.sim.schedule(CONTROL_INTERVAL, self._control)
        self.sim.run_until(self.seconds)
        return self

    # -- results --------------------------------------------------------------
    def p95_rtt(self) -> float:
        if not self.yardstick.rtts:
            return float("inf")
        return float(np.percentile(self.yardstick.rtts, 95))

    def delivered_bps(self) -> float:
        return self.display_bytes_received * 8.0 / self.seconds

    def tier_name(self) -> str:
        if self.allocator is None:
            return "static"
        return self.allocator.tier_of(1).name


def _resolve_names(value: object, default: Sequence[str]) -> List[str]:
    """A comma-list from config extra, or the default."""
    if value is None:
        return list(default)
    if isinstance(value, str):
        return [name.strip() for name in value.split(",") if name.strip()]
    return list(value)  # already a sequence


@experiment(
    "wan_matrix",
    title="WAN/mobile adversity matrix: profiles x workloads",
    section="beyond-paper",
)
def run(config: ExperimentConfig) -> ExperimentResult:
    probe_seed = int(config.get("seed", DEFAULT_PROBE_SEED))
    cell_seconds = float(config.get("cell_seconds", DEFAULT_CELL_SECONDS))
    profile_names = _resolve_names(config.get("profiles"), list(PROFILES))
    workload_names = _resolve_names(config.get("workloads"), list(ADVERSITY_APPS))
    registry = current_run().registry
    demands = workload_demands(
        n_users=config.n_users or userstudy.DEFAULT_N_USERS,
        duration=config.duration or userstudy.DEFAULT_DURATION,
        workloads=workload_names,
    )
    rows: List[Dict[str, object]] = []
    collection = current_run().collection
    slo_engine = SloEngine([KEYSTROKE_ECHO])
    for profile_name in profile_names:
        profile = get_profile(profile_name)
        floor_ms = 1000 * profile.min_rtt()
        for workload in workload_names:
            bw = demands[workload]
            static_label = f"{profile_name}/{workload}/static"
            adaptive_label = f"{profile_name}/{workload}/adaptive"
            _note_cell(static_label)
            with _cell_label(collection, static_label):
                static = CellProbe(
                    profile,
                    bw["demand"],
                    adaptive=False,
                    seconds=cell_seconds,
                    seed=probe_seed,
                ).run()
            _note_cell(adaptive_label)
            with _cell_label(collection, adaptive_label):
                adaptive = CellProbe(
                    profile,
                    bw["demand"],
                    adaptive=True,
                    seconds=cell_seconds,
                    seed=probe_seed,
                ).run()
            allocator = adaptive.allocator
            assert allocator is not None
            if registry.enabled:
                # Per-profile yardstick telemetry for dashboards.
                registry.gauge(
                    "wan.yardstick.rtt_ms", profile=profile_name,
                    workload=workload,
                ).set(1000 * adaptive.yardstick.mean_rtt())
                registry.counter(
                    "wan.yardstick.samples", profile=profile_name,
                    workload=workload,
                ).inc(len(adaptive.yardstick.rtts))
            row: Dict[str, object] = (
                {
                    "profile": profile_name,
                    "workload": workload,
                    "X (Mbps)": round(bw["x"] / MBPS, 3),
                    "SLIM (Mbps)": round(bw["slim"] / MBPS, 3),
                    "raw (Mbps)": round(bw["raw"] / MBPS, 3),
                    "demand (Mbps)": round(bw["demand"] / MBPS, 2),
                    "floor ms": round(floor_ms, 2),
                    "RTT ms static": _fmt_ms(static.yardstick.mean_rtt()),
                    "RTT ms adaptive": _fmt_ms(adaptive.yardstick.mean_rtt()),
                    "p95 ms adaptive": _fmt_ms(adaptive.p95_rtt()),
                    "probe loss": f"{adaptive.yardstick.loss_rate():.0%}",
                    "tier": adaptive.tier_name(),
                    "demotions": allocator.stats.demotions,
                    "promotions": allocator.stats.promotions,
                    "drops static": static.downlink.stats.packets_dropped,
                    "drops adaptive": adaptive.downlink.stats.packets_dropped,
                    "delivered Mbps": round(
                        adaptive.delivered_bps() / MBPS, 2
                    ),
                }
            )
            if collection is not None:
                # Flush trailing partial windows so the per-cell SLO
                # verdict sees the whole cell, then judge each series
                # against the 150 ms keystroke-echo budget.
                collection.finish_samplers()
                row["SLO static"] = _slo_compliance(
                    slo_engine, collection.run_by_label(static_label)
                )
                row["SLO adaptive"] = _slo_compliance(
                    slo_engine, collection.run_by_label(adaptive_label)
                )
            rows.append(row)
    return ExperimentResult(
        experiment_id="wan_matrix",
        title="WAN/mobile adversity matrix: profiles x workloads",
        rows=rows,
        notes=[
            "X/SLIM/raw are session-mean bandwidths from the Fig 8 user "
            "studies (the LAN rows reproduce Fig 8 byte-identically at "
            "the default seed); demand is the p95 busy-second SLIM rate",
            "each cell offers the demand across the profile's access "
            "link for "
            f"{cell_seconds:g}s, twice: static (paper allocation) vs "
            "adaptive (TieredAllocator full/progressive/thumbnail)",
            "graceful degradation: adaptive cells park at the highest "
            "tier whose rate fits and keep probe RTT near the floor; "
            "static cells bufferbloat and tail-drop instead",
            "SLO columns (with --timeseries/--slo) count windows whose "
            "windowed yardstick p95 met the 150 ms keystroke-echo "
            "budget; VIOL marks cells whose violations blew the "
            f"{KEYSTROKE_ECHO.budget:.0%} error budget",
        ],
    )


def _note_cell(label: str) -> None:
    """Annotate the armed flight recorder (if any) with the cell about
    to run, so triggers and engine marks carry the cell label."""
    recorder = current_run().recorder
    if recorder is not None:
        recorder.note(label)


def _cell_label(collection, label: str):
    """Scope a time-series run label to one probe (no-op when the
    session is not sampling)."""
    if collection is None:
        from contextlib import nullcontext

        return nullcontext()
    return collection.label(label)


def _slo_compliance(engine: SloEngine, run: Optional[RunSeries]) -> str:
    """``ok/total`` keystroke-echo verdict for one cell's sampled run."""
    if run is None or not run.windows:
        return "n/a"
    report = engine.evaluate([run])
    result = report.compliance(run.label, KEYSTROKE_ECHO.name)
    if result is None:
        return "n/a"
    status = "ok" if result.compliant else "VIOL"
    return f"{result.ok_windows}/{result.windows} {status}"


def _fmt_ms(seconds: float) -> object:
    return "inf" if seconds == float("inf") else round(1000 * seconds, 2)
