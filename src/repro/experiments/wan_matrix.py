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
  link at the paper's fixed (*static*) allocation — the sender just
  transmits at full demand — while the Figure 11 network yardstick
  measures round-trip delay through the same bottleneck.

The LAN row is the control cell: its X/SLIM/raw columns come from the
same memoised user studies as Figure 8, so they are byte-identical to
that experiment's numbers at the default seed, and its probe shows the
sub-millisecond RTTs the paper reports.  The cellular and long-haul
rows are the adversity story: where the demand exceeds the access link,
the sender bufferbloats it (hundreds of ms of standing queue, tail
drops) and the probe RTT leaves the propagation floor far behind.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

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
#: Display-stream pacing: bursts per second.
UPDATE_HZ = 20.0
#: Display-stream packet size (the Fig 11 "response" MTU).
PACKET_NBYTES = 1200
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
        seconds: float = DEFAULT_CELL_SECONDS,
        seed: int = DEFAULT_PROBE_SEED,
    ) -> None:
        self.demand_bps = demand_bps
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
        self._carry_bytes = 0.0

    def _console_rx(self, packet: Packet) -> None:
        if packet.flow == "display":
            self.display_bytes_received += packet.nbytes
        else:
            self.yardstick.handle_console_packet(packet)

    # -- the paced display stream -------------------------------------------
    def _emit(self) -> None:
        self._carry_bytes += self.demand_bps / UPDATE_HZ / 8.0
        burst = []
        while self._carry_bytes >= PACKET_NBYTES:
            self._carry_bytes -= PACKET_NBYTES
            burst.append(
                Packet("server", "console", PACKET_NBYTES, flow="display")
            )
        if burst:
            self.network.send_burst(burst)
        self.sim.schedule(1.0 / UPDATE_HZ, self._emit)

    # -- running --------------------------------------------------------------
    def run(self) -> "CellProbe":
        self.yardstick.start()
        if self.demand_bps > 0:
            self.sim.schedule(0.0, self._emit)
        self.sim.run_until(self.seconds)
        return self

    # -- results --------------------------------------------------------------
    def p95_rtt(self) -> float:
        if not self.yardstick.rtts:
            return float("inf")
        return float(np.percentile(self.yardstick.rtts, 95))

    def delivered_bps(self) -> float:
        return self.display_bytes_received * 8.0 / self.seconds


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
            label = f"{profile_name}/{workload}/static"
            _note_cell(label)
            with _cell_label(collection, label):
                probe = CellProbe(
                    profile,
                    bw["demand"],
                    seconds=cell_seconds,
                    seed=probe_seed,
                ).run()
            if registry.enabled:
                # Per-profile yardstick telemetry for dashboards.
                registry.gauge(
                    "wan.yardstick.rtt_ms", profile=profile_name,
                    workload=workload,
                ).set(1000 * probe.yardstick.mean_rtt())
                registry.counter(
                    "wan.yardstick.samples", profile=profile_name,
                    workload=workload,
                ).inc(len(probe.yardstick.rtts))
            row: Dict[str, object] = {
                "profile": profile_name,
                "workload": workload,
                "X (Mbps)": round(bw["x"] / MBPS, 3),
                "SLIM (Mbps)": round(bw["slim"] / MBPS, 3),
                "raw (Mbps)": round(bw["raw"] / MBPS, 3),
                "demand (Mbps)": round(bw["demand"] / MBPS, 2),
                "floor ms": round(floor_ms, 2),
                "RTT ms": _fmt_ms(probe.yardstick.mean_rtt()),
                "p95 ms": _fmt_ms(probe.p95_rtt()),
                "probe loss": f"{probe.yardstick.loss_rate():.0%}",
                "drops": probe.downlink.stats.packets_dropped,
                "delivered Mbps": round(probe.delivered_bps() / MBPS, 2),
            }
            if collection is not None:
                # Flush trailing partial windows so the per-cell SLO
                # verdict sees the whole cell, then judge its series
                # against the 150 ms keystroke-echo budget.
                collection.finish_samplers()
                row["SLO"] = _slo_compliance(
                    slo_engine, collection.run_by_label(label)
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
            f"link for {cell_seconds:g}s at the paper's static "
            "allocation; where it exceeds the link, the cell "
            "bufferbloats and tail-drops",
            "the SLO column (with --timeseries/--slo) counts windows whose "
            "windowed yardstick p95 met the 150 ms keystroke-echo "
            "budget; VIOL marks a cell whose violations blew the "
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
