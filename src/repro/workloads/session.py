"""Simulated user sessions: the replacement for the paper's user studies.

A :class:`UserSession` plays one user driving one benchmark application
for a fixed duration: input events are drawn from the app's
:class:`~repro.workloads.input_model.InputModel`, each event induces a
display update drawn from its
:class:`~repro.workloads.display_model.DisplayModel`, and every update
runs through the real instrumented SLIM driver (encoder, wire sizes,
console cost model, X/raw baselines).  The outputs are exactly what the
paper's instrumentation produced: a protocol trace
(:class:`~repro.analysis.traces.SessionTrace`) and a resource profile
sampled at five-second intervals (Section 6.1's load-generator input).

CPU accounting is mechanistic — each event costs a fixed dispatch plus a
per-repainted-pixel rendering term — then normalised so a session's mean
utilization matches the paper's measured per-application averages
(Photoshop 14 %, Netscape 13 %, Frame Maker 8 %, PIM 3 %), with a
lognormal per-user factor so simulated users differ like real ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.analysis.traces import InputRecord, SessionTrace
from repro.server.slimdriver import SlimDriver
from repro.workloads.apps import AppProfile

#: Resource sampling interval, matching the paper's five-second tool.
PROFILE_INTERVAL = 5.0


@dataclass
class ResourceProfile:
    """Per-process resource usage over time (the load generator's input).

    Attributes:
        application: Which benchmark app produced it.
        user: Session identifier.
        interval: Sampling period, seconds.
        cpu: Per-interval CPU utilization of one reference CPU (0..1).
        net_bytes: Per-interval SLIM bytes transmitted.
        memory_mb: Resident set size.
    """

    application: str
    user: str
    interval: float
    cpu: List[float]
    net_bytes: List[int]
    memory_mb: float

    def mean_cpu(self) -> float:
        return float(np.mean(self.cpu)) if self.cpu else 0.0

    def mean_bandwidth_bps(self) -> float:
        if not self.net_bytes:
            return 0.0
        return float(np.sum(self.net_bytes)) * 8 / (len(self.net_bytes) * self.interval)


class UserSession:
    """One simulated user session.

    Args:
        app: The application profile to simulate.
        user: Session label.
        duration: Session length, seconds (the studies ran >= 10 minutes).
        seed: Seed for this session's private RNG.
        driver: Optionally inject a pre-configured driver (e.g. one wired
            to a network); defaults to an accounting-only instrumented
            driver with baselines enabled.
    """

    def __init__(
        self,
        app: AppProfile,
        user: str = "user0",
        duration: float = 600.0,
        seed: int = 0,
        driver: Optional[SlimDriver] = None,
    ) -> None:
        if duration <= 0:
            raise WorkloadError("duration must be positive")
        self.app = app
        self.user = user
        self.duration = duration
        self.rng = np.random.default_rng(seed)
        self.driver = driver if driver is not None else SlimDriver()
        self.display = app.display_model()

    def run(self) -> Tuple[SessionTrace, ResourceProfile]:
        """Simulate the session; returns (protocol trace, resource profile)."""
        events = self.app.input_model.sample_session(self.rng, self.duration)
        trace = SessionTrace(
            application=self.app.name, user=self.user, duration=self.duration
        )
        n_bins = max(1, int(np.ceil(self.duration / PROFILE_INTERVAL)))
        # Python floats and ints: the same IEEE sums as float64 / int64
        # bins, without a numpy scalar per update.
        cpu_activity = [0.0] * n_bins
        net_bytes = [0] * n_bins
        last_bin = n_bins - 1
        inputs, updates = trace.inputs, trace.updates
        sample, update, rng = self.display.sample_update, self.driver.update, self.rng
        cpu_per_event, cpu_per_pixel = self.app.cpu_per_event, self.app.cpu_per_pixel

        for index, event in enumerate(events):
            time = event.time
            inputs.append(InputRecord(time, event.kind))
            # Display work trails the event slightly (server render time).
            record = update(time + 0.001, sample(rng, index))
            updates.append(record)
            bin_index = int(time / PROFILE_INTERVAL)
            if bin_index > last_bin:
                bin_index = last_bin
            cpu_activity[bin_index] += cpu_per_event + cpu_per_pixel * record.pixels
            net_bytes[bin_index] += record.wire_bytes

        profile = self._build_profile(
            np.array(cpu_activity), np.array(net_bytes, dtype=np.int64)
        )
        return trace, profile

    def _build_profile(
        self, cpu_activity: np.ndarray, net_bytes: np.ndarray
    ) -> ResourceProfile:
        """Normalise raw activity into a utilization profile."""
        # Convert CPU-seconds per bin to utilization of one CPU.
        utilization = cpu_activity / PROFILE_INTERVAL
        mean = float(utilization.mean())
        user_factor = float(self.rng.lognormal(0.0, 0.15))
        target = self.app.cpu_mean * user_factor
        if mean > 0:
            utilization = utilization * (target / mean)
        # A small idle-loop floor: the app never goes fully to zero.
        floor = 0.1 * target
        utilization = np.maximum(utilization, floor)
        utilization = np.minimum(utilization, 1.0)
        return ResourceProfile(
            application=self.app.name,
            user=self.user,
            interval=PROFILE_INTERVAL,
            cpu=[float(u) for u in utilization],
            net_bytes=[int(b) for b in net_bytes],
            memory_mb=self.app.memory_mb * user_factor,
        )


def run_user_study(
    app: AppProfile,
    n_users: int = 50,
    duration: float = 600.0,
    seed: int = 1999,
) -> Tuple[List[SessionTrace], List[ResourceProfile]]:
    """Simulate the paper's user study for one application.

    50 separate users, ten minutes each, on an unloaded system
    (Section 3.1).  Each user gets an independent derived seed.
    """
    if n_users <= 0:
        raise WorkloadError("need at least one user")
    traces: List[SessionTrace] = []
    profiles: List[ResourceProfile] = []
    seeds = np.random.SeedSequence(seed).spawn(n_users)
    for index, child in enumerate(seeds):
        session = UserSession(
            app,
            user=f"{app.name.lower()}-user{index}",
            duration=duration,
            seed=int(child.generate_state(1)[0]),
        )
        trace, profile = session.run()
        traces.append(trace)
        profiles.append(profile)
    return traces, profiles
