"""Lossy-fabric ablation: display-protocol recovery vs packet loss.

The paper's error recovery scheme (Section 2.2) is exercised end to end:
one :class:`~repro.transport.DisplayChannel` session per loss rate runs
a Netscape-like update stream across a fabric that randomly corrupts
packets on the server's link pair — display traffic *and* the console's
NACKs are both lossy.  Each session reports what recovery cost: NACK
packets and bytes on the reverse path, re-encoded recovery bytes as a
fraction of total wire bytes, full-screen refresh fallbacks, and the
mean in-band recovery latency.  Every session must end pixel-exact with
the status exchange quiesced — the correctness bar is part of the table.

A fig11-style network yardstick (64 B up / 1200 B down / 150 ms think)
runs on an identically lossy fabric for each rate, so the display
protocol's recovery cost can be read against the raw round-trip
behaviour of the same network.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Tuple

import numpy as np

from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    experiment,
    sweep,
)
from repro.framebuffer import FrameBuffer
from repro.loadgen.yardstick import yardstick_rig
from repro.netsim.profiles import get_profile
from repro.transport import DisplayChannel
from repro.units import ETHERNET_100
from repro.workloads.apps import NETSCAPE

#: Random per-packet loss probabilities swept by the ablation.
LOSS_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)

DEFAULT_UPDATES = 20
DEFAULT_SEED = 42
DISPLAY_W, DISPLAY_H = 320, 240

#: Simulated seconds of yardstick probing per loss rate.
YARDSTICK_SECONDS = 20.0

#: Named WAN/mobile profiles probed alongside the i.i.d. sweep: the
#: burst-loss regimes whose *pattern* (not just rate) stresses recovery.
PROFILE_CELLS = ("dsl", "wifi", "cellular")

#: Profile cells probe longer: burst-loss episodes are rare events, and
#: a 20 s window can sample zero of them at some seeds.
PROFILE_YARDSTICK_SECONDS = 60.0


def run_lossy_session(
    loss_rate: float,
    updates: int = DEFAULT_UPDATES,
    seed: int = DEFAULT_SEED,
) -> DisplayChannel:
    """Drive one display session to convergence over a lossy fabric."""
    server_fb = FrameBuffer(DISPLAY_W, DISPLAY_H)
    channel = DisplayChannel(server_fb, loss_rate=loss_rate, seed=seed)
    driver = channel.make_driver(track_baselines=False)
    rng = np.random.default_rng(seed)
    display = NETSCAPE.display_model()
    display.display_w, display.display_h = DISPLAY_W, DISPLAY_H
    display.display_area = DISPLAY_W * DISPLAY_H
    for index in range(updates):
        driver.update(channel.sim.now, display.sample_update(rng, seed=index))
        # Drains once the status exchange confirms every seq arrived.
        channel.sim.run()
    return channel


def _probe(sim_seconds: float, **rig) -> Tuple[float, float]:
    """(mean RTT seconds, observed loss rate) of the fig11 probe on a
    100 Mbps fabric; ``rig`` holds :func:`yardstick_rig`'s ``console`` /
    ``server`` link kwargs."""
    sim, _network, yardstick = yardstick_rig(ETHERNET_100, **rig)
    yardstick.start()
    sim.run_until(sim_seconds)
    return yardstick.mean_rtt(), yardstick.loss_rate()


def yardstick_on_lossy_fabric(
    loss_rate: float,
    sim_seconds: float = YARDSTICK_SECONDS,
    seed: int = DEFAULT_SEED,
) -> Tuple[float, float]:
    """(mean RTT seconds, observed loss rate) of the fig11 probe."""
    rng = np.random.default_rng(seed) if loss_rate > 0 else None
    return _probe(sim_seconds, server={"loss_rate": loss_rate, "rng": rng})


def yardstick_on_profile(
    profile_name: str,
    sim_seconds: float = PROFILE_YARDSTICK_SECONDS,
    seed: int = DEFAULT_SEED,
) -> Tuple[float, float]:
    """(mean RTT seconds, observed loss rate) across a named profile.

    The console sits behind the profile's access link (the WAN/mobile
    deployment shape); the server stays on the clean switched fabric.
    """
    profile = get_profile(profile_name)
    rng = np.random.default_rng(seed) if profile.randomized else None
    return _probe(sim_seconds, console={"profile": profile, "rng": rng})


def _loss_row(loss_rate: float, updates: int, seed: int) -> Dict[str, object]:
    """One i.i.d. loss rate: the display session and the probe."""
    channel = run_lossy_session(loss_rate, updates=updates, seed=seed)
    server = channel.server_channel.stats
    console = channel.console_channel.stats
    uplink = channel.network.uplink("server")
    downlink = channel.network.downlink("server")
    overhead = (
        100.0 * server.recovery_bytes / server.wire_bytes
        if server.wire_bytes
        else 0.0
    )
    rtt, probe_loss = yardstick_on_lossy_fabric(loss_rate, seed=seed)
    return {
        "loss rate": f"{loss_rate:.0%}",
        "pixel exact": channel.converged and channel.resolved,
        "recoveries": channel.recoveries,
        "refreshes": channel.refreshes,
        "nacks": console.nacks_sent,
        "nack KB": round(console.nack_bytes / 1024, 2),
        "recovery overhead %": round(overhead, 1),
        "recovery ms": round(1000 * console.mean_recovery_latency(), 2)
        if console.recoveries_timed
        else 0.0,
        # Corruption vs congestion are distinct counters.
        "wire lost": uplink.stats.packets_lost + downlink.stats.packets_lost,
        "queue dropped": uplink.stats.packets_dropped
        + downlink.stats.packets_dropped,
        "yardstick RTT ms": _fmt_ms(rtt),
        "yardstick loss": f"{probe_loss:.0%}",
    }


def _profile_row(profile_name: str, seed: int) -> Dict[str, object]:
    """One named profile: the probe behind its access link."""
    rtt, probe_loss = yardstick_on_profile(profile_name, seed=seed)
    return {
        "loss rate": profile_name,
        "mean loss": f"{get_profile(profile_name).mean_loss_rate():.1%}",
        "yardstick RTT ms": _fmt_ms(rtt),
        "yardstick loss": f"{probe_loss:.0%}",
    }


def _fmt_ms(seconds: float) -> object:
    return "inf" if seconds == float("inf") else round(1000 * seconds, 2)


@experiment(
    "lossy_fabric",
    title="Display-protocol loss recovery vs fabric loss rate",
    section="2.2",
)
def run(config: ExperimentConfig) -> ExperimentResult:
    seed = config.get("seed", DEFAULT_SEED)
    updates = int(config.get("updates", DEFAULT_UPDATES))
    cells = [partial(_loss_row, rate, updates, seed) for rate in LOSS_RATES]
    cells += [partial(_profile_row, name, seed) for name in PROFILE_CELLS]
    rows = sweep(cells, lambda row: row())
    return ExperimentResult(
        experiment_id="lossy_fabric",
        title="Display-protocol loss recovery vs fabric loss rate",
        rows=rows,
        notes=[
            "each session: Netscape-style update stream into a "
            f"{DISPLAY_W}x{DISPLAY_H} console over a switched fabric that "
            "corrupts packets on the server's links (NACKs are lossy too)",
            "recovery is stateless: the server re-encodes damaged regions "
            "from its current framebuffer; full refresh only after "
            "damage-map eviction",
            "'pixel exact' requires the console framebuffer to equal the "
            "server's and the status exchange to have confirmed every seq",
            "profile rows probe the named WAN/mobile regimes (console "
            "behind the access link); burst loss (Gilbert-Elliott) hurts "
            "more than i.i.d. loss at the same mean rate",
        ],
    )
