"""Ablations of the design choices DESIGN.md calls out.

These go beyond the paper's figures to quantify *why* the design is the
way it is:

* **Command-selection ablation** — disable FILL / BITMAP / COPY
  detection one at a time and re-encode the same workload; shows each
  command's contribution to the Figure 4 compression.
* **CSCS depth ladder** — bandwidth vs console decode rate vs quality
  (PSNR) across 16/12/8/6/5 bpp.
* **Bandwidth allocator on/off** — a video stream plus an interactive
  session on one console: with the allocator the interactive sender
  retains its requested share; without it the video absorbs everything.
* **Push vs pull (VNC-style)** — the same paint stream delivered by
  server-push SLIM vs client-poll VNC: bytes and added display latency.
* **Scheduler quantum** — sensitivity of the Figure 9 yardstick to the
  time-slice length.
* **MTU sensitivity** — per-datagram overhead vs fragment size.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.commands import CscsCommand
from repro.core.costs import ConsoleCostModel
from repro.core.bandwidth import BandwidthAllocator
from repro.core.encoder import EncoderConfig, SlimEncoder
from repro.core.wire import message_wire_nbytes
from repro.core import cscs_codec
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    experiment,
)
from repro.experiments import userstudy
from repro.framebuffer.framebuffer import FrameBuffer
from repro.framebuffer.painter import Painter, synth_video_frame
from repro.framebuffer.regions import Rect
from repro.framebuffer.yuv import psnr
from repro.units import ETHERNET_100, MBPS
from repro.workloads.apps import NETSCAPE
from repro.xproto.baseline import VncServer


# --- 1. command-selection ablation -------------------------------------------


def encoder_ablation(
    n_events: int = 400, seed: int = 5
) -> List[Tuple[str, float]]:
    """(config name, mean bytes per update) over a Netscape-like stream."""
    rng = np.random.default_rng(seed)
    display = NETSCAPE.display_model()
    updates = [display.sample_update(rng, seed=i) for i in range(n_events)]
    configs = {
        "full": EncoderConfig(),
        "no FILL": EncoderConfig(use_fill=False),
        "no BITMAP": EncoderConfig(use_bitmap=False),
        "no COPY": EncoderConfig(use_copy=False),
        "SET only": EncoderConfig(use_fill=False, use_bitmap=False, use_copy=False),
    }
    rows = []
    for name, config in configs.items():
        encoder = SlimEncoder(config=config, materialize=False)
        total = 0
        for ops in updates:
            for command in encoder.encode_ops(ops):
                total += message_wire_nbytes(command)
        rows.append((name, total / n_events))
    return rows


# --- 2. CSCS depth ladder ------------------------------------------------------


def cscs_depth_ablation(
    width: int = 320, height: int = 240, seed: int = 9
) -> List[Dict[str, float]]:
    """Bandwidth, console rate, and PSNR for each CSCS depth."""
    frame = synth_video_frame(Rect(0, 0, width, height), seed)
    cost_model = ConsoleCostModel()
    rows = []
    for bpp in (16, 12, 8, 6, 5):
        payload = cscs_codec.encode_frame(frame, bpp)
        decoded = cscs_codec.decode_frame(payload, width, height, bpp)
        command = CscsCommand(
            rect=Rect(0, 0, width, height), bits_per_pixel=bpp, payload=payload
        )
        fps_console = 1.0 / cost_model.service_time(command)
        nbytes = message_wire_nbytes(command)
        rows.append(
            {
                "bpp": bpp,
                "KB/frame": nbytes / 1000,
                "Mbps @24fps": nbytes * 8 * 24 / MBPS,
                "console max fps": fps_console,
                "PSNR dB": psnr(frame, decoded),
            }
        )
    return rows


# --- 3. bandwidth allocator -----------------------------------------------------


def allocator_ablation() -> Dict[str, Dict[str, float]]:
    """Video + interactive senders with and without the allocator."""
    interactive_request = 2 * MBPS
    video_request = 120 * MBPS  # more than the link can carry
    with_allocator = BandwidthAllocator(ETHERNET_100)
    with_allocator.request(1, interactive_request)
    with_allocator.request(2, video_request)
    granted_interactive = with_allocator.grant_for(1).granted_bps
    granted_video = with_allocator.grant_for(2).granted_bps
    # Without the allocator, both senders blast and share the link in
    # proportion to their offered load.
    total = interactive_request + video_request
    free_for_all_interactive = ETHERNET_100 * interactive_request / total
    free_for_all_video = ETHERNET_100 * video_request / total
    return {
        "with allocator": {
            "interactive Mbps": granted_interactive / MBPS,
            "video Mbps": granted_video / MBPS,
        },
        "without": {
            "interactive Mbps": free_for_all_interactive / MBPS,
            "video Mbps": free_for_all_video / MBPS,
        },
    }


# --- 4. push vs pull -------------------------------------------------------------


def push_pull_ablation(
    n_updates: int = 60,
    poll_hz: float = 10.0,
    seed: int = 13,
    display_w: int = 640,
    display_h: int = 480,
) -> Dict[str, Dict[str, float]]:
    """SLIM push vs VNC-style pull on the same paint stream.

    Updates arrive at random times; SLIM transmits immediately while the
    VNC viewer polls at ``poll_hz``.  Reports mean bytes per update and
    mean added display latency (time pixels wait for the next poll).
    """
    rng = np.random.default_rng(seed)
    display = NETSCAPE.display_model()
    display.display_w, display.display_h = display_w, display_h
    display.display_area = display_w * display_h

    fb = FrameBuffer(display_w, display_h)
    painter = Painter(fb)
    encoder = SlimEncoder(materialize=True)
    vnc = VncServer(fb)

    slim_bytes = 0
    vnc_bytes = 0
    push_latency: List[float] = []
    pull_latency: List[float] = []
    poll_interval = 1.0 / poll_hz
    time = 0.0
    for index in range(n_updates):
        time += float(rng.exponential(0.4))
        ops = display.sample_update(rng, seed=index)
        for op in ops:
            painter.apply(op)
        fb.drain_damage()
        for command in encoder.encode_ops(ops, fb):
            slim_bytes += message_wire_nbytes(command)
        # SLIM pushes as soon as the server paints: only wire time.
        push_latency.append(0.0)
        # The VNC viewer sees the update at the next poll tick.
        next_poll = (int(time / poll_interval) + 1) * poll_interval
        pull_latency.append(next_poll - time)
        _rects, nbytes = vnc.poll()
        vnc_bytes += nbytes
    return {
        "SLIM push": {
            "bytes/update": slim_bytes / n_updates,
            "added latency ms": float(np.mean(push_latency)) * 1000,
        },
        "VNC pull": {
            "bytes/update": vnc_bytes / n_updates,
            "added latency ms": float(np.mean(pull_latency)) * 1000,
        },
    }


# --- 5. scheduler quantum ----------------------------------------------------------


def quantum_ablation(
    quanta=(0.002, 0.010, 0.050, 0.200),
    n_users: int = 12,
    sim_seconds: float = 60.0,
) -> List[Tuple[float, float]]:
    """(quantum, yardstick added latency) for a fixed Netscape load."""
    from repro.experiments.fig9 import yardstick_latency

    _traces, profiles = userstudy.get_study(NETSCAPE)
    return [
        (
            q,
            yardstick_latency(
                profiles, n_users, sim_seconds=sim_seconds, quantum=q
            ),
        )
        for q in quanta
    ]


# --- 6. priority scheduling (Section 9 future work) ------------------------------


def priority_scheduler_ablation(
    n_users: int = 16, sim_seconds: float = 60.0
) -> Dict[str, float]:
    """Yardstick added latency: round-robin vs interactive-priority.

    Runs the Figure 9 workload at an oversubscribed point with both
    schedulers.  The priority scheduler realises the paper's future-work
    goal — interactive guarantees under load — at near-zero cost to the
    background users.
    """
    from repro.netsim.engine import Simulator
    from repro.server.priority import PriorityScheduler
    from repro.server.scheduler import (
        PeriodicTask,
        ProfilePlaybackTask,
        Scheduler,
    )

    _traces, profiles = userstudy.get_study(NETSCAPE)
    results: Dict[str, float] = {}
    for label, factory in (
        ("round-robin", Scheduler),
        ("priority", PriorityScheduler),
    ):
        sim = Simulator()
        scheduler = factory(sim, num_cpus=1, quantum=0.010, memory_mb=4096.0)
        yardstick = PeriodicTask(burst=0.030, think=0.150, warmup=5.0)
        yardstick.interactive = True
        scheduler.spawn(yardstick)
        rng = np.random.default_rng(21)
        for index in range(n_users):
            profile = profiles[index % len(profiles)]
            scheduler.spawn(
                ProfilePlaybackTask(
                    name=f"user{index}",
                    profile_utilization=profile.cpu,
                    interval=profile.interval,
                    burst=NETSCAPE.typical_burst_seconds(),
                    memory_mb=profile.memory_mb,
                    rng=np.random.default_rng(rng.integers(0, 2**63)),
                )
            )
        sim.run_until(sim_seconds)
        results[label] = yardstick.mean_added_latency()
    return results


# --- 7. MTU sensitivity --------------------------------------------------------------


def mtu_ablation(update_nbytes: int = 50_000) -> List[Tuple[int, float]]:
    """(mtu, overhead fraction) for a fixed-size display update."""
    rows = []
    for mtu in (256, 512, 1500, 9000):
        payload_per = mtu - 28 - 8
        datagrams = -(-update_nbytes // payload_per)
        overhead = datagrams * (28 + 8)
        rows.append((mtu, overhead / (update_nbytes + overhead)))
    return rows


@experiment("ablations", title="Design-choice ablations", section="design")
def run(config: ExperimentConfig) -> ExperimentResult:
    rows = []
    for name, nbytes in encoder_ablation():
        rows.append({"ablation": "encoder", "case": name, "value": f"{nbytes / 1000:.1f} KB/update"})
    for entry in cscs_depth_ablation():
        rows.append(
            {
                "ablation": "cscs-depth",
                "case": f"{entry['bpp']} bpp",
                "value": (
                    f"{entry['KB/frame']:.0f} KB/frame, "
                    f"{entry['console max fps']:.0f} fps max, "
                    f"{entry['PSNR dB']:.1f} dB"
                ),
            }
        )
    for name, values in allocator_ablation().items():
        rows.append(
            {
                "ablation": "bw-allocator",
                "case": name,
                "value": (
                    f"interactive {values['interactive Mbps']:.1f} / "
                    f"video {values['video Mbps']:.1f} Mbps"
                ),
            }
        )
    for name, values in push_pull_ablation().items():
        rows.append(
            {
                "ablation": "push-vs-pull",
                "case": name,
                "value": (
                    f"{values['bytes/update'] / 1000:.1f} KB/update, "
                    f"+{values['added latency ms']:.0f} ms latency"
                ),
            }
        )
    for quantum, latency in quantum_ablation():
        rows.append(
            {
                "ablation": "quantum",
                "case": f"{quantum * 1000:.0f} ms",
                "value": f"{latency * 1000:.1f} ms added",
            }
        )
    for name, latency in priority_scheduler_ablation().items():
        rows.append(
            {
                "ablation": "scheduler-class",
                "case": name,
                "value": f"{latency * 1000:.1f} ms added (16 Netscape users)",
            }
        )
    for mtu, overhead in mtu_ablation():
        rows.append(
            {
                "ablation": "mtu",
                "case": f"{mtu} B",
                "value": f"{overhead * 100:.1f}% header overhead",
            }
        )
    return ExperimentResult(
        experiment_id="ablations",
        title="Design-choice ablations",
        rows=rows,
        notes=[
            "encoder rows quantify each display command's contribution; "
            "'SET only' approximates the raw-pixel baseline",
        ],
    )

