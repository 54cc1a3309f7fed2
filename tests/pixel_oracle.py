"""What an update is before the wire, and what it leaves on both ends,
frozen under ``tests/golden/pixel_pipeline.json``.

The golden was written by ``tests/golden/regen.py pixels`` on 88aa103,
the last commit whose update sampling, glyph and image synthesis,
framebuffer primitives and console cost model were the numpy-scalar
formulations (``rng.choice(p=)``, ``default_rng(seed)`` per synthesis
call, a ``Rect`` per clip, the cost derivation per command).  Whatever
replaces them must draw the same numbers in the same order, paint the
same pixels and charge the same floats: every digest here is over
exact bytes or ``repr`` text, service-time floats included.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.console.console import Console
from repro.core.encoder import SlimEncoder
from repro.framebuffer.framebuffer import FrameBuffer
from repro.framebuffer.painter import synth_glyph_bitmap, synth_image
from repro.framebuffer.regions import Rect
from repro.netsim.backend import LocalBackend
from repro.netsim.transport import Network
from repro.obs.flightrec import FlightRecorder
from repro.runcontext import use_run
from repro.server.slimdriver import SlimDriver
from repro.transport.console import ConsoleChannel
from repro.transport.server import ServerChannel
from repro.units import ETHERNET_100
from repro.workloads.apps import BENCHMARK_APPS
from repro.workloads.display_model import DisplayModel
from repro.workloads.session import run_user_study

GOLDEN = Path(__file__).resolve().parent / "golden" / "pixel_pipeline.json"

STREAM_SEEDS = (1999, 7, 12345)
STREAM_UPDATES = 200

#: (w, h, seed, density): narrow (``w <= 3``), shorter than a text line
#: (``h < 13``), no ink, and seed 5 on both sides of seed 6.
GLYPH_CASES = (
    (1, 1, 0, 0.12), (2, 13, 1, 0.12), (3, 40, 2, 0.16), (4, 13, 3, 0.08),
    (7, 5, 4, 0.12), (34, 13, 5, 0.1234), (34, 13, 6, 0.1234),
    (34, 13, 5, 0.1234), (120, 9, 7, 0.15), (91, 26, 8, 0.0),
    (640, 27, 9, 0.09), (5, 300, 10, 1.0), (300, 200, 225, 0.11),
    (16, 12, 2**40 + 3, 0.5),
)  # fmt: skip
#: (w, h, seed, uniform_fraction)
IMAGE_CASES = (
    (1, 1, 0, 0.0), (4, 4, 1, 0.5), (7, 9, 2, 0.0), (8, 8, 3, 0.25),
    (13, 11, 5, 0.5), (13, 11, 6, 0.5), (13, 11, 5, 0.5), (40, 4, 7, 0.1),
    (162, 1, 8, 0.25), (300, 170, 9, 0.0), (65, 130, 225, 0.5),
    (33, 17, 2**40 + 3, 1.0),
)  # fmt: skip

SESSION_DESKTOPS = 8
SESSION_SIM_SECONDS = 20.0
SESSION_SEED = 1999
SESSION_W, SESSION_H = 640, 480

STUDY_USERS, STUDY_SECONDS = 2, 60.0


def load_golden() -> dict:
    with GOLDEN.open(encoding="utf-8") as handle:
        return json.load(handle)


def _sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else str(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


# -- (a) what an update is ----------------------------------------------------
def op_stream(app, seed: int, updates: int = STREAM_UPDATES) -> str:
    """``repr`` of every op of ``updates`` consecutive updates, then the
    generator's next draw: a sampler that consumed one number more or
    less, anywhere, reads differently here."""
    rng = np.random.default_rng(seed)
    display = app.display_model()
    parts = [
        repr(display.sample_update(rng, seed=index)) for index in range(updates)
    ]
    return _sha256(*parts, repr(rng.random()))


# -- (b) what its pixels are --------------------------------------------------
def synthesis() -> dict:
    """Bytes of each synthesised bitmap and image, in list order (the
    order matters: a generator shared between calls must be re-seated
    by each one)."""
    glyphs = []
    for w, h, seed, density in GLYPH_CASES:
        bitmap = synth_glyph_bitmap(Rect(0, 0, w, h), seed, density)
        glyphs.append(_sha256(bitmap.dtype, bitmap.shape, bitmap.tobytes()))
    images = []
    for w, h, seed, uniform in IMAGE_CASES:
        image = synth_image(Rect(0, 0, w, h), seed, uniform)
        images.append(_sha256(image.dtype, image.shape, image.tobytes()))
    return {"glyphs": glyphs, "images": images}


# -- (c) what it leaves on both ends of a display channel ----------------------
class _Desktop:
    def __init__(self, index: int, sim, network, loss_rate: float, link_rng):
        server, console = f"server{index}", f"console{index}"
        self.framebuffer = FrameBuffer(SESSION_W, SESSION_H)
        self.console = Console(
            SESSION_W, SESSION_H, sim=sim, address=console,
            record_service_times=True,
        )  # fmt: skip
        self.console_channel = ConsoleChannel(
            self.console, network, server_address=server
        )
        self.server_channel = ServerChannel(
            self.framebuffer, network, sim, address=server, console_address=console
        )
        self.console_channel.attach()
        self.server_channel.attach(
            loss_rate=loss_rate, rng=link_rng if loss_rate > 0 else None
        )
        self.driver = SlimDriver(
            encoder=SlimEncoder(materialize=True),
            framebuffer=self.framebuffer,
            send=self.server_channel.send_command,
        )

    def drive(self, sim, app, rng) -> None:
        """Every input event crosses the fabric as a key or mouse report;
        the server answers each one that arrives with a display update."""
        display = DisplayModel(app.archetype, SESSION_W, SESSION_H)
        driver, console = self.driver, self.console

        def on_input(_command) -> None:
            driver.update(
                sim.now, display.sample_update(rng, seed=driver.stats.updates)
            )

        self.server_channel.on_input = on_input
        events = app.input_model.sample_session(rng, SESSION_SIM_SECONDS)
        for index, event in enumerate(events):
            sender = _key_sender if event.kind == "key" else _mouse_sender
            sim.schedule_at(event.time, sender(console, index))

    def digest(self) -> dict:
        return {
            "server_pixels": _sha256(self.framebuffer.pixels.tobytes()),
            "console_pixels": _sha256(self.console.framebuffer.pixels.tobytes()),
            "pixel_exact": self.framebuffer.equals(self.console.framebuffer),
            "resolved": self.server_channel.converged,
            "driver": dataclasses.asdict(self.driver.stats),
            "server_channel": dataclasses.asdict(self.server_channel.stats),
            "console_channel": dataclasses.asdict(self.console_channel.stats),
            "console": {
                "processed": self.console.stats.commands_processed,
                "dropped": self.console.stats.commands_dropped,
                "busy_time": repr(self.console.stats.busy_time),
                "service_times": _sha256(
                    *map(repr, self.console.stats.service_times)
                ),
            },
            "records": _sha256(*map(repr, self.driver.records)),
        }


def _key_sender(console: Console, index: int):
    return lambda: console.key_event(32 + index % 95, True)


def _mouse_sender(console: Console, index: int):
    return lambda: console.mouse_event(
        (index * 37) % SESSION_W, (index * 53) % SESSION_H, 1
    )


def channel_session(loss_rate: float) -> dict:
    """Eight desktops (the four applications, twice) over one switched
    fabric, run for 20 simulated seconds and then to drain, with the
    flight recorder's wire ring armed."""
    recorder = FlightRecorder(out_dir=None)
    apps = list(BENCHMARK_APPS.values())
    with use_run(recorder=recorder):
        sim = LocalBackend()
        network = Network(sim, default_rate_bps=ETHERNET_100)
        desktops = []
        children = np.random.SeedSequence(SESSION_SEED).spawn(SESSION_DESKTOPS)
        for index, child in enumerate(children):
            session_seed, link_seed = child.spawn(2)
            desktop = _Desktop(
                index, sim, network, loss_rate, np.random.default_rng(link_seed)
            )
            desktop.drive(
                sim, apps[index % len(apps)], np.random.default_rng(session_seed)
            )
            desktops.append(desktop)
        sim.run_until(SESSION_SIM_SECONDS)
        sim.run()
    return {
        "desktops": [desktop.digest() for desktop in desktops],
        "ring_sha256": _sha256(recorder.capture.dump_bytes()),
        "ring_frames": len(recorder.capture),
    }


# -- (d) what the user study logs ----------------------------------------------
def user_study(app) -> dict:
    traces, profiles = run_user_study(
        app, n_users=STUDY_USERS, duration=STUDY_SECONDS
    )
    return {
        "updates": sum(len(trace.updates) for trace in traces),
        "traces": _sha256(*map(repr, traces)),
        "profiles": _sha256(*map(repr, profiles)),
    }


def compute_all(scratch=None) -> dict:
    """Every golden, by name."""
    goldens = {"synthesis": synthesis()}
    for name, app in BENCHMARK_APPS.items():
        for seed in STREAM_SEEDS:
            goldens[f"ops/{name}/{seed}"] = op_stream(app, seed)
        goldens[f"study/{name}"] = user_study(app)
    goldens["session/lossless"] = channel_session(0.0)
    goldens["session/lossy"] = channel_session(0.05)
    return goldens
