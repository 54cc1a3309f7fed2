#!/usr/bin/env python
"""Quickstart: a complete SLIM session in ~60 lines.

Builds a server-side framebuffer and a console, connects them through
the reliable display channel — SlimDriver -> wire format -> simulated
switched fabric -> console decode — paints a small desktop, and verifies
that every pixel survived the trip: the core promise of the
architecture: the console is a dumb frame buffer and the server owns
the truth.

Run:  python examples/quickstart.py
      python examples/quickstart.py --record /tmp/q
      python -m repro.tools.postmortem /tmp/q/quickstart.slimpm --latency
"""

import argparse
from pathlib import Path

from repro import (
    Console,
    DisplayChannel,
    FrameBuffer,
    PaintKind,
    PaintOp,
    Rect,
    Simulator,
    use_run,
)
from repro.obs import RunRecord, TimeSeriesCollection, TraceCollector
from repro.telemetry import MetricsRegistry

WIDTH, HEIGHT = 640, 480


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="A complete SLIM session in ~60 lines."
    )
    parser.add_argument(
        "--record",
        type=Path,
        metavar="DIR",
        help="write the session as DIR/quickstart.slimpm (wire capture, "
        "traces, windows, telemetry), for python -m repro.tools.postmortem",
    )
    args = parser.parse_args(argv)

    # A recorded session arms what the runner's --record does.
    record = RunRecord(args.record, "quickstart") if args.record else None
    armed = {}
    if record is not None:
        armed = {
            "registry": MetricsRegistry(),
            "tracer": TraceCollector(),
            "capture": record.capture,
            "collection": TimeSeriesCollection(),
        }

    # Server side: the authoritative framebuffer.  The display channel
    # owns the rest of the stack: fragmentation into datagrams, the
    # switched fabric, reassembly, and the console's decode queue.
    with use_run(**armed) as run:
        sim = Simulator()
        server_fb = FrameBuffer(WIDTH, HEIGHT)
        console = Console(WIDTH, HEIGHT, sim=sim, record_service_times=True)
        channel = DisplayChannel(server_fb, sim=sim, console=console)
        driver = channel.make_driver()

        # Paint a small desktop: wallpaper, a terminal window with text, a
        # photo viewer, then scroll the terminal.
        desktop = [
            PaintOp(PaintKind.FILL, Rect(0, 0, WIDTH, HEIGHT), color=(52, 70, 90)),
            PaintOp(PaintKind.FILL, Rect(40, 40, 360, 260), color=(255, 255, 255)),
            PaintOp(
                PaintKind.TEXT,
                Rect(48, 48, 344, 240),
                fg=(0, 0, 0),
                bg=(255, 255, 255),
                seed=1,
                char_count=600,
            ),
            PaintOp(PaintKind.IMAGE, Rect(420, 60, 180, 140), seed=2, uniform_fraction=0.2),
            PaintOp(
                PaintKind.COPY,
                Rect(48, 48, 344, 227),
                src=Rect(48, 61, 344, 227),
            ),
        ]
        for op in desktop:
            driver.update(sim.now, [op])  # the driver paints, encodes, and sends
            channel.run()  # the fabric delivers; the status exchange confirms

    # The console now holds exactly the server's pixels.
    match = server_fb.equals(console.framebuffer)
    stats = driver.stats
    print(f"pixels identical on both ends : {match}")
    print(f"display updates               : {stats.updates}")
    print(f"SLIM commands                 : {stats.commands}")
    print(f"bytes on the wire             : {stats.wire_bytes:,}")
    raw = stats.pixels * 3
    print(f"raw pixel bytes avoided       : {raw:,} "
          f"(compression {raw / stats.payload_bytes:.1f}x)")
    total_ms = sum(console.stats.service_times) * 1000
    print(f"console decode time           : {total_ms:.2f} ms")
    print(f"simulated session time        : {sim.now * 1000:.2f} ms")
    if record is not None:
        path = record.write(run.tracer, run.collection, run.registry.snapshot())
        print(f"run record                    : {path}")
    if not match:
        raise SystemExit("FAILED: framebuffers differ")


if __name__ == "__main__":
    main()
