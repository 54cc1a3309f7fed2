#!/usr/bin/env python
"""Smart-card mobility: the paper's hot-desking demo.

A user works at console A, pulls their card, walks to console B across
the building, inserts the card — and "the screen is returned to the
exact state at which it was left" (Section 1.1).  Statelessness makes
this trivial: the session's true framebuffer lives on the server, so
moving it is redirecting the driver's output to a display channel for
the new console and refreshing the screen over it — ordinary SLIM
traffic over the same fabric.

Run:  python examples/hotdesking.py
"""

import numpy as np

from repro import (
    DisplayChannel,
    FrameBuffer,
    Network,
    PaintKind,
    PaintOp,
    Rect,
    Simulator,
)
from repro.units import ETHERNET_100

W, H = 640, 480


def main() -> None:
    sim = Simulator()
    network = Network(sim, default_rate_bps=ETHERNET_100)
    session_fb = FrameBuffer(W, H)  # the session's pixels, on the server

    # Insert the card at console A and do some work.
    at_a = DisplayChannel(
        session_fb, sim=sim, network=network,
        console_address="console-a", server_address="server-a",
    )
    driver = at_a.make_driver()
    work = [
        PaintOp(PaintKind.FILL, Rect(0, 0, W, H), color=(60, 60, 80)),
        PaintOp(PaintKind.TEXT, Rect(30, 30, 400, 200), seed=7, char_count=500),
        PaintOp(PaintKind.IMAGE, Rect(450, 250, 150, 180), seed=8),
    ]
    for op in work:
        driver.update(sim.now, [op])  # the driver paints, encodes, and sends
    sim.run()
    assert at_a.converged
    print("working at console-a; screen painted")

    # Pull the card: the session keeps running, its output goes nowhere.
    driver.send = None
    print("card pulled: session detached (still alive on the server)")

    # More work happens while the user walks (a build finishes, say).
    op = PaintOp(PaintKind.TEXT, Rect(30, 260, 300, 100), seed=9, char_count=200)
    driver.update(sim.now + 1.0, [op])

    # Insert the card at console B: redirect the session, refresh the screen.
    at_b = DisplayChannel(
        session_fb, sim=sim, network=network,
        console_address="console-b", server_address="server-b",
    )
    driver.send = at_b.send_command
    at_b.server_channel.refresh()
    sim.run()
    sent = at_b.server_channel.stats
    print(
        f"attached at console-b; repainted over the wire in "
        f"{sent.messages_sent} messages, {sent.wire_bytes / 1000:.0f} KB"
    )

    identical = at_b.converged and at_b.resolved
    print(f"screen restored exactly       : {identical}")
    stale = np.array_equal(
        at_a.console.framebuffer.pixels, at_b.console.framebuffer.pixels
    )
    print(f"includes work done while away : {not stale}")
    if not identical:
        raise SystemExit("FAILED: restored screen differs")


if __name__ == "__main__":
    main()
