#!/usr/bin/env python
"""Loss recovery in action: a display session over a lossy fabric.

Runs the same Netscape-style update stream over increasingly lossy
links and shows the paper's Section 2.2 recovery scheme doing its job:
the console NACKs missing sequence numbers with real packets over the
reverse path, the server re-encodes the damaged regions from its
*current* framebuffer, and the periodic status exchange sweeps up tail
loss.  Every run ends pixel-exact — the whole point.

Each session is recorded to a ``.slimcap`` wire capture with causal
traces embedded, and everything printed below — loss counts, NACKs,
re-encodes, the recovery timeline — is reconstructed *from the capture*
with the reader and the timeline ``python -m repro.tools.postmortem``
uses.  What you see is what a post-mortem of the capture file would
show, not counters the simulation kept on the side.

Run:  python examples/lossy_display.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import DisplayChannel, FrameBuffer, use_run
from repro.core import commands as cmd
from repro.core.commands import StatusKind
from repro.obs import SlimcapReader, SlimcapWriter, TraceCollector
from repro.tools.postmortem import timeline_events
from repro.workloads.apps import NETSCAPE

WIDTH, HEIGHT = 320, 240
UPDATES = 12
LOSS_RATES = (0.0, 0.05, 0.2)


def run_session(loss_rate: float, capture: Path) -> DisplayChannel:
    """One recorded session: every wire frame and causal trace on disk."""
    tracer = TraceCollector()
    writer = SlimcapWriter(capture)
    with use_run(tracer=tracer, capture=writer):
        server_fb = FrameBuffer(WIDTH, HEIGHT)
        channel = DisplayChannel(server_fb, loss_rate=loss_rate, seed=42)
        driver = channel.make_driver(track_baselines=False)
        rng = np.random.default_rng(7)
        display = NETSCAPE.display_model()
        display.display_w, display.display_h = WIDTH, HEIGHT
        display.display_area = WIDTH * HEIGHT
        for index in range(UPDATES):
            driver.update(channel.sim.now, display.sample_update(rng, seed=index))
            channel.run()  # drains once the status exchange confirms delivery
    for trace in tracer.completed_messages():
        writer.trace(trace.to_dict(), now=trace.sent_at)
    writer.close()
    return channel


def capture_stats(reader: SlimcapReader) -> dict:
    """Reconstruct the recovery story purely from the capture file."""
    nacks = nack_bytes = losses = reencodes = 0
    end = 0.0
    for message in reader.messages():
        if (
            isinstance(message.command, cmd.StatusMessage)
            and message.command.kind == StatusKind.NACK
        ):
            nacks += 1
            nack_bytes += message.wire_bytes
        end = max(end, message.time)
    for trace in reader.traces():
        if trace.get("recovery") and trace.get("opcode") != "StatusMessage":
            reencodes += 1
    losses = sum(1 for _, text in timeline_events(reader) if text.startswith("LOSS"))
    return {
        "nacks": nacks,
        "nack_bytes": nack_bytes,
        "losses": losses,
        "reencodes": reencodes,
        "end": end,
    }


def main() -> None:
    print(f"{UPDATES} display updates, {WIDTH}x{HEIGHT} console")
    print("(all columns reconstructed from the .slimcap wire capture)")
    print()
    header = (
        f"{'loss':>5}  {'pixel-exact':>11}  {'lost frames':>11}  "
        f"{'NACKs':>6}  {'NACK bytes':>10}  {'re-encodes':>10}  {'time':>8}"
    )
    print(header)
    print("-" * len(header))
    timeline = None
    with tempfile.TemporaryDirectory() as scratch:
        for loss_rate in LOSS_RATES:
            capture = Path(scratch) / f"loss_{int(loss_rate * 100)}.slimcap"
            channel = run_session(loss_rate, capture)
            exact = channel.converged and channel.resolved
            stats = capture_stats(SlimcapReader(capture))
            print(
                f"{loss_rate:>5.0%}  {str(exact):>11}  {stats['losses']:>11}  "
                f"{stats['nacks']:>6}  {stats['nack_bytes']:>10,}  "
                f"{stats['reencodes']:>10}  {stats['end'] * 1000:>6.0f}ms"
            )
            if not exact:
                raise SystemExit(
                    f"FAILED: loss {loss_rate:.0%} did not converge"
                )
            if loss_rate == max(LOSS_RATES):
                timeline = [
                    (when, text)
                    for when, text in timeline_events(SlimcapReader(capture))
                    if not text.startswith(("SYNC", "FRONTIER"))
                ]
    print()
    print(f"recovery timeline at {max(LOSS_RATES):.0%} loss "
          f"(LOSS -> NACK -> re-encode -> RECOVERED):")
    for when, text in timeline[:18]:
        print(f"  {when * 1000:>9.3f} ms  {text}")
    if len(timeline) > 18:
        print(f"  ... {len(timeline) - 18} more events "
              f"(see python -m repro.tools.postmortem --timeline on a "
              f"--record bundle)")
    print()
    print("every session converged pixel-exact: in-band NACKs plus the")
    print("status exchange recover all loss, with no out-of-band channel")


if __name__ == "__main__":
    main()
