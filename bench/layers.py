"""The one table of what the traced run wraps: ``(layer, dotted.path)``.

Layers are this repository's packages.  Each path is a public entry
point at a layer boundary; the traced run replaces it with a span
wrapper (``tracing.install``) before the runner builds anything, so
objects constructed afterwards bind the wrapped methods.  A path that no
longer resolves fails the traced run by name — and only the traced run:
the end-to-end run never imports this file.
"""

from __future__ import annotations

#: Reported layers, in pipeline order.
LAYERS = (
    "workloads",
    "framebuffer",
    "server",
    "core.encoder",
    "core.wire",
    "transport",
    "netsim",
    "loadgen",
    "console",
    "obs",
    "experiments",
)

TARGETS = (
    # Workload synthesis: input timing, display updates, the user study.
    ("workloads", "repro.workloads.input_model.InputModel.sample_session"),
    ("workloads", "repro.workloads.display_model.DisplayModel.sample_update"),
    # Patched where ``get_study`` looks it up: ``userstudy`` binds the
    # name at import, so a wrapper on ``repro.workloads.session`` never runs.
    ("workloads", "repro.experiments.userstudy.run_user_study"),
    # Server side of the pixel pipeline.
    ("framebuffer", "repro.framebuffer.painter.Painter.apply"),
    ("framebuffer", "repro.framebuffer.framebuffer.FrameBuffer.equals"),
    ("server", "repro.server.slimdriver.SlimDriver.update"),
    ("core.encoder", "repro.core.encoder.SlimEncoder.encode_op"),
    ("core.encoder", "repro.core.encoder.SlimEncoder.encode_ops"),
    ("core.encoder", "repro.core.encoder.SlimEncoder.encode_damage"),
    ("core.wire", "repro.core.wire.WireCodec.fragment"),
    ("core.wire", "repro.core.wire.WireCodec.accept"),
    # The reliable display channel, both halves.
    ("transport", "repro.transport.server.ServerChannel.send_command"),
    ("transport", "repro.transport.server.ServerChannel.handle_packet"),
    ("transport", "repro.transport.console.ConsoleChannel.handle_packet"),
    ("transport", "repro.transport.console.ConsoleChannel.send_command"),
    # The fabric: the engine's run loop and the two ways into a link.
    ("netsim", "repro.netsim.engine.Simulator.run"),
    ("netsim", "repro.netsim.engine.Simulator.run_until"),
    ("netsim", "repro.netsim.transport.Network.send"),
    ("netsim", "repro.netsim.transport.Network.send_burst"),
    # Background load and the yardstick probe.
    ("loadgen", "repro.loadgen.generator.NetworkLoadGenerator.start"),
    ("loadgen", "repro.loadgen.generator.NetworkLoadGenerator._schedule_interval"),
    ("loadgen", "repro.loadgen.yardstick.NetworkYardstick.start"),
    ("loadgen", "repro.loadgen.yardstick.NetworkYardstick.handle_server_packet"),
    ("loadgen", "repro.loadgen.yardstick.NetworkYardstick.handle_console_packet"),
    # The console: queueing, and the decode its timed finish performs.
    ("console", "repro.console.console.Console.process"),
    ("console", "repro.console.console.Console.enqueue"),
    ("console", "repro.console.console.Console.key_event"),
    ("console", "repro.console.console.Console.mouse_event"),
    ("console", "repro.core.decoder.SlimDecoder.apply"),
    # Observers: every public hook of the tracer and the ring capture.
    ("obs", "repro.obs.causal.TraceCollector.begin_probe"),
    ("obs", "repro.obs.causal.TraceCollector.end_probe"),
    ("obs", "repro.obs.causal.TraceCollector.begin_update"),
    ("obs", "repro.obs.causal.TraceCollector.end_update"),
    ("obs", "repro.obs.causal.TraceCollector.message_sent"),
    ("obs", "repro.obs.causal.TraceCollector.message_superseded"),
    ("obs", "repro.obs.causal.TraceCollector.reassembled"),
    ("obs", "repro.obs.causal.TraceCollector.decode_start"),
    ("obs", "repro.obs.causal.TraceCollector.painted"),
    ("obs", "repro.obs.causal.TraceCollector.command_dropped"),
    ("obs", "repro.obs.causal.TraceCollector.packet_event"),
    ("obs", "repro.obs.capture.RingSlimcapWriter.frame"),
    ("obs", "repro.obs.capture.RingSlimcapWriter.trace"),
    # The runner's shell: parse, arm, render, flush.
    ("experiments", "repro.experiments.__main__.main"),
)

#: Methods that return the callback doing the work; the callback is what
#: gets wrapped.  The load generator's bursts reach the engine only as
#: closures, so its two private scheduling steps are the seam.
FACTORY_TARGETS = (
    ("loadgen", "repro.loadgen.generator.NetworkLoadGenerator._burst_sender"),
)

#: Spans that only dispatch other work; what runs directly beneath one
#: of them is the root of a trace.
DISPATCHERS = frozenset(
    {
        "repro.netsim.engine.Simulator.run",
        "repro.netsim.engine.Simulator.run_until",
        "repro.experiments.__main__.main",
    }
)
