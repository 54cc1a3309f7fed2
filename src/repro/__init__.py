"""repro — a reproduction of "The Interactive Performance of SLIM: a
Stateless, Thin-Client Architecture" (Schmidt, Lam & Northcutt, SOSP '99).

The package implements the complete SLIM system in simulation:

* :mod:`repro.core` — the SLIM protocol: display commands, wire format,
  encoder/decoder, console cost model, bandwidth allocation.
* :mod:`repro.framebuffer` — rectangles, pixels, YUV, painting.
* :mod:`repro.netsim` — the switched interconnection fabric.
* :mod:`repro.transport` — the reliable display channel (loss
  recovery by stateless re-encode, NACKs, status exchange).
* :mod:`repro.console` — the Sun Ray 1 desktop unit.
* :mod:`repro.server` — machines, CPU scheduling, display drivers, the
  x11perf model.
* :mod:`repro.xproto` — X11 / raw-pixel / VNC baselines.
* :mod:`repro.workloads` — the Table 2 benchmark applications plus
  video and Quake.
* :mod:`repro.loadgen` — trace playback and yardstick applications.
* :mod:`repro.analysis` — traces, CDFs, statistics.
* :mod:`repro.monitor` — the Section 6.3 case studies.
* :mod:`repro.telemetry` — zero-dependency metrics for the
  reproduction's own hot paths (off by default).
* :mod:`repro.runcontext` — the one ambient seam: what the current run
  collects (registry, tracer, capture, series, recorder, progress).
* :mod:`repro.experiments` — one module per paper table/figure.
* :mod:`repro.obs` — what a run can arm: causal tracing, wire capture,
  time series, SLOs, the flight recorder, the live progress painter.

Quick start::

    from repro import Console, FrameBuffer, Painter, PaintOp, PaintKind
    from repro import Rect, SlimDriver, SlimEncoder

    fb = FrameBuffer(1280, 1024)
    console = Console(1280, 1024)
    driver = SlimDriver(
        encoder=SlimEncoder(), framebuffer=fb,
        send=lambda c: console.enqueue(c),
    )
    op = PaintOp(PaintKind.FILL, Rect(0, 0, 1280, 1024), color=(32, 32, 64))
    driver.update(0.0, [op])  # paints, encodes, and sends
"""

from repro.errors import (
    ReproError,
    ProtocolError,
    WireFormatError,
    GeometryError,
    SimulationError,
    SchedulerError,
    BandwidthError,
    WorkloadError,
)
from repro.framebuffer import (
    FrameBuffer,
    Rect,
    Painter,
    PaintOp,
    PaintKind,
)
from repro.core import (
    SetCommand,
    BitmapCommand,
    FillCommand,
    CopyCommand,
    CscsCommand,
    KeyEvent,
    MouseEvent,
    WireCodec,
    Datagram,
    SlimEncoder,
    EncoderConfig,
    SlimDecoder,
    ConsoleCostModel,
    SUN_RAY_1_COSTS,
    BandwidthAllocator,
)
from repro.console import Console, MicroOpModel
from repro.server import SlimDriver, Scheduler
from repro.netsim import (
    Endpoint,
    LocalBackend,
    Network,
    Packet,
    Simulator,
)
from repro.transport import DisplayChannel, ConsoleChannel, ServerChannel
from repro.runcontext import RunContext, current_run, use_run
from repro.telemetry import MetricsRegistry, get_registry
from repro.workloads import BENCHMARK_APPS, UserSession, run_user_study

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ProtocolError",
    "WireFormatError",
    "GeometryError",
    "SimulationError",
    "SchedulerError",
    "BandwidthError",
    "WorkloadError",
    "FrameBuffer",
    "Rect",
    "Painter",
    "PaintOp",
    "PaintKind",
    "SetCommand",
    "BitmapCommand",
    "FillCommand",
    "CopyCommand",
    "CscsCommand",
    "KeyEvent",
    "MouseEvent",
    "WireCodec",
    "Datagram",
    "SlimEncoder",
    "EncoderConfig",
    "SlimDecoder",
    "ConsoleCostModel",
    "SUN_RAY_1_COSTS",
    "BandwidthAllocator",
    "Console",
    "MicroOpModel",
    "SlimDriver",
    "Scheduler",
    "LocalBackend",
    "Simulator",
    "Network",
    "Endpoint",
    "Packet",
    "DisplayChannel",
    "ConsoleChannel",
    "ServerChannel",
    "MetricsRegistry",
    "get_registry",
    "RunContext",
    "current_run",
    "use_run",
    "BENCHMARK_APPS",
    "UserSession",
    "run_user_study",
    "__version__",
]
