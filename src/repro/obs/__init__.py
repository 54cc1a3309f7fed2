"""repro.obs — causal tracing, wire capture, windowed series and SLOs.

The observability layer turns the telemetry subsystem's aggregates into
per-event and per-second evidence:

* :class:`~repro.obs.causal.TraceCollector` assigns a ``trace_id``
  where each display update (or input event) is born and follows it
  through encode, fragmentation, the fabric's links and switch,
  reassembly, decode, and paint — yielding a stage-by-stage latency
  breakdown per update whose stages sum exactly to the observed
  end-to-end simulated latency.
* :class:`~repro.obs.capture.SlimcapWriter` records the framed protocol
  messages crossing any tapped link into a compact ``.slimcap`` capture.
* :class:`~repro.obs.timeseries.TimeSeriesCollection` rolls the
  registry into sim-time windows, a series per simulator; each series'
  :class:`~repro.obs.slo.WindowGrader` grades a window once, as it
  closes, the :class:`FlightRecorder` freezes its rings on those
  answers, and the collection's :class:`~repro.obs.slo.SloReport` is
  the graders' verdict.
* :mod:`~repro.obs.flightrec` writes and reads the one evidence file,
  the ``.slimpm`` bundle: the recorder's rings frozen on an anomaly, or
  a whole run (:class:`RunRecord`, the experiment CLI's ``--record``).
  ``python -m repro.tools.postmortem``, the one reader, draws it:
  Table-4-style per-command statistics, latency tables, NACK timelines,
  sparklines of the series, the saved SLO verdict, and Chrome
  ``trace_event`` JSON.
* :func:`repro.runcontext.use_run` (``tracer=``, ``capture=``,
  ``collection=``, ``recorder=``) installs them for a run; the
  experiment CLI's ``--record``, ``--slo`` and ``--dashboard`` flags do
  this for you.

Nothing is installed unless a run installs it (the experiment CLI arms
the :class:`FlightRecorder`'s bounded rings by default), and the
disabled path costs a single ``is None`` check per hook — no
allocations, no null objects.
"""

from repro.obs.capture import (
    CapturedMessage,
    CaptureRecord,
    RingSlimcapWriter,
    SlimcapReader,
    SlimcapWriter,
)
from repro.obs.flightrec import Bundle, BundleError, FlightRecorder, RunRecord, load_bundle
from repro.obs.causal import (
    STAGES,
    MessageTrace,
    TraceCollector,
    UpdateTrace,
    chrome_trace_events,
    stage_percentiles,
)
from repro.obs.slo import (
    INTERACTIVITY_SLOS,
    HealthEvent,
    SloReport,
    SloResult,
    SloSpec,
    validate_slo_records,
)
from repro.obs.timeseries import (
    RunSeries,
    TimeSeriesCollection,
    TimeSeriesSampler,
    validate_timeseries_records,
)

__all__ = [
    "INTERACTIVITY_SLOS",
    "STAGES",
    "Bundle",
    "BundleError",
    "CaptureRecord",
    "CapturedMessage",
    "FlightRecorder",
    "HealthEvent",
    "MessageTrace",
    "RingSlimcapWriter",
    "RunRecord",
    "RunSeries",
    "SlimcapReader",
    "SlimcapWriter",
    "SloReport",
    "SloResult",
    "SloSpec",
    "TimeSeriesCollection",
    "TimeSeriesSampler",
    "TraceCollector",
    "UpdateTrace",
    "chrome_trace_events",
    "load_bundle",
    "stage_percentiles",
    "validate_slo_records",
    "validate_timeseries_records",
]
