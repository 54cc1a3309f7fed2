"""The run context: the one ambient seam.

Everything a run arms — a telemetry registry, a causal tracer, a wire
capture, a time-series collection, a flight recorder, a progress
painter — hangs off one :class:`RunContext`, read with
:func:`current_run` and installed only by :func:`use_run`::

    with use_run(registry=MetricsRegistry(), progress=ProgressMonitor()):
        ...  # components and simulators built here pick both up

This is the only way in — no constructor takes a registry, a tracer or
a capture.  A component reads ``current_run()`` once, in its own
constructor, and guards its hot paths on what it found (``None`` or a
disabled registry costs one test per hook): it reports to the run it
is *built under*, also after that ``with`` block exits.
``Network.attach`` constructs the links, so a rig builds its network
*and* attaches its endpoints inside the one block.  A
:class:`~repro.netsim.engine.Simulator` asks the context to
:meth:`~RunContext.attach` its periodic observers as it is built.  The
root context holds nothing, so an unarmed run pays nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.telemetry.metrics import MetricsRegistry, NullRegistry

if TYPE_CHECKING:  # pragma: no cover - the observers import this module
    from repro.netsim.engine import Simulator
    from repro.obs.capture import SlimcapWriter
    from repro.obs.causal import TraceCollector
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.timeseries import TimeSeriesCollection
    from repro.obs.progress import ProgressMonitor

__all__ = ["MARK_EVERY", "RunContext", "current_run", "use_run"]

#: Events between the flight recorder's engine marks.  The sampler
#: (512) and the painter (5000) carry their own ``every``.
MARK_EVERY = 20_000

_NULL_REGISTRY = NullRegistry()


@dataclass
class RunContext:
    """What the current run collects, and with what.

    What is armed also decides how a sweep runs its cells: forked side
    by side when the run is :meth:`rings_only`, else in this process
    under this context, so every observer sees every cell.

    Attributes:
        registry: Telemetry sink; a disabled :class:`NullRegistry`
            unless a run installs one.
        tracer: Causal update tracer; ``None`` disables trace events.
        capture: Wire-capture writer; ``None`` disables frame capture.
        collection: Time-series collection every simulator is sampled
            into; ``None`` disables sampling.
        recorder: The armed flight recorder, or ``None``.
        progress: The live progress/dashboard painter, or ``None``.
    """

    registry: MetricsRegistry = _NULL_REGISTRY
    tracer: Optional["TraceCollector"] = None
    capture: Optional["SlimcapWriter"] = None
    collection: Optional["TimeSeriesCollection"] = None
    recorder: Optional["FlightRecorder"] = None
    progress: Optional["ProgressMonitor"] = None

    def attach(self, sim: "Simulator") -> None:
        """Give a new simulator this run's periodic observers: the
        shared painter, a sampler of its own and the recorder's engine
        marks."""
        if self.progress is not None:
            sim.add_monitor(self.progress)
        if self.collection is not None:
            sim.add_monitor(self.collection.sample(sim))
        if self.recorder is not None:
            sim.add_monitor(self.recorder.engine_mark, every=MARK_EVERY)

    # -- sweep cells -------------------------------------------------------
    def rings_only(self) -> bool:
        """Whether this run observes nothing but its flight recorder's
        rings (or nothing at all): no registry, no tracer or capture of
        its own, no collection, no painter.  Only such a run lets
        :func:`~repro.experiments.runner.sweep` fork its cells, because
        the rings are the one observer a cell can ship back whole."""
        if (
            self.registry.enabled
            or self.collection is not None
            or self.progress is not None
        ):
            return False
        if self.recorder is None:
            return self.tracer is None and self.capture is None
        return self.recorder.owns(self.tracer, self.capture)

    def for_cell(self) -> Dict[str, Any]:
        """The fields a forked :func:`~repro.experiments.runner.sweep`
        cell replaces in the context it inherited: a rings-only recorder
        with its own bounded tracer and wire ring, whose rings the
        parent absorbs."""
        if self.recorder is None:
            return {}
        return {"recorder": self.recorder.for_cell(), "tracer": None, "capture": None}

    def cell_evidence(self) -> Optional[Dict[str, Any]]:
        """What a forked sweep cell ships when it ends, answered or
        failed (picklable): its recorder's rings."""
        if self.recorder is None:
            return None
        return self.recorder.cell_payload()

    def absorb(self, evidence: List[Optional[Dict[str, Any]]]) -> None:
        """Fold the cells' :meth:`cell_evidence`, in cell order, into
        this run's recorder."""
        if self.recorder is not None:
            self.recorder.absorb_cells(evidence)


_current = RunContext()


def current_run() -> RunContext:
    """The installed run context (never ``None``)."""
    return _current


@contextmanager
def use_run(**fields: Any) -> Iterator[RunContext]:
    """Install the current context with ``fields`` replaced; the
    previous one comes back on exit.

    Nests and composes field-wise: an inner ``use_run(collection=c)``
    keeps the outer registry.  Arming a ``recorder`` also points the
    run's tracer and capture at its rings (see
    :meth:`FlightRecorder.arm`).  A ``collection`` or ``progress``
    installed here is finished on exit, after the outer context is
    back — windows flushed then are stored, not graded by a recorder
    that is no longer armed.
    """
    global _current
    previous = _current
    run = replace(previous, **fields)
    if fields.get("recorder") is not None:
        run.tracer, run.capture = run.recorder.arm(run.tracer, run.capture)
    _current = run
    try:
        yield run
    finally:
        _current = previous
        for name in ("collection", "progress"):
            if fields.get(name) is not None:
                fields[name].finish()
