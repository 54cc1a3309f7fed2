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
    from repro.obs.timeseries import RunSeries, TimeSeriesCollection
    from repro.obs.progress import ProgressMonitor

__all__ = ["MARK_EVERY", "RunContext", "current_run", "use_run"]

#: Events between the flight recorder's engine marks.  The sampler
#: (512) and the painter (5000) carry their own ``every``.
MARK_EVERY = 20_000

_NULL_REGISTRY = NullRegistry()


@dataclass
class RunContext:
    """What the current run collects, and with what.

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
    def for_cell(self, index: int) -> Dict[str, Any]:
        """The fields a :func:`~repro.experiments.runner.sweep` cell
        replaces in the context its child inherited through ``fork``: no
        painter (N processes racing on one stderr line), a series of its
        own, and a rings-only recorder with its own tracer and wire ring
        — the parent absorbs what the cell ships.  Registry, and
        tracer/capture when no recorder is armed, stay as inherited."""
        fields: Dict[str, Any] = {"progress": None}
        if self.collection is not None:
            fields["collection"] = self.collection.for_cell(index)
        if self.recorder is not None:
            fields.update(
                recorder=self.recorder.for_cell(index),
                tracer=None,
                capture=None,
            )
        return fields

    def cell_evidence(self, index: int) -> Dict[str, Any]:
        """What a sweep cell ships when it returns (picklable): every
        run it sampled — a cell may build several simulators — and its
        recorder's rings."""
        series: List["RunSeries"] = []
        if self.collection is not None:
            self.collection.finish_samplers()
            series = [run for run in self.collection.runs if run.windows]
        return {
            "series": series,
            "flight": (
                self.recorder.cell_payload(index)
                if self.recorder is not None
                else None
            ),
        }

    def absorb(self, evidence: List[Dict[str, Any]]) -> None:
        """Fold the cells' :meth:`cell_evidence`, in cell order, into
        this run's observers: every run they sampled merges into one run
        of this run's collection, and their rings join the recorder's."""
        runs = [run for shipped in evidence for run in shipped["series"]]
        if runs:
            from repro.obs.timeseries import merge_runs

            # A cell samples only when this run has a collection.
            merged = merge_runs(runs, label=self.collection.next_label())
            self.collection.adopt_run(merged)
            if self.recorder is not None:
                # Sampled out of process, visible only now: stream the
                # merged windows past the armed recorder.
                for record in merged.windows:
                    self.recorder.observe_window(merged.label, record)
        if self.recorder is not None:
            self.recorder.absorb_cells(shipped["flight"] for shipped in evidence)


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
