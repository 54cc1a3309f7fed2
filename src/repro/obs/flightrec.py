"""The flight recorder: always-on, bounded-memory post-mortem evidence.

The SLO engine (:mod:`repro.obs.slo`) can say a keystroke-echo spike
happened; this module makes sure that when it does, the *evidence* —
the wire frames around the spike, the implicated causal traces, the
telemetry windows, what the engine was doing — still exists.  Everything
is a ring: a byte-budgeted :class:`RingSlimcapWriter` over tapped
frames, a deque of recently closed traces, the last K telemetry
windows, and coarse engine marks.  Rings hold what was
handed to them — datagrams, trace objects — and render bytes and
dicts only when frozen, so a record costs an append and an untapped
path nothing at all: the recorder is safe to arm by default.

When a trigger fires — a streaming SLO violation, the loss-burst
detector, a KeyboardInterrupt, or a crash — the rings are
frozen into a self-describing ``.slimpm`` bundle: a zip holding

* ``manifest.json`` — what fired, when, counts, config snapshot;
* ``ring.slimcap``  — the frozen wire ring (a valid capture file);
* ``traces.jsonl``  — closed trace/probe records plus open partials;
* ``timeseries.jsonl`` / ``slo.jsonl`` — the window slice and its
  verdict, in the standard schemas;
* ``engine.json``   — engine marks and phase notes.

``python -m repro.tools.postmortem`` triages the result.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import zipfile
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.capture import RingSlimcapWriter, SlimcapWriter
from repro.obs.causal import MessageTrace, TraceCollector
from repro.obs.slo import (
    INTERACTIVITY_SLOS,
    SloEngine,
    SloSpec,
    WindowGrader,
)
from repro.obs.timeseries import RunSeries, TimeSeriesCollection, write_jsonl

__all__ = [
    "FlightRecorder",
    "BUNDLE_SUFFIX",
    "BUNDLE_FORMAT",
    "BUNDLE_VERSION",
]

BUNDLE_FORMAT = "slimpm"
BUNDLE_VERSION = 1
BUNDLE_SUFFIX = ".slimpm"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "run"


class FlightRecorder:
    """Bounded rings over a run's observable surfaces, frozen on anomaly.

    Args:
        out_dir: Where ``.slimpm`` bundles land.  ``None`` makes this a
            rings-only recorder (a forked sweep cell's): triggers are
            recorded but nothing is written — the parent absorbs.
        label: Run label stamped on bundles and filenames.
        specs: SLO set checked stream-wise against arriving windows.
        capture_bytes: Byte budget for the wire-frame ring.
        max_traces: Closed trace/probe records kept resident.
        max_windows: Telemetry windows kept resident.
        max_bundles: Dump at most this many bundles per run (triggers
            past the cap are still recorded in :attr:`triggers`).
        config: Snapshot of run configuration for the manifest.
    """

    def __init__(
        self,
        out_dir: Union[str, Path, None] = ".",
        label: str = "run",
        specs: Sequence[SloSpec] = INTERACTIVITY_SLOS,
        capture_bytes: int = 1 << 20,
        max_traces: int = 512,
        max_windows: int = 128,
        max_marks: int = 256,
        max_bundles: int = 3,
        config: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.label = label
        self.specs = tuple(specs)
        self.capture = RingSlimcapWriter(max_bytes=capture_bytes)
        #: Closed MessageTrace objects and records (probes', and the
        #: closed traces absorbed from sweep cells), newest last.
        self._closed: deque = deque(maxlen=max_traces)
        #: The bounded tracer a run without one of its own traces with.
        self._ring_tracer = TraceCollector(retain=False, max_recent=max_traces)
        self.arm(self._ring_tracer, None)
        self.windows: deque = deque(maxlen=max_windows)
        self.marks: deque = deque(maxlen=max_marks)
        self.triggers: List[Dict[str, Any]] = []
        self.bundles: List[Path] = []
        self.max_bundles = max_bundles
        self.config = dict(config or {})
        self.armed = True
        #: The policy: the event kinds that freeze the rings, and the
        #: streak each fires at.  Tight-budget specs fire on the first
        #: violating window; loose ones (a budget above 10%) need a
        #: 3-window streak first.  A kind not listed (queue build-up) is
        #: advisory.
        self._freeze_at: Dict[str, int] = {"loss_burst": 1}
        for spec in self.specs:
            self._freeze_at[spec.event_kind] = 1 if spec.budget <= 0.10 else 3
        self._graders: Dict[str, WindowGrader] = {}
        self._fired: set = set()
        self._bundle_seq = itertools.count(1)
        self._phase: Optional[str] = None

    # -- wiring ------------------------------------------------------------
    def arm(
        self,
        tracer: Optional[TraceCollector],
        capture: Optional[SlimcapWriter],
    ) -> Tuple[TraceCollector, RingSlimcapWriter]:
        """What a run armed with this recorder traces and captures
        with (``use_run(recorder=...)`` installs the pair).  The tracer
        is the run's own — a retaining one when --trace-events or
        --capture need the full history — or else the recorder's
        bounded one, and closes into the trace ring; the capture is the
        wire ring, mirroring every frame to the run's ``capture`` file
        if it has one."""
        if tracer is None:
            tracer = self.tracer
        self.tracer = tracer
        tracer.completed_sink = tracer.probe_sink = self._closed.append
        if capture is not None:
            self.capture.tee = capture
        return tracer, self.capture

    def owns(
        self,
        tracer: Optional[TraceCollector],
        capture: Optional[SlimcapWriter],
    ) -> bool:
        """Whether ``tracer`` and ``capture`` are this recorder's own
        rings: its bounded tracer, and the wire ring with no file
        behind it."""
        return (
            tracer is self._ring_tracer
            and capture is self.capture
            and self.capture.tee is None
        )

    def for_cell(self) -> "FlightRecorder":
        """The rings-only recorder a forked sweep cell arms in this
        one's place: rings of the same size, no bundle dumping, and
        the phase this one is in."""
        cell = FlightRecorder(
            out_dir=None,
            specs=self.specs,
            capture_bytes=self.capture.max_bytes,
            max_traces=self._closed.maxlen,
            max_marks=self.marks.maxlen,
        )
        cell._phase = self._phase
        return cell

    @property
    def traces(self) -> List[Dict[str, Any]]:
        """The closed trace/probe ring as records, rendered now."""
        return [
            item.to_dict() if isinstance(item, MessageTrace) else item
            for item in self._closed
        ]

    def _trace_records(self) -> List[Dict[str, Any]]:
        """Closed records plus the partials of traces still in flight."""
        return self.traces + [
            dict(trace.to_dict(), open=True)
            for trace in self.tracer.open_traces()
        ]

    # -- telemetry window stream -------------------------------------------
    def observe_window(self, run_label: str, record: Dict[str, Any]) -> None:
        """One telemetry window just closed; ring it, have the run's
        grader grade it, and freeze the rings on the verdicts that
        warrant it."""
        if not self.armed:
            return
        self.windows.append((run_label, record))
        grader = self._graders.get(run_label)
        if grader is None:
            grader = self._graders[run_label] = WindowGrader(
                self.specs, run_label
            )
        for event, streak in grader.grade(record):
            # Each (run, kind) pair fires at most once — the bundle
            # already freezes everything there is to see.
            fired = (run_label, event.kind)
            if streak != self._freeze_at.get(event.kind) or fired in self._fired:
                continue
            self._fired.add(fired)
            self.trigger(
                event.kind,
                run=run_label,
                series=event.series,
                value=event.value,
                threshold=event.threshold,
                trace_ids=event.trace_ids,
                detail=event.detail,
                window=(event.t0, event.t1),
            )

    # -- engine marks ------------------------------------------------------
    def engine_mark(self, sim) -> None:
        """Record a coarse (sim-time, events) point: an engine monitor
        of every simulator built while armed (:meth:`RunContext.attach`)."""
        self.marks.append(
            {"phase": self._phase, "t": sim.now, "events": sim.events_processed}
        )

    def note(self, phase: str) -> None:
        """Annotate subsequent marks/triggers with a phase label (the
        wan_matrix cell, the fleet segment, ...)."""
        self._phase = phase
        self.marks.append({"phase": phase, "note": True})

    # -- triggering --------------------------------------------------------
    def trigger(
        self,
        kind: str,
        run: Optional[str] = None,
        series: Optional[str] = None,
        value: Optional[float] = None,
        threshold: Optional[float] = None,
        trace_ids: Sequence[int] = (),
        detail: str = "",
        window: Optional[Tuple[float, float]] = None,
    ) -> Optional[Path]:
        """An anomaly fired: freeze the rings into a bundle.

        Returns the bundle path, or None when nothing was written (a
        sweep cell's rings-only mode, the bundle cap, or empty rings — an
        interrupt before any evidence existed is not worth a file).
        """
        record: Dict[str, Any] = {
            "kind": kind,
            "run": run,
            "series": series,
            "value": value,
            "threshold": threshold,
            "trace_ids": list(trace_ids),
            "detail": detail,
            "phase": self._phase,
        }
        if window is not None:
            record["t0"], record["t1"] = window
        self.triggers.append(record)
        if self.out_dir is None:
            return None
        if len(self.bundles) >= self.max_bundles:
            return None
        if not self._has_evidence():
            return None
        path = self._dump_bundle(record)
        record["bundle"] = str(path)
        return path

    def _has_evidence(self) -> bool:
        return bool(len(self.capture) or self._closed or self.windows)

    # -- sweep cells -------------------------------------------------------
    def cell_payload(self) -> Dict[str, Any]:
        """The picklable evidence a forked sweep cell ships: its wire
        ring, its closed trace records, its tracer's state, its marks,
        triggers and phase."""
        return {
            "capture": self.capture.export_state(),
            "traces": self.traces,
            "tracer": self.tracer.export_state(),
            "marks": list(self.marks),
            "triggers": list(self.triggers),
            "phase": self._phase,
        }

    def absorb_cells(self, payloads: Iterable[Dict[str, Any]]) -> None:
        """Take up what a sweep's forked cells shipped, in cell order,
        as if each cell had run here in turn: its frames, closed traces
        and marks join the rings (which evict as they would have), and
        this recorder's tracer takes up its ids and traces in flight
        (:meth:`TraceCollector.absorb_state`)."""
        for payload in payloads:
            self.capture.absorb_state(payload["capture"])
            self.tracer.absorb_state(payload["tracer"], payload["traces"])
            self._closed.extend(payload["traces"])
            self.marks.extend(payload["marks"])
            self.triggers.extend(payload["triggers"])
            self._phase = payload["phase"]

    # -- bundle writing ----------------------------------------------------
    def _timeseries(self) -> TimeSeriesCollection:
        collection = TimeSeriesCollection()
        runs: Dict[str, RunSeries] = {}
        for run_label, record in self.windows:
            run = runs.get(run_label)
            if run is None:
                width = max(record["t1"] - record["t0"], 1e-9)
                run = RunSeries(run_label, window=width)
                runs[run_label] = run
                collection.adopt_run(run)
            run.windows.append(record)
        return collection

    def _dump_bundle(self, reason: Dict[str, Any]) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        seq = next(self._bundle_seq)
        path = self.out_dir / f"{_slug(self.label)}-{seq:03d}{BUNDLE_SUFFIX}"
        collection = self._timeseries()
        report = SloEngine(self.specs).evaluate(collection)
        traces = self._trace_records()
        manifest = {
            "format": BUNDLE_FORMAT,
            "version": BUNDLE_VERSION,
            "label": self.label,
            "reason": reason,
            "triggers": list(self.triggers),
            "specs": [spec.to_dict() for spec in self.specs],
            "config": self.config,
            "counts": {
                "ring_frames": len(self.capture),
                "ring_bytes": self.capture.ring_bytes,
                "frames_evicted": self.capture.evicted,
                "traces": len(traces),
                "windows": len(self.windows),
                "marks": len(self.marks),
            },
        }
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:

            def jsonl_member(name: str, records: Iterable[Any]) -> None:
                text = io.StringIO()
                write_jsonl(records, text, compact=True)
                archive.writestr(name, text.getvalue())

            archive.writestr(
                "manifest.json", json.dumps(manifest, indent=2, default=str)
            )
            archive.writestr("ring.slimcap", self.capture.dump_bytes())
            jsonl_member("traces.jsonl", traces)
            jsonl_member("timeseries.jsonl", collection.to_records())
            jsonl_member("slo.jsonl", report.to_records())
            archive.writestr(
                "engine.json",
                json.dumps({"marks": list(self.marks)}, indent=2),
            )
        self.bundles.append(path)
        return path

    # -- status ------------------------------------------------------------
    @property
    def last_bundle(self) -> Optional[Path]:
        return self.bundles[-1] if self.bundles else None

    def status_line(self) -> str:
        """One dashboard-footer line: armed state, trigger count, last
        bundle path."""
        if not self.triggers:
            return "armed" if self.armed else "disarmed"
        latest = self.triggers[-1]
        where = latest.get("run") or latest.get("phase") or ""
        head = f"TRIGGERED x{len(self.triggers)} ({latest['kind']}"
        head += f" {where})" if where else ")"
        if self.last_bundle is not None:
            head += f" | last bundle: {self.last_bundle}"
        return head
