"""The flight recorder: always-on, bounded-memory post-mortem evidence.

A run's SLO grader (:mod:`repro.obs.slo`) can say a keystroke-echo spike
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
* ``timeseries.jsonl`` / ``slo.jsonl`` — the window slice and the
  verdict so far of the runs it holds, in the standard schemas;
* ``engine.json``   — engine marks and phase notes.

The runner's ``--record`` writes the same format for a whole run
(:class:`RunRecord`): the full capture, every trace, probe and
window, the verdict, and ``metrics.json``, the registry snapshot.
The format is written and read here only (:func:`write_bundle`, and
:func:`load_bundle`, its one check), every JSON member under one rule
(:func:`~repro.telemetry.report.jsonable`);
``python -m repro.tools.postmortem`` triages the result.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import shutil
import zipfile
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.obs.capture import RingSlimcapWriter, SlimcapReader, SlimcapWriter
from repro.obs.causal import MessageTrace, TraceCollector
from repro.obs.slo import HealthEvent, SloReport, SloSpec, validate_slo_records
from repro.obs.timeseries import (
    RunSeries, TimeSeriesCollection, validate_timeseries_records, write_jsonl
)
from repro.telemetry.report import from_jsonable, jsonable

__all__ = [
    "FlightRecorder",
    "Bundle",
    "BundleError",
    "RunRecord",
    "load_bundle",
    "write_bundle",
    "BUNDLE_SUFFIX",
    "BUNDLE_FORMAT",
    "BUNDLE_VERSION",
]

BUNDLE_FORMAT = "slimpm"
BUNDLE_VERSION = 1
BUNDLE_SUFFIX = ".slimpm"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "run"


def _freeze_at(specs: Sequence[SloSpec]) -> Dict[str, int]:
    """The freeze policy: the event kinds that freeze the rings, and
    the streak each fires at, for a run graded with ``specs``.
    Tight-budget specs fire on the first violating window; loose ones
    (a budget above 10%) need a 3-window streak first.  A kind not
    listed (queue build-up) is advisory."""
    streaks = {spec.event_kind: 1 if spec.budget <= 0.10 else 3 for spec in specs}
    return {"loss_burst": 1, **streaks}


class FlightRecorder:
    """Bounded rings over a run's observable surfaces, frozen on anomaly.

    Args:
        out_dir: Where ``.slimpm`` bundles land.  ``None`` makes this a
            rings-only recorder (a forked sweep cell's): triggers are
            recorded but nothing is written — the parent absorbs.
        label: Run label stamped on bundles and filenames.
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
        capture_bytes: int = 1 << 20,
        max_traces: int = 512,
        max_windows: int = 128,
        max_marks: int = 256,
        max_bundles: int = 3,
        config: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.label = label
        self.capture = RingSlimcapWriter(max_bytes=capture_bytes)
        #: Closed MessageTrace objects and records (probes', and the
        #: closed traces absorbed from sweep cells), newest last.
        self._closed: deque = deque(maxlen=max_traces)
        #: The bounded tracer a run without one of its own traces with.
        self._ring_tracer = TraceCollector(retain=False, max_recent=max_traces)
        self.arm(self._ring_tracer, None)
        #: (the run, the window) pairs, newest last.
        self.windows: deque = deque(maxlen=max_windows)
        self.marks: deque = deque(maxlen=max_marks)
        self.triggers: List[Dict[str, Any]] = []
        self.bundles: List[Path] = []
        self.max_bundles = max_bundles
        self.config = dict(config or {})
        self.armed = True
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
        is the run's own — a retaining one when ``--record`` or
        sampling need the full history — or else the recorder's
        bounded one, and closes into the trace ring; the capture is the
        wire ring, mirroring every frame to the run's ``capture`` file
        (the record's) if it has one."""
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
    def observe_window(
        self,
        run: RunSeries,
        record: Dict[str, Any],
        verdicts: Sequence[Tuple[HealthEvent, int]],
    ) -> None:
        """A window of ``run`` just closed and its grader answered
        ``verdicts`` (:meth:`RunSeries.append_window`); ring the window,
        and freeze the rings on the answers that warrant it."""
        if not self.armed:
            return
        self.windows.append((run, record))
        freeze_at = _freeze_at(run.grader.specs) if verdicts else {}
        for event, streak in verdicts:
            # Each (run, kind) pair fires at most once — the bundle
            # already freezes everything there is to see.
            fired = (run.label, event.kind)
            if streak != freeze_at.get(event.kind) or fired in self._fired:
                continue
            self._fired.add(fired)
            self.trigger(
                event.kind,
                run=run.label,
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
    def _slice(self) -> Tuple[TimeSeriesCollection, SloReport]:
        """The window ring as a collection, a run per series it holds
        windows of, and the verdict so far of those series: graded
        whole and live, not re-graded over the slice."""
        collection = TimeSeriesCollection()
        copies: Dict[RunSeries, RunSeries] = {}
        for run, record in self.windows:
            copy = copies.get(run)
            if copy is None:
                width = max(record["t1"] - record["t0"], 1e-9)
                copy = copies[run] = RunSeries(run.label, window=width)
                collection.adopt_run(copy)
            copy.windows.append(record)
        return collection, SloReport.of(run.grader for run in copies)

    def _dump_bundle(self, reason: Dict[str, Any]) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        seq = next(self._bundle_seq)
        path = self.out_dir / f"{_slug(self.label)}-{seq:03d}{BUNDLE_SUFFIX}"
        collection, report = self._slice()
        traces = self._trace_records()
        manifest = {
            "label": self.label,
            "reason": reason,
            "triggers": list(self.triggers),
            "specs": [spec.to_dict() for spec in report.specs],
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
        write_bundle(
            path,
            manifest,
            {
                "ring.slimcap": self.capture.dump_bytes(),
                "traces.jsonl": traces,
                "timeseries.jsonl": collection.to_records(),
                "slo.jsonl": report.to_records(),
                "engine.json": {"marks": list(self.marks)},
            },
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


# ---------------------------------------------------------------------------
# The bundle format: written and read here only
# ---------------------------------------------------------------------------


def _json_document(value: Any) -> str:
    return json.dumps(jsonable(value), indent=2, default=str)


def write_bundle(
    path: Path, manifest: Dict[str, Any], members: Dict[str, Any]
) -> Path:
    """Write one ``.slimpm`` bundle: ``manifest.json`` (``manifest``
    stamped with the format and version), then each of ``members`` by
    name — bytes as they are, a :class:`~pathlib.Path` as its file's
    bytes, a ``.jsonl`` member's records one compact line each, a
    ``.json`` member's document indented.  Every JSON member is strict
    (:func:`~repro.telemetry.report.jsonable`), and no member carries a
    clock: the same evidence is the same bytes."""
    manifest = {"format": BUNDLE_FORMAT, "version": BUNDLE_VERSION, **manifest}
    with zipfile.ZipFile(path, "w") as archive:
        for name, member in {"manifest.json": manifest, **members}.items():
            info = zipfile.ZipInfo(name)
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            with archive.open(info, "w") as raw:
                if isinstance(member, bytes):
                    raw.write(member)
                elif isinstance(member, Path):
                    with member.open("rb") as source:
                        shutil.copyfileobj(source, raw)
                elif name.endswith(".jsonl"):
                    with io.TextIOWrapper(raw, encoding="utf-8", newline="") as text:
                        write_jsonl(member, text, compact=True)
                else:
                    raw.write(_json_document(member).encode("utf-8"))
    return path


class RunRecord:
    """What ``--record`` adds to a run: the wire capture, streamed to
    disk as the run goes, and at exit (:meth:`write`) one bundle of the
    whole run, ``<label>.slimpm`` in ``out_dir`` beside the numbered
    anomaly bundles."""

    def __init__(
        self,
        out_dir: Union[str, Path],
        label: str,
        config: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.label = label
        self.config = dict(config or {})
        self.path = Path(out_dir) / f"{_slug(label)}{BUNDLE_SUFFIX}"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.capture = SlimcapWriter(self.path.with_suffix(".slimcap"))

    def write(
        self,
        tracer: TraceCollector,
        collection: TimeSeriesCollection,
        metrics: List[Dict[str, Any]],
        recorder: Optional[FlightRecorder] = None,
    ) -> Path:
        """Zip the run into :attr:`path`: the capture file, with the
        completed traces embedded after its frames, as ``ring.slimcap``
        (the file is removed once zipped); every completed trace, probe
        round and partial in flight; every window of ``collection`` and
        its runs' verdict; ``metrics``, the registry snapshot; and
        the recorder's marks and triggers if one was armed."""
        capture = self.capture
        completed = tracer.completed_messages()
        for trace in completed:
            capture.trace(trace.to_dict(), now=trace.sent_at)
        capture.close()
        in_flight = tracer.open_traces()
        report = collection.slo_report()
        marks = list(recorder.marks) if recorder is not None else []
        manifest = {
            "label": self.label,
            "reason": {"kind": "record", "detail": "the whole run, at exit"},
            "triggers": list(recorder.triggers) if recorder is not None else [],
            "specs": [spec.to_dict() for spec in report.specs],
            "config": self.config,
            "counts": {
                "ring_frames": capture.frames_written,
                "ring_bytes": capture.path.stat().st_size,
                "frames_evicted": 0,
                "traces": len(completed) + len(tracer.probes) + len(in_flight),
                "windows": sum(len(run.windows) for run in collection.runs),
                "marks": len(marks),
            },
        }
        traces = itertools.chain(
            (trace.to_dict() for trace in completed),
            tracer.probes,
            (dict(trace.to_dict(), open=True) for trace in in_flight),
        )
        write_bundle(
            self.path,
            manifest,
            {
                "ring.slimcap": capture.path,
                "traces.jsonl": traces,
                "timeseries.jsonl": collection.to_records(),
                "slo.jsonl": report.to_records(),
                "engine.json": {"marks": marks},
                "metrics.json": metrics,
            },
        )
        capture.path.unlink()
        return self.path


class BundleError(ReproError):
    """The file is not a readable .slimpm bundle."""


#: What reading a damaged archive raises: a bad header or CRC, a cut
#: deflate stream, a member flagged encrypted (RuntimeError) or packed
#: by a method zipfile lacks (NotImplementedError).
_UNREADABLE_ZIP = (
    zipfile.BadZipFile,
    zlib.error,
    EOFError,
    OSError,
    NotImplementedError,
    RuntimeError,
)


# -- what the readers read of each member, with its type -------------------
#
# A spec is a type (``float`` is any number; a ``bool`` is no number),
# None, a tuple (any one of its specs), ``[spec]`` (a list of values of
# the spec), ``[spec, spec]`` (a pair), ``{str: spec}`` (an object
# mapping any keys to values of the spec), or a shape: an object that
# holds each key (optional with a trailing ``?``) with a value of its spec.


def _conforms(value: Any, spec: Any) -> bool:
    if isinstance(spec, tuple):
        return any(_conforms(value, alternative) for alternative in spec)
    if isinstance(spec, list):
        if not isinstance(value, list):
            return False
        if len(spec) == 1:
            return all(_conforms(item, spec[0]) for item in value)
        return len(value) == len(spec) and all(map(_conforms, value, spec))
    if isinstance(spec, dict):
        if str in spec:
            return isinstance(value, dict) and all(
                _conforms(item, spec[str]) for item in value.values()
            )
        return _fault(value, spec) is None
    if spec is None:
        return value is None
    if isinstance(value, bool) and spec is not bool:
        return False
    return isinstance(value, (int, float) if spec is float else spec)


def _fault(record: Any, shape: Dict[str, Any]) -> Optional[str]:
    """What ``record`` lacks or mistypes of ``shape``, or None."""
    if not isinstance(record, dict):
        return "is not an object"
    for key, spec in shape.items():
        name = key.rstrip("?")
        if name not in record:
            if name == key:
                return f"lacks {name!r}"
        elif not _conforms(record[name], spec):
            return f"has a mistyped {name!r}"
    return None


#: A trigger (the manifest's reason and triggers) or a health event, as
#: ``postmortem --summary`` describes it.
_TRIGGER = {"kind?": str, "value?": (float, None), "threshold?": (float, None),
            "t0?": (float, None), "t1?": (float, None), "trace_ids?": [int]}
_MANIFEST = {"reason?": _TRIGGER, "triggers?": [_TRIGGER], "counts?": dict}
#: A yardstick round's record in ``traces.jsonl``: one with a ``probe``.
_PROBE = {"trace_id": int, "probe": str, "started_at": float, "duration": (float, None)}
#: A message trace's record, completed or open at the freeze.
_MESSAGE = {"trace_id": int, "opcode": str, "seq": int, "src": str, "dst": str,
            "update_id": (int, None), "update_start": float, "end_to_end": float,
            "stages": {str: float}, "completed": bool, "recovery": bool,
            "recovery_of": (int, None), "open?": bool}
#: A completed trace embedded in ``ring.slimcap``, as ``postmortem
#: --timeline`` reads it.
_RING_TRACE = dict(
    {key: _MESSAGE[key] for key in ("src", "dst", "seq", "opcode", "recovery", "recovery_of")},
    sent_at=float,
)
#: ``timeseries.jsonl``'s records by type, as the series views read
#: them; their order, and the runs windows name, are
#: :func:`validate_timeseries_records`'s to check.
_SERIES = {
    "timeseries_header": {"window_seconds?": float},
    "run": {"run": int, "label": str, "window_seconds?": float},
    "window": {"run": int, "t0": float, "t1": float, "counters?": {str: float},
               "gauges?": {str: (float, None)},
               "histograms?": {str: {"count": float, "sum": float,
                                     "buckets?": [[float, float]]}}},
}
#: ``slo.jsonl``'s records by type, as the scoreboard reads them; the
#: rest is :func:`validate_slo_records`'s to check.
_VERDICT = {
    "slo": {"run": str, "spec": str, "windows": float, "violations": float,
            "burn?": (float, str), "compliant": bool},
    "event": dict(_TRIGGER, run=str),
}


def _refuse_constant(constant: str) -> None:
    raise ValueError(f"bare {constant} is not strict JSON")


def _member(path: Path, members: Dict[str, bytes], name: str) -> Any:
    """``name`` parsed: a ``.json`` member's document, or a ``.jsonl``
    member's records (None, or no records, when the bundle lacks it)."""
    where = f"{path}: {name}"
    try:
        text = members.get(name, b"").decode("utf-8")
        if not name.endswith(".jsonl"):
            return json.loads(text, parse_constant=_refuse_constant) if text else None
        records = []
        for number, line in enumerate(text.splitlines(), start=1):
            where = f"{path}: {name} line {number}"
            if line.strip():
                records.append(json.loads(line, parse_constant=_refuse_constant))
        return records
    except ValueError as exc:  # a UnicodeDecodeError too
        raise BundleError(f"{where} is not UTF-8 JSON ({exc})")


@dataclass
class Bundle:
    """A ``.slimpm`` bundle as :func:`load_bundle` read it: the manifest
    and each member, parsed and checked once (a member the bundle lacks
    reads empty)."""

    path: Path
    manifest: Dict[str, Any]
    #: Closed trace and probe records, and the partials open at the freeze.
    traces: List[Dict[str, Any]]
    #: The window records, ``"inf"`` bounds and gauges read back as the
    #: floats they were.
    timeseries: List[Dict[str, Any]]
    #: The saved SLO verdict.
    slo: List[Dict[str, Any]]
    engine: Dict[str, Any]
    #: The registry snapshot of a record bundle (None in an anomaly bundle).
    metrics: Optional[List[Dict[str, Any]]]
    ring: Optional[SlimcapReader]


def load_bundle(path: Union[str, Path]) -> Bundle:
    """Open a bundle and check the whole of it, the one check of the
    format: the archive, the manifest's format and version, and each
    JSON member present, record by record, against what the readers
    read of it.  Raises :class:`BundleError` at the first fault."""
    path = Path(path)
    if not path.exists():
        raise BundleError(f"no such bundle: {path}")
    try:
        with zipfile.ZipFile(path) as archive:
            members = {info.filename: archive.read(info.filename) for info in archive.infolist()}
    except _UNREADABLE_ZIP as exc:
        raise BundleError(f"{path}: not a readable zip archive ({exc})")
    if "manifest.json" not in members:
        raise BundleError(f"{path}: bundle has no manifest.json")
    manifest = _member(path, members, "manifest.json")
    if not isinstance(manifest, dict):
        raise BundleError(f"{path}: manifest.json is not an object")
    if manifest.get("format") != BUNDLE_FORMAT:
        raise BundleError(
            f"{path}: not a {BUNDLE_FORMAT} bundle "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != BUNDLE_VERSION:
        raise BundleError(
            f"{path}: unsupported bundle version "
            f"{manifest.get('version')!r} (tool speaks {BUNDLE_VERSION})"
        )
    fault = _fault(manifest, _MANIFEST)
    if fault is not None:
        raise BundleError(f"{path}: manifest.json {fault}")

    traces = _member(path, members, "traces.jsonl")
    timeseries = from_jsonable(_member(path, members, "timeseries.jsonl"))
    slo = _member(path, members, "slo.jsonl")
    # Records by type: a type that is no key (or no string) has no shape,
    # and the stream's validator refuses it.
    for name, records, shape_of, validate in (
        ("traces.jsonl", traces, lambda r: _PROBE if "probe" in r else _MESSAGE, None),
        ("timeseries.jsonl", timeseries,
         lambda r: _SERIES.get(str(r.get("type")), {}), validate_timeseries_records),
        ("slo.jsonl", slo, lambda r: _VERDICT.get(str(r.get("type")), {}), validate_slo_records),
    ):
        for number, record in enumerate(records, start=1):
            fault = _fault(record, shape_of(record) if isinstance(record, dict) else {})
            if fault is not None:
                raise BundleError(f"{path}: {name} record {number} {fault}")
        try:
            if records and validate is not None:
                validate(records)
        except ReproError as exc:
            raise BundleError(f"{path}: {name}: {exc}")
    engine = _member(path, members, "engine.json")
    if not _conforms(engine, (dict, None)):
        raise BundleError(f"{path}: engine.json is not an object")
    metrics = _member(path, members, "metrics.json")
    if not _conforms(metrics, ([dict], None)):
        raise BundleError(f"{path}: metrics.json is not a list of objects")
    ring = members.get("ring.slimcap")
    ring = SlimcapReader.from_bytes(ring) if ring else None
    for number, trace in enumerate(ring.traces() if ring else (), start=1):
        fault = _fault(trace, _RING_TRACE)
        if fault is not None:
            raise BundleError(f"{path}: ring.slimcap trace {number} {fault}")
    return Bundle(path, manifest, traces, timeseries, slo, engine or {}, metrics, ring)
