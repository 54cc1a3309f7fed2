"""Declarative interactivity SLOs over windowed telemetry series.

The paper's usability argument is a handful of thresholds: keystroke
echo must keep up with the ~150 ms human cadence (the yardstick's think
time, Section 6.2), video must hold its frame rate (Section 6.3), and
loss recovery must finish before the user notices.  This module makes
those thresholds first-class: an :class:`SloSpec` names a windowed
series (as produced by :mod:`repro.obs.timeseries`), a comparison, and
an *error budget* — the fraction of windows allowed to violate before
the SLO as a whole is broken — and the :class:`SloEngine` evaluates
every spec against every run, tracking budget burn (violations consumed
/ violations allowed; > 1 means the budget is blown).

Alongside per-spec results the engine emits structured **health
events** — latency spikes (contiguous violating windows merged into one
event), loss bursts and queue buildup — each annotated with the trace
ids that were in flight during the offending windows, so an event links
straight back to the causal traces of the affected updates.

JSONL schema (one object per line)::

    {"type": "slo_header", "version": 1, "specs": [...]}
    {"type": "slo", "run": "cellular/Netscape/static",
     "spec": "keystroke_echo", "series": "net.yardstick.rtt_seconds",
     "windows": 11, "violations": 9, "budget": 0.05, "burn": 16.4,
     "compliant": false, "worst": {"t0": 4.0, "value": 1.72}}
    {"type": "event", "kind": "latency_spike", "run": "...",
     "series": "...", "t0": 2.0, "t1": 11.0, "value": 1.72,
     "threshold": 0.15, "trace_ids": [17, 19]}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.obs.timeseries import (
    RunSeries,
    TimeSeriesCollection,
    window_value,
    write_jsonl,
)

__all__ = [
    "SLO_SCHEMA_VERSION",
    "SloSpec",
    "SloResult",
    "HealthEvent",
    "SloReport",
    "SloEngine",
    "INTERACTIVITY_SLOS",
    "KEYSTROKE_ECHO",
    "VIDEO_FRAME_RATE",
    "LOSS_RECOVERY",
    "validate_slo_records",
]

SLO_SCHEMA_VERSION = 1

#: Comparison operators a spec may use (value OP threshold passes).
_OPS = {
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    ">": lambda value, threshold: value > threshold,
}

#: Packets lost/dropped in one window before it counts as a loss burst.
LOSS_BURST_MIN = 5

#: Consecutive rising windows before a queue series counts as buildup.
QUEUE_BUILDUP_RUN = 3


@dataclass(frozen=True)
class SloSpec:
    """One interactivity objective over a windowed series.

    Attributes:
        name: Identifier (``keystroke_echo``).
        metric: Series name to match; a key matches when it equals the
            metric or is the metric plus a label suffix (``{...}``).
        kind: How a window value is extracted — ``histogram_quantile``,
            ``histogram_mean``, ``gauge``, ``counter_rate``, or
            ``counter_delta`` (see :func:`repro.obs.timeseries.window_value`).
        threshold: The objective; a window passes when
            ``value op threshold`` holds.
        op: Comparison direction (default ``<=``).
        quantile: Quantile for ``histogram_quantile`` kinds.
        budget: Error budget — the fraction of evaluated windows allowed
            to violate while the SLO still counts as met.
        event: Health-event kind emitted for violating windows.
        description: One line for reports.
    """

    name: str
    metric: str
    kind: str
    threshold: float
    op: str = "<="
    quantile: float = 0.95
    budget: float = 0.05
    event: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ReproError(f"unknown SLO op {self.op!r}")
        if not 0.0 <= self.budget <= 1.0:
            raise ReproError("SLO budget must be a fraction in [0, 1]")

    def matches(self, series_key: str) -> bool:
        return series_key == self.metric or series_key.startswith(
            self.metric + "{"
        )

    def passes(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    @property
    def event_kind(self) -> str:
        """The health-event kind a violating window of this spec opens."""
        return self.event or f"{self.name}_violation"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "kind": self.kind,
            "threshold": self.threshold,
            "op": self.op,
            "quantile": self.quantile,
            "budget": self.budget,
            "description": self.description,
        }


#: Keystroke echo: the network yardstick's round trip (64 B up, 1200 B
#: down) must sit within the paper's 150 ms human think-time cadence at
#: p95 per window (Section 6.2 / Figure 11).
KEYSTROKE_ECHO = SloSpec(
    name="keystroke_echo",
    metric="net.yardstick.rtt_seconds",
    kind="histogram_quantile",
    quantile=0.95,
    threshold=0.150,
    op="<=",
    budget=0.05,
    event="latency_spike",
    description="yardstick RTT p95 within the 150 ms interactive cadence",
)

#: Video holds a watchable rate: >= 20 fps per window (the paper's
#: quarter-size clips run at full 24 fps on the LAN, Section 6.3).
VIDEO_FRAME_RATE = SloSpec(
    name="video_frame_rate",
    metric="video.frames_sent",
    kind="counter_rate",
    threshold=20.0,
    op=">=",
    budget=0.10,
    event="frame_rate_drop",
    description="video stream sustains >= 20 frames/s per window",
)

#: Post-loss recovery completes within two think-time cadences — the
#: NACK round trip plus re-encode must not outlast the user's attention.
LOSS_RECOVERY = SloSpec(
    name="loss_recovery",
    metric="transport.channel.recovery_latency_seconds",
    kind="histogram_quantile",
    quantile=0.95,
    threshold=0.300,
    op="<=",
    budget=0.05,
    event="slow_recovery",
    description="loss recovery p95 within 300 ms (two 150 ms cadences)",
)

#: The paper-grounded default set.
INTERACTIVITY_SLOS: Tuple[SloSpec, ...] = (
    KEYSTROKE_ECHO,
    VIDEO_FRAME_RATE,
    LOSS_RECOVERY,
)


@dataclass
class SloResult:
    """One (run, spec, series) evaluation."""

    run: str
    spec: str
    series: str
    budget: float
    windows: int = 0
    violations: int = 0
    worst: Optional[Dict[str, float]] = None

    @property
    def ok_windows(self) -> int:
        return self.windows - self.violations

    @property
    def burn(self) -> float:
        """Violations consumed / violations allowed (> 1: budget blown)."""
        allowed = self.budget * self.windows
        if allowed > 0:
            return self.violations / allowed
        return float("inf") if self.violations else 0.0

    @property
    def compliant(self) -> bool:
        return self.violations <= self.budget * self.windows

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "type": "slo",
            "run": self.run,
            "spec": self.spec,
            "series": self.series,
            "windows": self.windows,
            "violations": self.violations,
            "budget": self.budget,
            "burn": round(self.burn, 3) if self.burn != float("inf") else "inf",
            "compliant": self.compliant,
        }
        if self.worst is not None:
            out["worst"] = self.worst
        return out


@dataclass
class HealthEvent:
    """One structured health event, trace-annotated."""

    kind: str
    run: str
    series: str
    t0: float
    t1: float
    value: float
    threshold: float
    trace_ids: List[int] = field(default_factory=list)
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "event",
            "kind": self.kind,
            "run": self.run,
            "series": self.series,
            "t0": self.t0,
            "t1": self.t1,
            "value": self.value,
            "threshold": self.threshold,
            "trace_ids": list(self.trace_ids),
            "detail": self.detail,
        }


@dataclass
class SloReport:
    """Everything one evaluation produced."""

    specs: List[SloSpec]
    results: List[SloResult] = field(default_factory=list)
    events: List[HealthEvent] = field(default_factory=list)

    # -- lookups -----------------------------------------------------------
    def compliance(
        self, run_label: str, spec_name: str
    ) -> Optional[SloResult]:
        """The worst (highest-burn) matching result, or None when the
        run produced no data for the spec."""
        matching = [
            r
            for r in self.results
            if r.run == run_label and r.spec == spec_name
        ]
        if not matching:
            return None
        return max(matching, key=lambda r: r.burn)

    @property
    def compliant(self) -> bool:
        return all(r.compliant for r in self.results)

    # -- serialization -----------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = [
            {
                "type": "slo_header",
                "version": SLO_SCHEMA_VERSION,
                "specs": [spec.to_dict() for spec in self.specs],
            }
        ]
        records.extend(result.to_dict() for result in self.results)
        records.extend(event.to_dict() for event in self.events)
        return records

    def write_jsonl(self, path_or_file: Union[str, IO[str]]) -> int:
        return write_jsonl(self.to_records(), path_or_file)

    # -- rendering ---------------------------------------------------------
    def render(self, title: str = "interactivity SLO report") -> str:
        lines = [title, "=" * len(title)]
        if not self.results:
            lines.append("  (no matching series — nothing to evaluate)")
        width = max((len(r.run) for r in self.results), default=8)
        for result in self.results:
            burn = (
                "inf" if result.burn == float("inf") else f"{result.burn:.2f}"
            )
            status = "ok  " if result.compliant else "VIOL"
            worst = ""
            if result.worst is not None and not result.compliant:
                worst = (
                    f"  worst {result.worst['value']:.4g}"
                    f" @ t={result.worst['t0']:g}s"
                )
            lines.append(
                f"  {status} {result.run:<{width}} {result.spec:<16} "
                f"{result.ok_windows}/{result.windows} windows ok, "
                f"budget burn {burn}{worst}"
            )
        if self.events:
            lines.append("")
            lines.append(f"health events ({len(self.events)}):")
            for event in self.events:
                traces = (
                    f" traces {event.trace_ids}" if event.trace_ids else ""
                )
                lines.append(
                    f"  {event.kind:<16} {event.run} "
                    f"[{event.t0:g}s..{event.t1:g}s] {event.series} "
                    f"= {event.value:.4g} (threshold {event.threshold:g})"
                    f"{traces}"
                )
        return "\n".join(lines)


class WindowGrader:
    """The one answer to "does this window violate": a streaming fold
    over one run's windows, fed in time order.  :class:`SloEngine` folds
    it over a stored run; the flight recorder feeds it each window as it
    closes and keeps only the policy of which answers freeze its rings.
    State is per series (a result, the open event), never an event list.

    A *spec violation* is ``value op threshold`` failing for a series
    the spec matches; adjacent violating windows extend one event (worst
    value, union of trace ids) whose *streak* is how many it spans.  A
    *loss burst* is the window's lost and dropped packets, summed over
    every link, reaching :data:`LOSS_BURST_MIN`: one event per window.
    *Queue build-up* is a ``*queue*`` gauge or histogram mean rising
    :data:`QUEUE_BUILDUP_RUN` windows in a row.
    """

    def __init__(self, specs: Sequence[SloSpec], run_label: str) -> None:
        self.specs = list(specs)
        self.run = run_label
        self._results: Dict[Tuple[int, str], SloResult] = {}
        #: Per (spec, series): (the open event, its streak).
        self._open: Dict[Tuple[int, str], Tuple[HealthEvent, int]] = {}
        #: Per queue series, its rising run: [length, start t0, start
        #: value, last value].
        self._rising: Dict[str, List[float]] = {}

    def grade(self, record: Dict[str, Any]) -> List[Tuple[HealthEvent, int]]:
        """The events this window opened or extended, each with its
        streak (1 = opened here).  An extended event is the object an
        earlier call returned, widened in place."""
        touched: List[Tuple[HealthEvent, int]] = []
        keys = [
            key
            for family in ("counters", "gauges", "histograms")
            for key in record.get(family, ())
        ]
        for index, spec in enumerate(self.specs):
            for key in keys:
                if spec.matches(key):
                    touched.extend(self._grade_series(index, spec, key, record))
        lost = sum(
            delta
            for key, delta in record.get("counters", {}).items()
            if key.startswith(
                ("net.link.packets_lost", "net.link.packets_dropped")
            )
        )
        if lost >= LOSS_BURST_MIN:
            event = self._event(
                "loss_burst", "net.link.packets_lost+dropped", record,
                float(lost), float(LOSS_BURST_MIN),
                f"{lost:g} packets lost/dropped in one window",
            )
            touched.append((event, 1))
        for family, kind in (("gauges", "gauge"), ("histograms", "histogram_mean")):
            for key in record.get(family, ()):
                if "queue" in key:
                    touched.extend(self._grade_queue(key, kind, record))
        return touched

    def results(self) -> List[SloResult]:
        """One result per (spec, series) graded so far, in spec order."""
        return [
            self._results[at]
            for at in sorted(self._results, key=lambda at: at[0])
        ]

    def _event(
        self,
        kind: str,
        series: str,
        record: Dict[str, Any],
        value: float,
        threshold: float,
        detail: str,
    ) -> HealthEvent:
        return HealthEvent(
            kind=kind,
            run=self.run,
            series=series,
            t0=record["t0"],
            t1=record["t1"],
            value=value,
            threshold=threshold,
            trace_ids=list(record.get("trace_ids", ())),
            detail=detail,
        )

    def _grade_series(
        self, index: int, spec: SloSpec, key: str, record: Dict[str, Any]
    ) -> List[Tuple[HealthEvent, int]]:
        value = window_value(record, key, spec.kind, spec.quantile)
        if value is None:
            return []
        at = (index, key)
        result = self._results.get(at)
        if result is None:
            result = self._results[at] = SloResult(
                self.run, spec.name, key, spec.budget
            )
        result.windows += 1
        if spec.passes(value):
            self._open.pop(at, None)
            return []
        result.violations += 1
        if result.worst is None or _more_violating(
            spec, value, result.worst["value"]
        ):
            result.worst = {"t0": record["t0"], "value": value}
        event, streak = self._open.get(at, (None, 0))
        if event is not None and abs(record["t0"] - event.t1) <= 1e-9:
            # Contiguous violation: extend the open event.
            event.t1 = record["t1"]
            if _more_violating(spec, value, event.value):
                event.value = value
            event.trace_ids = sorted(
                set(event.trace_ids) | set(record.get("trace_ids", ()))
            )
        else:
            streak = 0
            event = self._event(
                spec.event_kind,
                key, record, value, spec.threshold, spec.description,
            )
        self._open[at] = opened = (event, streak + 1)
        return [opened]

    def _grade_queue(
        self, key: str, kind: str, record: Dict[str, Any]
    ) -> List[Tuple[HealthEvent, int]]:
        value = window_value(record, key, kind)
        if value is None:
            return []
        state = self._rising.get(key)
        if state is None or value <= state[3]:
            state = self._rising[key] = [1, record["t0"], value, value]
        else:
            state[0] += 1
            state[3] = value
        if state[0] != QUEUE_BUILDUP_RUN or value <= 0:
            return []
        event = self._event(
            "queue_buildup", key, record, value, state[2],
            f"monotonic rise over {QUEUE_BUILDUP_RUN} windows",
        )
        event.t0 = state[1]
        return [(event, 1)]


class SloEngine:
    """Evaluates a spec set against windowed runs."""

    def __init__(self, specs: Sequence[SloSpec] = INTERACTIVITY_SLOS) -> None:
        self.specs = list(specs)

    def evaluate(
        self,
        source: Union[TimeSeriesCollection, Iterable[RunSeries]],
    ) -> SloReport:
        runs = (
            source.runs
            if isinstance(source, TimeSeriesCollection)
            else list(source)
        )
        report = SloReport(specs=self.specs)
        for run in runs:
            grader = WindowGrader(self.specs, run.label)
            for record in run.windows:
                report.events.extend(
                    event
                    for event, streak in grader.grade(record)
                    if streak == 1
                )
            report.results.extend(grader.results())
        return report


def _more_violating(spec: SloSpec, value: float, reference: float) -> bool:
    """Is ``value`` a worse violation than ``reference`` for this spec?"""
    if spec.op in ("<=", "<"):
        return value > reference
    return value < reference


def validate_slo_records(records: Sequence[Dict[str, Any]]) -> None:
    """Schema-check an SLO record stream (CI smoke / ``--validate``)."""
    if not records:
        raise ReproError("empty SLO stream")
    header = records[0]
    if header.get("type") != "slo_header":
        raise ReproError("first record must be the slo header")
    if header.get("version") != SLO_SCHEMA_VERSION:
        raise ReproError(f"unsupported SLO schema version {header.get('version')!r}")
    if not isinstance(header.get("specs"), list):
        raise ReproError("slo header must carry a spec list")
    for index, record in enumerate(records[1:], start=1):
        rtype = record.get("type")
        if rtype == "slo":
            for key in ("run", "spec", "series", "windows", "violations"):
                if key not in record:
                    raise ReproError(f"record {index}: slo missing {key!r}")
            if not isinstance(record.get("compliant"), bool):
                raise ReproError(f"record {index}: slo missing compliant flag")
        elif rtype == "event":
            for key in ("kind", "run", "series", "t0", "t1", "trace_ids"):
                if key not in record:
                    raise ReproError(f"record {index}: event missing {key!r}")
        else:
            raise ReproError(f"record {index}: unknown record type {rtype!r}")
