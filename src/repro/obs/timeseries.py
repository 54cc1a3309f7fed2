"""Windowed time-series telemetry: the registry rolled up over sim time.

The telemetry layer (:mod:`repro.telemetry.metrics`) answers "what
happened over the whole run"; the paper's thesis is about what the user
experiences *second by second* — a diurnal fleet run can spend an hour
in SLO-violating territory and still print a healthy aggregate.  A run
that installs a :class:`TimeSeriesCollection`
(``use_run(collection=...)``) gets every simulator sampled from an
engine monitor, its registry rolled into sim-time windows:

* **counters** become per-window deltas (so a rate is ``delta / width``);
* **gauges** keep their last value, recorded only when it changed (a
  reader forward-fills across unstored windows);
* **histograms** become per-window ``count``/``sum`` deltas plus
  the deltas of their occupied buckets
  (:func:`~repro.telemetry.metrics.occupied_buckets`), from which
  *windowed* quantiles are computed by linear interpolation
  (:func:`bucket_quantile`) — the same model as the whole-run ones.

Memory is bounded: a run past ``max_windows`` coalesces adjacent window
pairs (deltas sum, widths double), so an 86400 s fleet day at 1 s
windows degrades resolution instead of growing without bound.  Windows
with no activity are not stored at all — ``t0``/``t1`` on each record
keep the timeline unambiguous.

A run is graded once: it owns the :class:`~repro.obs.slo.WindowGrader`
for the SLO specs it was made with, fed each window before any
coalescing, and the collection's verdict
(:meth:`TimeSeriesCollection.slo_report`) is its runs' graders'.

Each window also cites trace ids from the run's
:class:`~repro.obs.causal.TraceCollector` (messages and yardstick
probes): those in flight at its close, then those that left flight
inside it, which is how ``repro.obs.slo`` annotates health events with
the causal traces that were active when things went wrong.

The JSONL schema (one object per line)::

    {"type": "timeseries_header", "version": 1, "window_seconds": 1.0}
    {"type": "run", "run": 0, "label": "cellular/Netscape/static",
     "window_seconds": 1.0}
    {"type": "window", "run": 0, "t0": 3.0, "t1": 4.0,
     "counters": {"net.link.packets_lost{link=down:console}": 3},
     "gauges": {"server.driver.compression_factor": 3.2},
     "histograms": {"net.yardstick.rtt_seconds":
         {"count": 4, "sum": 1.9, "buckets": [[0.002, 0], ...]}},
     "trace_ids": [17]}
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, IO, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.obs.slo import (
    INTERACTIVITY_SLOS, HealthEvent, SloReport, SloSpec, WindowGrader, window_value
)
from repro.runcontext import current_run
from repro.telemetry.metrics import bucket_quantile, occupied_buckets
from repro.telemetry.report import jsonable

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_WINDOW",
    "DEFAULT_MAX_WINDOWS",
    "RunSeries",
    "TimeSeriesCollection",
    "TimeSeriesSampler",
    "bucket_quantile",
    "window_value",
    "RENDER_KINDS",
    "sparkline_rows",
    "validate_timeseries_records",
    "write_jsonl",
]

#: Schema version stamped into the JSONL header.
SCHEMA_VERSION = 1

#: Default window width, simulated seconds.
DEFAULT_WINDOW = 1.0

#: Windows kept per run before adjacent pairs coalesce (widths double).
DEFAULT_MAX_WINDOWS = 512

#: Engine-monitor callback granularity, events: the bound under dense
#: traffic, deliberately finer than the progress monitor's 5000.  A
#: window's edge is detected by the clock (``TimeSeriesSampler.due_at``).
SAMPLER_EVERY = 512

#: Open trace ids recorded per window (annotation, not a full trace).
MAX_TRACE_IDS = 8

#: How an instrument family is drawn: (series kind, caption unit).
RENDER_KINDS = {
    "counter": ("counter_rate", "/s"),
    "gauge": ("gauge", ""),
    "histogram": ("histogram_quantile", " p95"),
}

#: Series labels longer than this are clipped in a sparkline row.
_ROW_LABEL_MAX = 48


class RunSeries:
    """One simulator's windowed timeline, and its grader.

    ``window`` is the *current* width — it doubles every time the run
    coalesces past ``max_windows``.  Stored windows each carry their own
    ``t0``/``t1``, so readers never need the width to interpret them.
    :attr:`grader` grades ``specs`` over every window
    :meth:`append_window` is handed; windows put straight into
    :attr:`windows` (a series read back from a file) are not graded.
    """

    def __init__(
        self,
        label: str,
        window: float = DEFAULT_WINDOW,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        specs: Sequence[SloSpec] = INTERACTIVITY_SLOS,
    ) -> None:
        if window <= 0:
            raise ReproError(f"window width must be positive, got {window}")
        if max_windows < 4:
            raise ReproError("max_windows must be at least 4")
        self.label = label
        self.window = float(window)
        self.max_windows = int(max_windows)
        self.windows: List[Dict[str, Any]] = []
        self.coalesce_count = 0
        self.grader = WindowGrader(specs, label)

    def append_window(
        self, record: Dict[str, Any]
    ) -> List[Tuple[HealthEvent, int]]:
        """Grade one window record, then store it, coalescing when over
        budget; returns the grader's answers for it
        (:meth:`~repro.obs.slo.WindowGrader.grade`)."""
        verdicts = self.grader.grade(record)
        self.windows.append(record)
        if len(self.windows) > self.max_windows:
            self._coalesce()
        return verdicts

    def _coalesce(self) -> None:
        """Merge adjacent window pairs; the nominal width doubles."""
        merged: List[Dict[str, Any]] = []
        pending: Optional[Dict[str, Any]] = None
        for record in self.windows:
            if pending is None:
                pending = record
                continue
            merged.append(_merge_window_pair(pending, record))
            pending = None
        if pending is not None:
            merged.append(pending)
        self.windows = merged
        self.window *= 2
        self.coalesce_count += 1

    def series_keys(self) -> Dict[str, str]:
        """All series keys appearing in this run -> instrument family."""
        keys: Dict[str, str] = {}
        for record in self.windows:
            for key in record.get("counters", {}):
                keys.setdefault(key, "counter")
            for key in record.get("gauges", {}):
                keys.setdefault(key, "gauge")
            for key in record.get("histograms", {}):
                keys.setdefault(key, "histogram")
        return keys

    def values(self, key: str, kind: str) -> List[Any]:
        """(t0, value) pairs over the stored windows carrying the series."""
        out = []
        for record in self.windows:
            value = window_value(record, key, kind)
            if value is not None:
                out.append((record["t0"], value))
        return out

    @property
    def span(self) -> float:
        """Sim seconds covered, first stored window start to last end."""
        if not self.windows:
            return 0.0
        return self.windows[-1]["t1"] - self.windows[0]["t0"]


def sparkline_rows(
    run: RunSeries, keys: Dict[str, str], width: int
) -> List[str]:
    """One labelled ``|sparkline|`` row per series of ``keys`` (series
    key -> instrument family, drawn in that order) that ``run`` holds
    values for — ``postmortem --series``'s rows and the live dashboard's."""
    # Imported on first draw: a default-flag run never carries textplot.
    from repro.analysis.textplot import render_sparkline

    label_width = min(max(map(len, keys), default=0), _ROW_LABEL_MAX)
    rows = []
    for key, family in keys.items():
        kind, unit = RENDER_KINDS[family]
        values = [value for _t, value in run.values(key, kind)]
        if not values:
            continue
        label = (
            key
            if len(key) <= _ROW_LABEL_MAX
            else key[: _ROW_LABEL_MAX - 3] + "..."
        )
        rows.append(
            f"  {label:<{label_width}} "
            f"|{render_sparkline(values, width)}| "
            f"last {values[-1]:.4g}{unit} "
            f"max {max(values):.4g}"
        )
    return rows


def _merge_window_pair(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Combine two window records into one covering both intervals.

    Counter and histogram deltas sum (bucket counts per bound); gauges
    keep the later value; trace ids union (capped).
    """
    counters = dict(a.get("counters", {}))
    for key, delta in b.get("counters", {}).items():
        counters[key] = counters.get(key, 0) + delta
    gauges = dict(a.get("gauges", {}))
    gauges.update(b.get("gauges", {}))
    histograms: Dict[str, Dict[str, Any]] = {}
    per_bound: Dict[str, Dict[float, int]] = {}
    for source in (a, b):
        for key, hist in source.get("histograms", {}).items():
            current = histograms.get(key)
            if current is None:
                histograms[key] = {"count": hist["count"], "sum": hist["sum"]}
                per_bound[key] = {}
            else:
                current["count"] += hist["count"]
                current["sum"] += hist["sum"]
            # Each list holds its buckets' lower edges: the union does too.
            counts = per_bound[key]
            for bound, count in hist.get("buckets", ()):
                counts[bound] = counts.get(bound, 0) + count
    for key, counts in per_bound.items():
        histograms[key]["buckets"] = [list(pair) for pair in sorted(counts.items())]
    trace_ids = sorted(
        set(a.get("trace_ids", ())) | set(b.get("trace_ids", ()))
    )[:MAX_TRACE_IDS]
    merged: Dict[str, Any] = {
        "t0": min(a["t0"], b["t0"]),
        "t1": max(a["t1"], b["t1"]),
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }
    if trace_ids:
        merged["trace_ids"] = trace_ids
    return merged


class TimeSeriesCollection:
    """All runs sampled in one session, plus the JSONL round trip.

    It owns the one registry baseline its samplers difference against
    (:meth:`cut`), and :meth:`sample` flushes the earlier samplers
    before handing out a new one: an increment is reported by one window
    of the run that made it, and per key the runs' windows sum to the
    registry's value.  Simulators alive at once (lockstep cells) share
    instruments by label: an increment goes to whichever run's window
    closes next — once.  A gauge is a level: it is stored when it differs
    from the last value any run of the collection stored for it.
    """

    def __init__(
        self,
        window: float = DEFAULT_WINDOW,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if window <= 0:
            raise ReproError(f"window width must be positive, got {window}")
        self.window = float(window)
        self.max_windows = int(max_windows)
        self.runs: List[RunSeries] = []
        self._label: Optional[str] = None
        self._auto = 0
        #: (sampler, the simulator it samples) pairs.
        self._samplers: List[tuple] = []
        #: The registry as the last closed window left it, per series key.
        self._last_counters: Dict[str, float] = {}
        self._last_gauges: Dict[str, float] = {}
        self._last_hists: Dict[str, Any] = {}

    # -- samplers ----------------------------------------------------------
    def sample(self, sim) -> "TimeSeriesSampler":
        """A sampler feeding a new run of this collection, for ``sim``
        to call as an engine monitor (the run context adds one to every
        simulator built while the collection is installed).  What the
        registry holds beyond the baseline belongs to the simulators
        that already ran: they are flushed first."""
        self.finish_samplers()
        sampler = TimeSeriesSampler(self.new_run(), self, sim.trace_space)
        self._samplers.append((sampler, sim))
        return sampler

    def cut(self, instruments: Iterable[Any]) -> tuple:
        """What ``instruments`` (a registry's ``collect("")``) gained
        since the last cut, as the ``(counters, gauges, histograms)`` of
        a window record; the baseline moves up to them."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for inst in instruments:
            key = inst.name + inst.label_str()
            kind = inst.kind
            if kind == "counter":
                delta = inst.value - self._last_counters.get(key, 0)
                self._last_counters[key] = inst.value
                if delta:
                    counters[key] = delta
            elif kind == "gauge":
                if self._last_gauges.get(key) != inst.value:
                    self._last_gauges[key] = inst.value
                    gauges[key] = inst.value
            elif kind == "histogram":
                last_count, last_sum, last_buckets = self._last_hists.get(
                    key, (0, 0.0, ())
                )
                if inst.count != last_count:
                    counts = inst.bucket_counts
                    previous = last_buckets or [0] * len(counts)
                    histograms[key] = {
                        "count": inst.count - last_count,
                        "sum": inst.sum - last_sum,
                        "buckets": occupied_buckets(
                            inst.bucket_bounds,
                            [count - then for count, then in zip(counts, previous)],
                        ),
                    }
                    self._last_hists[key] = (
                        inst.count, inst.sum, list(inst.bucket_counts)
                    )
        return counters, gauges, histograms

    def finish_samplers(self) -> None:
        """Flush every sampler's trailing partial window.

        Safe to call mid-session (e.g. between experiment cells, so a
        just-finished simulator's windows are all stored before an SLO
        evaluation); sampling resumes afterwards for still-running sims.
        """
        for sampler, sim in self._samplers:
            sampler.finish(sim.now)

    def finish(self) -> None:
        """End of the run: flush the samplers and drop the runs that
        stored nothing."""
        self.finish_samplers()
        self.prune_empty()

    # -- labeling ----------------------------------------------------------
    @contextmanager
    def label(self, label: str):
        """Scope a run label: simulators built inside get ``label``."""
        previous = self._label
        self._label = label
        try:
            yield self
        finally:
            self._label = previous

    def next_label(self) -> str:
        if self._label is not None:
            return self._label
        self._auto += 1
        return f"run-{self._auto}"

    # -- runs --------------------------------------------------------------
    def new_run(self, label: Optional[str] = None) -> RunSeries:
        run = RunSeries(
            label if label is not None else self.next_label(),
            window=self.window,
            max_windows=self.max_windows,
        )
        self.runs.append(run)
        return run

    def adopt_run(self, run: RunSeries) -> None:
        """Append an externally built run (a derived experiment
        timeline)."""
        self.runs.append(run)

    def prune_empty(self) -> int:
        """Drop runs that stored no windows; returns how many."""
        before = len(self.runs)
        self.runs = [run for run in self.runs if run.windows]
        return before - len(self.runs)

    def run_by_label(self, label: str) -> Optional[RunSeries]:
        for run in self.runs:
            if run.label == label:
                return run
        return None

    def slo_report(self) -> SloReport:
        """The runs' verdict, as their graders hold it, in run order."""
        return SloReport.of(run.grader for run in self.runs)

    # -- JSONL round trip --------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = [
            {
                "type": "timeseries_header",
                "version": SCHEMA_VERSION,
                "window_seconds": self.window,
                "runs": len(self.runs),
            }
        ]
        for index, run in enumerate(self.runs):
            records.append(
                {
                    "type": "run",
                    "run": index,
                    "label": run.label,
                    "window_seconds": run.window,
                    "windows": len(run.windows),
                    "coalesced": run.coalesce_count,
                }
            )
            for window in run.windows:
                records.append(dict(window, type="window", run=index))
        return records

    @classmethod
    def from_records(
        cls, records: Iterable[Dict[str, Any]]
    ) -> "TimeSeriesCollection":
        collection: Optional[TimeSeriesCollection] = None
        runs: Dict[int, RunSeries] = {}
        for record in records:
            rtype = record.get("type")
            if rtype == "timeseries_header":
                collection = cls(window=record.get("window_seconds", DEFAULT_WINDOW))
            elif rtype == "run":
                if collection is None:
                    raise ReproError("run record before timeseries header")
                run = RunSeries(
                    record["label"],
                    window=record.get("window_seconds", collection.window),
                )
                runs[record["run"]] = run
                collection.adopt_run(run)
            elif rtype == "window":
                try:
                    run = runs[record["run"]]
                except KeyError as exc:
                    raise ReproError(
                        f"window for undeclared run {record.get('run')!r}"
                    ) from exc
                window = {
                    key: value
                    for key, value in record.items()
                    if key not in ("type", "run")
                }
                run.windows.append(window)
        if collection is None:
            raise ReproError("no timeseries header found")
        return collection


def write_jsonl(
    records: Iterable[Any],
    path_or_file: Union[str, IO[str]],
    compact: bool = False,
) -> int:
    """One strict JSON document per line (:func:`jsonable`), to a path
    or an open text file, one record at a time; returns the record
    count.  ``compact`` is the bundle form: no spaces, and a value JSON
    has no type for is written as ``str``."""
    if not hasattr(path_or_file, "write"):
        with open(path_or_file, "w", encoding="utf-8") as fh:
            return write_jsonl(records, fh, compact)
    options: Dict[str, Any] = (
        {"separators": (",", ":"), "default": str} if compact else {}
    )
    count = 0
    for record in records:
        path_or_file.write(json.dumps(jsonable(record), **options) + "\n")
        count += 1
    return count


def validate_timeseries_records(records: Sequence[Dict[str, Any]]) -> None:
    """Schema-check a record stream; raises :class:`ReproError` on the
    first violation (:func:`~repro.obs.flightrec.load_bundle` checks a
    bundle's series with it)."""
    if not records:
        raise ReproError("empty timeseries stream")
    header = records[0]
    if header.get("type") != "timeseries_header":
        raise ReproError("first record must be the timeseries header")
    if header.get("version") != SCHEMA_VERSION:
        raise ReproError(f"unsupported schema version {header.get('version')!r}")
    declared_runs: set = set()
    for index, record in enumerate(records[1:], start=1):
        rtype = record.get("type")
        if rtype == "run":
            if not isinstance(record.get("label"), str):
                raise ReproError(f"record {index}: run without a string label")
            declared_runs.add(record.get("run"))
        elif rtype == "window":
            if record.get("run") not in declared_runs:
                raise ReproError(f"record {index}: window for undeclared run")
            t0, t1 = record.get("t0"), record.get("t1")
            if not (isinstance(t0, (int, float)) and isinstance(t1, (int, float))):
                raise ReproError(f"record {index}: window missing t0/t1")
            if t1 <= t0:
                raise ReproError(f"record {index}: window has t1 <= t0")
            for family in ("counters", "gauges", "histograms"):
                if not isinstance(record.get(family, {}), dict):
                    raise ReproError(f"record {index}: {family} must be a mapping")
            for key, hist in record.get("histograms", {}).items():
                if "count" not in hist or "sum" not in hist:
                    raise ReproError(
                        f"record {index}: histogram {key} missing count/sum"
                    )
        elif rtype == "timeseries_header":
            raise ReproError(f"record {index}: duplicate header")
        else:
            raise ReproError(f"record {index}: unknown record type {rtype!r}")


# ---------------------------------------------------------------------------
# The sampler (engine-monitor side)
# ---------------------------------------------------------------------------


class TimeSeriesSampler:
    """Engine monitor that closes windows as sim time crosses boundaries.

    The engine calls the sampler at the first event strictly past the
    open window's edge (:attr:`due_at`), so a window holds its own
    span's increments plus that one event's — however sparse the events
    are — and no event is added to detect an edge.  Strictly past: an
    event *at* the edge, a ``run_until`` deadline say, leaves the window
    open for :meth:`finish`, where what an experiment adds after its
    cell belongs.  :data:`SAMPLER_EVERY` events is the cadence that
    remains under dense traffic; a call it makes at or before the edge
    closes nothing.

    The registry and the tracer are read through the run context the
    sampler was built under, at each window close; a window cites the
    traces in flight in its own simulator's keyspace, ``space``, at its
    close, then those of ``space`` that left flight inside it.
    What the registry gained is cut against the collection's baseline,
    which every sampler of the collection shares.
    Every window is graded by its run as it is stored; whether a flight
    recorder is armed to hear the answers is asked of the *current*
    context, so windows flushed after a run has ended are graded but
    freeze nothing.
    """

    every = SAMPLER_EVERY

    def __init__(self, run: RunSeries, collection: TimeSeriesCollection, space: int) -> None:
        self.run = run
        self._collection = collection
        self._space = space
        self._context = current_run()
        if self._context.tracer is not None:
            self._context.tracer.cite_landings(space)
        self._window_start = 0.0
        self._boundary = run.window

    # -- engine callback ---------------------------------------------------
    @property
    def due_at(self) -> float:
        """The open window's edge (``Simulator.add_monitor``'s clock)."""
        return self._boundary

    def __call__(self, sim) -> None:
        now = sim.now
        # Only an event strictly past the open edge closes it — the count
        # calls at an edge too, and a window must not depend on which
        # event was the 512th — and then every edge the clock has reached.
        if now > self._boundary:
            while now >= self._boundary:
                self._close_window(self._boundary)

    def finish(self, now: float) -> None:
        """Close any partial trailing window.

        Idempotent at a given ``now`` (the second call finds
        ``_window_start == now`` and stores nothing); sampling continues
        afterwards from a fresh window starting at ``now``.
        """
        while now >= self._boundary:
            self._close_window(self._boundary)
        if now > self._window_start:
            self._close_window(now)

    # -- window bookkeeping ------------------------------------------------
    def _close_window(self, edge: float) -> None:
        counters, gauges, histograms = self._collection.cut(
            self._context.registry.collect("")
        )
        tracer = self._context.tracer
        if tracer is not None:
            # Drained even when nothing is stored: a window cites only
            # what left flight inside its own span.
            landed = tracer.landed_trace_ids(self._space, edge)
        if counters or gauges or histograms:
            record: Dict[str, Any] = {
                "t0": self._window_start,
                "t1": edge,
                "counters": counters,
                "gauges": gauges,
                "histograms": histograms,
            }
            if tracer is not None:
                # Trace ids in flight at the close, then those that left
                # flight inside the window (annotation, not a full trace).
                trace_ids = tracer.open_trace_ids(self._space)[:MAX_TRACE_IDS]
                trace_ids += landed[: MAX_TRACE_IDS - len(trace_ids)]
                if trace_ids:
                    record["trace_ids"] = sorted(trace_ids)
            verdicts = self.run.append_window(record)
            # Hand the window and its answers to the flight recorder, so
            # SLO violations trigger bundle dumps while the run is live.
            recorder = current_run().recorder
            if recorder is not None:
                recorder.observe_window(self.run, record, verdicts)
        self._window_start = edge
        # The run's width may have doubled while appending (coalescing).
        self._boundary = edge + self.run.window
