"""Layer spans recorded from outside the program.

The traced run wraps the public entry points listed in ``layers.py``
with timing wrappers.  Every call becomes a span: name, start, end, the
span that was open when it started (its parent), and a trace id shared
with its root — the event callback or ``driver.update`` that caused it.
A span's *self time* is its duration minus the part covered by its
child spans, so self times over any interval add up to the time spent
inside wrapped code, and what is left of the interval is unattributed.

Per-layer totals are accumulated exactly.  Full span records are kept
only for the first ``keep`` spans and written as Chrome ``trace_event``
JSON when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Tuple

#: Spans kept in full for the Chrome trace.
DEFAULT_KEEP = 50_000


class WrapTargetGone(Exception):
    """A dotted path in the wrap table no longer resolves."""


class SpanRecorder:
    """Accumulates per-layer self time and call counts from nested spans."""

    def __init__(
        self, dispatchers: Iterable[str] = (), keep: int = DEFAULT_KEEP
    ) -> None:
        self.keep = keep
        #: layer -> seconds of self time in spans that have closed.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: span name -> closed spans; by name, so that a wrap that never
        #: fires (a target the program binds elsewhere) shows as such.
        self.calls: Dict[str, int] = defaultdict(int)
        #: span name -> layer.
        self.layer_of: Dict[str, str] = {}
        #: (name, layer, start, end, span id, parent id, trace id)
        self.records: List[Tuple[str, str, float, float, int, int, int]] = []
        #: Open spans, innermost last: [span id, trace id, child seconds].
        self._stack: List[List[float]] = []
        #: Names of spans that only dispatch other work (the engine's run
        #: loop, the runner's main): a span opened directly under one of
        #: these, or under nothing, starts a new trace id.
        self.dispatchers = frozenset(dispatchers)
        self._loop_ids: set = set()
        self._next_id = 1

    # -- recording ---------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """A function that runs ``fn`` inside a span of ``layer``."""
        return functools.wraps(fn)(self._span(layer, name, fn))

    def _span(self, layer: str, name: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        records = self.records
        loop_ids = self._loop_ids
        is_loop = name in self.dispatchers
        self.layer_of[name] = layer

        def span(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            if stack:
                parent = stack[-1]
                parent_id = parent[0]
                trace_id = span_id if parent_id in loop_ids else parent[1]
            else:
                parent = None
                parent_id = 0
                trace_id = span_id
            if is_loop:
                loop_ids.add(span_id)
            frame = [span_id, trace_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                # An exception unwinds through here too; inner spans
                # have already popped themselves the same way.
                stack.pop()
                if is_loop:
                    loop_ids.discard(span_id)
                duration = end - start
                self_s[layer] += duration - frame[2]
                calls[name] += 1
                if parent is not None:
                    parent[2] += duration
                if len(records) < self.keep:
                    records.append(
                        (name, layer, start, end, span_id, parent_id, trace_id)
                    )

        return span

    def wrap_factory(self, layer: str, name: str, factory: Callable) -> Callable:
        """For a method that *returns* the callback doing the work (the
        load generator's burst sender): what it returns runs in a span.
        One shared span wrapper serves every callback — a fresh wrapper
        per burst would cost more than the burst."""
        run = self._span(layer, name, lambda callback: callback())

        @functools.wraps(factory)
        def make(*args, **kwargs):
            callback = factory(*args, **kwargs)
            return lambda: run(callback)

        return make

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self time by layer and calls by span name over closed spans so
        far; subtract two snapshots to get what fell inside an interval."""
        return dict(self.self_s), dict(self.calls)

    def chrome_trace(self) -> Dict[str, object]:
        """The kept spans as Chrome ``trace_event`` complete events."""
        if not self.records:
            return {"traceEvents": []}
        origin = min(record[2] for record in self.records)
        layers = sorted({record[1] for record in self.records})
        tids = {layer: index + 1 for index, layer in enumerate(layers)}
        events: List[Dict[str, object]] = [
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": layer},
            }
            for layer, tid in tids.items()
        ]
        for name, layer, start, end, span_id, parent_id, trace_id in self.records:
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": tids[layer],
                    "name": name,
                    "cat": layer,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {
                        "span": span_id,
                        "parent": parent_id,
                        "trace": trace_id,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def self_times(
    spans: Iterable[Tuple[str, float, float, int, int]],
) -> Dict[str, float]:
    """Per-layer self time of finished ``(layer, start, end, id, parent)``
    spans: each span's duration minus its direct children's durations.

    The reference form of what :class:`SpanRecorder` accumulates
    incrementally; the tests hold one against the other.
    """
    spans = list(spans)
    child_s: Dict[int, float] = defaultdict(float)
    for _layer, start, end, _span_id, parent_id in spans:
        child_s[parent_id] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for layer, start, end, span_id, _parent_id in spans:
        totals[layer] += (end - start) - child_s[span_id]
    return dict(totals)


# -- installing wrappers over the program's entry points ----------------------
def resolve(path: str):
    """``(owner, attribute name, current value)`` for a dotted path whose
    prefix is an importable module."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            break
    raise WrapTargetGone(
        f"wrap target {path} is gone — needs a benchmark issue"
    )


def install(
    recorder: SpanRecorder,
    targets: Iterable[Tuple[str, str]],
    factories: Iterable[Tuple[str, str]] = (),
) -> None:
    """Replace every target with its span wrapper.  All targets are
    resolved before any is replaced, so a missing one changes nothing."""
    plan = []
    for wrap, table in ((recorder.wrap, targets), (recorder.wrap_factory, factories)):
        for layer, path in table:
            owner, attr, original = resolve(path)
            plan.append((owner, attr, wrap(layer, path, original)))
    for owner, attr, wrapper in plan:
        setattr(owner, attr, wrapper)
