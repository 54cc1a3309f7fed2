"""Zero-dependency metrics: counters, gauges, histograms, registries.

The paper's evaluation is measurement end to end — per-command byte
counts, queueing delays, decode costs, CPU shares — so the reproduction
carries a uniform metrics layer that every subsystem reports into.  The
design follows the usual three-instrument model:

* :class:`Counter` — monotonically increasing totals (bytes sent,
  commands decoded, packets dropped).
* :class:`Gauge` — a value that goes up and down (CPU share, queue
  occupancy sampled at an instant).
* :class:`Histogram` — a distribution: count, sum, min, max and fixed
  bucket counts (a log-spaced default layout when the caller gives
  none).  Quantiles are read from the buckets when asked for
  (:func:`bucket_quantile`), so a histogram records and never
  estimates, and long runs never accumulate per-observation state.

Instruments live in a :class:`MetricsRegistry`, keyed by name plus
labels.  Components accept an injectable registry and fall back to the
current run's (:func:`get_registry`), which defaults to a
:class:`NullRegistry` whose instruments are shared no-ops — the hot
paths guard on ``registry.enabled`` so disabled telemetry costs one
attribute read.  Experiments that need isolation install their own
registry with :func:`repro.runcontext.use_run` or pass one explicitly.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "bucket_quantile",
    "get_registry",
    "occupied_buckets",
]

LabelItems = Tuple[Tuple[str, str], ...]

#: The one bucket layout of a histogram whose caller gives none: eight
#: log-spaced bounds per decade from 1e-6 to 1e6, so each bucket above
#: the first spans 10 ** (1 / 8) - 1, about 33 %, of its lower bound.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(10.0 ** (e / 8) for e in range(-48, 49))


def _label_key(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Instrument:
    """Common identity for all metric instruments."""

    kind = "instrument"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels

    def label_str(self) -> str:
        if not self.labels:
            return ""
        return "{" + ",".join(f"{k}={v}" for k, v in self.labels) + "}"

    def snapshot(self) -> Dict[str, object]:
        raise NotImplementedError


class Counter(Instrument):
    """A monotonically increasing total (int or float)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        super().__init__(name, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge(Instrument):
    """A value that moves both ways (occupancy, share, factor)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        super().__init__(name, labels)
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


def bucket_quantile(
    buckets: Sequence[Sequence[float]], q: float
) -> Optional[float]:
    """Quantile ``q`` from (upper_bound, count) pairs, by linear
    interpolation within the containing bucket.

    The final bound may be +inf (the overflow bucket); a quantile
    landing there returns the last finite bound — a conservative
    underestimate, flagged to callers by equality with that bound.
    Returns None when the buckets hold no observations.
    """
    if not 0.0 <= q <= 1.0:
        raise ReproError(f"quantile must be in [0, 1], got {q}")
    total = sum(count for _bound, count in buckets)
    if total <= 0:
        return None
    target = q * total
    cumulative = 0.0
    previous_bound = 0.0
    last_finite = 0.0
    for bound, count in buckets:
        if count > 0 and cumulative + count >= target:
            if math.isinf(bound):
                return last_finite
            fraction = (target - cumulative) / count if count else 0.0
            return previous_bound + fraction * (bound - previous_bound)
        cumulative += count
        if not math.isinf(bound):
            previous_bound = bound
            last_finite = bound
    return last_finite


def occupied_buckets(
    bounds: Sequence[float], counts: Sequence[int]
) -> List[List[float]]:
    """The ``[upper_bound, count]`` pairs of the occupied buckets of
    ``counts`` (one per bound of ``bounds``, then the +inf overflow),
    each led by its lower edge's pair when that bucket is empty, so
    :func:`bucket_quantile` reads them as it reads every pair, and pair
    lists of one layout merge by summing per bound.  Empty when nothing
    is counted."""
    pairs: List[List[float]] = []
    last = len(bounds)
    for i, count in enumerate(counts):
        if count:
            if i and not counts[i - 1]:
                pairs.append([bounds[i - 1], 0])
            pairs.append([bounds[i] if i < last else math.inf, count])
    return pairs


class Histogram(Instrument):
    """A distribution: count/sum/min/max and bucket counts, nothing else.

    Every quantile is read from the bucket counts when asked for
    (:func:`bucket_quantile`), whole-run here and windowed by
    :mod:`repro.obs.timeseries` from bucket deltas: one model for both.

    Args:
        buckets: Increasing upper bounds; observations count into the
            first bucket whose bound is >= the value (an implicit +inf
            bucket catches the rest).  None is :data:`DEFAULT_BUCKETS`.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, labels)
        if buckets is None:
            bounds = DEFAULT_BUCKETS
        else:
            bounds = tuple(float(b) for b in buckets)
            if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
                raise ValueError(f"histogram {name} buckets must strictly increase")
        self.bucket_bounds: Tuple[float, ...] = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.bucket_bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The value at quantile ``q``: :func:`bucket_quantile` of the
        bucket counts, kept within the observed min and max (0.0 when
        empty)."""
        value = bucket_quantile(self.buckets(), q)
        return 0.0 if value is None else min(max(value, self.min), self.max)

    def quantiles(self) -> Dict[float, float]:
        """p50, p90 and p99: what the report and the snapshot show."""
        return {q: self.quantile(q) for q in (0.5, 0.9, 0.99)}

    def buckets(self) -> List[List[float]]:
        """The occupied ``[upper_bound, count]`` pairs
        (:func:`occupied_buckets`); the overflow bound is +inf."""
        return occupied_buckets(self.bucket_bounds, self.bucket_counts)

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "quantiles": {str(q): v for q, v in self.quantiles().items()},
            "buckets": self.buckets(),
        }


class MetricsRegistry:
    """Owns instruments, keyed by (name, labels); get-or-create semantics.

    ``enabled`` is the hot-path guard: instrumented code does::

        if registry.enabled:
            registry.counter("net.link.bytes", link=name).inc(n)

    so a :class:`NullRegistry` (enabled=False) costs one attribute read.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: "Dict[Tuple[str, str, LabelItems], Instrument]" = {}
        self._collectors: "List[weakref.WeakMethod]" = []

    # -- lazily credited sources -------------------------------------------
    def add_collector(self, hook) -> None:
        """Register a bound method that :meth:`settle` runs.

        For sources that credit their instruments lazily — fabric links
        settle per-packet accounting only when something looks — so that
        a reader always sees values current as of the simulated clock.
        Held weakly: a source that is garbage drops out on its own.
        """
        self._collectors.append(weakref.WeakMethod(hook))

    def settle(self) -> None:
        """Bring every lazily credited source up to date.  Every read
        of the registry (:meth:`collect`, :meth:`get`, :meth:`snapshot`,
        iteration) does this first; code holding instrument handles of
        its own calls it before reading them."""
        dead = False
        for ref in self._collectors:
            hook = ref()
            if hook is None:
                dead = True
            else:
                hook()
        if dead:
            self._collectors = [r for r in self._collectors if r() is not None]

    # -- get-or-create -----------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        key = (Histogram.kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Histogram(name, _label_key(labels), buckets=buckets)
            self._instruments[key] = instrument
        return instrument  # type: ignore[return-value]

    def _get_or_create(self, cls, name: str, labels: Dict[str, object]):
        key = (cls.kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, _label_key(labels))
            self._instruments[key] = instrument
        return instrument

    # -- introspection -----------------------------------------------------
    def collect(self, prefix: str = "") -> List[Instrument]:
        """All instruments (optionally name-prefix filtered), insertion order."""
        self.settle()
        return [
            inst
            for inst in self._instruments.values()
            if inst.name.startswith(prefix)
        ]

    def get(self, name: str, **labels: object) -> Optional[Instrument]:
        """Look up an existing instrument of any kind; None when absent."""
        self.settle()
        wanted = _label_key(labels)
        for inst in self._instruments.values():
            if inst.name == name and inst.labels == wanted:
                return inst
        return None

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-serialisable dump of every instrument."""
        self.settle()
        return [inst.snapshot() for inst in self._instruments.values()]

    def reset(self) -> None:
        self._instruments.clear()
        self._collectors.clear()

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        self.settle()
        return iter(list(self._instruments.values()))


class _NullCounter(Counter):
    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """Disabled registry: hands out shared no-op instruments.

    Instrumented constructors can fetch instruments unconditionally; the
    per-event paths stay free because they guard on ``enabled``.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null")

    def counter(self, name: str, **labels: object) -> Counter:
        return self._counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._gauge

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        return self._histogram

    def collect(self, prefix: str = "") -> List[Instrument]:
        return []

    def snapshot(self) -> List[Dict[str, object]]:
        return []


def get_registry() -> MetricsRegistry:
    """The current run's registry — what instrumented code defaults to.
    A :class:`NullRegistry` unless the run installed one
    (``use_run(registry=...)``, or ``--metrics`` on the runner)."""
    # Imported here: the run context is built on this module.
    from repro.runcontext import current_run

    return current_run().registry
