"""Zero-dependency metrics: counters, gauges, histograms, registries.

The paper's evaluation is measurement end to end — per-command byte
counts, queueing delays, decode costs, CPU shares — so the reproduction
carries a uniform metrics layer that every subsystem reports into.  The
design follows the usual three-instrument model:

* :class:`Counter` — monotonically increasing totals (bytes sent,
  commands decoded, packets dropped).
* :class:`Gauge` — a value that goes up and down (CPU share, queue
  occupancy sampled at an instant).
* :class:`Histogram` — a distribution: fixed bucket counts plus
  streaming quantile estimates (the P² algorithm, so long runs never
  accumulate per-observation state).

Instruments live in a :class:`MetricsRegistry`, keyed by name plus
labels.  Components accept an injectable registry and fall back to the
current run's (:func:`get_registry`), which defaults to a
:class:`NullRegistry` whose instruments are shared no-ops — the hot
paths guard on ``registry.enabled`` so disabled telemetry costs one
attribute read.  Experiments that need isolation install their own
registry with :func:`repro.runcontext.use_run` or pass one explicitly.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
]

LabelItems = Tuple[Tuple[str, str], ...]

#: Default streaming-quantile targets kept by every histogram.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


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


class P2Quantile:
    """Streaming quantile estimation — the P² algorithm (Jain & Chlamtac).

    Tracks one quantile with five markers in O(1) space.  Exact while
    fewer than five observations have arrived.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._initial: List[float] = []
        self._heights: Optional[List[float]] = None
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments: List[float] = []

    def observe(self, x: float) -> None:
        heights = self._heights
        if heights is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                q = self.q
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
                self._increments = [0.0, q / 2, q, (1 + q) / 2, 1.0]
            return
        # Locate the cell containing x, extending the extremes if needed.
        if x < heights[0]:
            heights[0] = x
            cell = 0
        elif x >= heights[4]:
            heights[4] = x
            cell = 3
        else:
            cell = 0
            while cell < 3 and not (heights[cell] <= x < heights[cell + 1]):
                cell += 1
        for i in range(cell + 1, 5):
            self._positions[i] += 1
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = self._desired[i] - self._positions[i]
            pos, lo, hi = self._positions[i], self._positions[i - 1], self._positions[i + 1]
            if (delta >= 1 and hi - pos > 1) or (delta <= -1 and lo - pos < -1):
                step = 1.0 if delta >= 1 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                self._positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        assert h is not None
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        assert h is not None
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate (exact for < 5 observations; 0.0 when empty)."""
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return 0.0
        ordered = sorted(self._initial)
        # Linear interpolation over the exact sample.
        rank = self.q * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac


class Histogram(Instrument):
    """A distribution: count/sum/min/max, fixed buckets, streaming quantiles.

    Args:
        buckets: Optional increasing upper bounds; observations count into
            the first bucket whose bound is >= the value (an implicit
            +inf bucket catches the rest).  None keeps quantiles only.
        quantiles: Quantile targets estimated by P² in O(1) space.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: Optional[Sequence[float]] = None,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> None:
        super().__init__(name, labels)
        if buckets is not None:
            bounds = [float(b) for b in buckets]
            if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
                raise ValueError(f"histogram {name} buckets must strictly increase")
            self.bucket_bounds: Optional[Tuple[float, ...]] = tuple(bounds)
            self.bucket_counts = [0] * (len(bounds) + 1)
        else:
            self.bucket_bounds = None
            self.bucket_counts = []
        self._estimators = {q: P2Quantile(q) for q in quantiles}
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
        if self.bucket_bounds is not None:
            index = len(self.bucket_bounds)
            for i, bound in enumerate(self.bucket_bounds):
                if value <= bound:
                    index = i
                    break
            self.bucket_counts[index] += 1
        for estimator in self._estimators.values():
            estimator.observe(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` (must be a configured target)."""
        try:
            return self._estimators[q].value()
        except KeyError:
            raise KeyError(
                f"histogram {self.name} does not track q={q}; "
                f"configured: {sorted(self._estimators)}"
            ) from None

    def quantiles(self) -> Dict[float, float]:
        return {q: est.value() for q, est in sorted(self._estimators.items())}

    def buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, count) pairs; the final bound is +inf."""
        if self.bucket_bounds is None:
            return []
        bounds = list(self.bucket_bounds) + [float("inf")]
        return list(zip(bounds, self.bucket_counts))

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
            "buckets": [[b, c] for b, c in self.buckets()],
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
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        **labels: object,
    ) -> Histogram:
        key = (Histogram.kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Histogram(
                name, _label_key(labels), buckets=buckets, quantiles=quantiles
            )
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
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
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
