"""Live progress/health line for long simulator runs.

A 400-user scalability run used to be silent for minutes; this module
puts one updating line on stderr while any simulator is running::

    sim 12.40s | 1,284,503 events | 412.3k ev/s | 8.1 sim-s/s | drops 37 | eta 0:14

A run installs one painter (``use_run(progress=ProgressMonitor())``)
and every ``Simulator()`` constructed under it — however deep inside
experiment code — calls that painter every few thousand events.  The
painter rate-limits itself by wall clock across all of them, reads drop
counters out of the run's telemetry registry (reusing the
``console.decode.dropped`` / ``net.link.packets_dropped`` /
``net.link.packets_lost`` instruments instead of keeping parallel
counts), and estimates an ETA when the target simulated duration is
known.
"""

from __future__ import annotations

import sys
import time
from typing import IO, List, Optional

from repro.netsim.engine import Simulator
from repro.obs.timeseries import sparkline_rows
from repro.runcontext import current_run
from repro.telemetry.metrics import get_registry

__all__ = ["DashboardMonitor", "ProgressMonitor"]

#: Telemetry counters summed into the "drops" readout.
DROP_COUNTER_PREFIXES = (
    "console.decode.dropped",
    "net.link.packets_dropped",
    "net.link.packets_lost",
)

#: EMA smoothing for the windowed sim-rate readout: heavy enough to
#: follow diurnal load swings within a few repaints, light enough not
#: to jitter on one odd window.
SIM_RATE_ALPHA = 0.4


class _DropCounterCache:
    """Cached handles to the drop-counter instruments.

    ``registry.collect(prefix)`` walks every instrument; on a fleet run
    the registry holds thousands (per-console, per-link labels), so
    rescanning on every repaint turns the status line into a hot path.
    Instrument handles are stable once created, so the scan only needs
    to rerun when the registry changed identity or grew.
    """

    def __init__(self) -> None:
        self._key: Optional[tuple] = None
        self._instruments: List = []

    def total(self) -> int:
        registry = get_registry()
        if not registry.enabled:
            return 0
        key = (id(registry), len(registry))
        if key != self._key:
            self._key = key
            self._instruments = [
                inst
                for prefix in DROP_COUNTER_PREFIXES
                for inst in registry.collect(prefix)
            ]
        # Cached handles bypass the registry's read methods, so credit
        # the fabric's lazily settled loss counters explicitly.
        registry.settle()
        return sum(int(inst.value) for inst in self._instruments)


def _fmt_rate(per_second: float) -> str:
    if per_second >= 1e6:
        return f"{per_second / 1e6:.1f}M"
    if per_second >= 1e3:
        return f"{per_second / 1e3:.1f}k"
    return f"{per_second:.0f}"


class ProgressMonitor:
    """One live status line, updated in place, for whichever simulator
    of the run is executing.

    Args:
        target_sim_seconds: Simulated duration the run aims for; enables
            the ETA field.
        stream: Where the line goes (default stderr).
        min_interval: Wall seconds between repaints (the engine calls in
            every few thousand events; most calls return immediately).
        every: Engine callback granularity in events (read by
            :meth:`Simulator.add_monitor`).
    """

    def __init__(
        self,
        target_sim_seconds: Optional[float] = None,
        stream: Optional[IO[str]] = None,
        min_interval: float = 0.5,
        every: int = 5000,
    ) -> None:
        self.target_sim_seconds = target_sim_seconds
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.every = every
        self.updates_painted = 0
        self._started = time.perf_counter()
        self._last_paint = 0.0
        self._sim: Optional[Simulator] = None
        self._last_events = 0
        self._last_wall = self._started
        self._last_sim_now = 0.0
        self._sim_rate: Optional[float] = None
        self._drop_cache = _DropCounterCache()
        self._dirty = False

    # -- engine callback ----------------------------------------------------
    def __call__(self, sim: Simulator) -> None:
        now = time.perf_counter()
        if sim is not self._sim:
            # Another simulator of the run took over: its event count
            # and clock started again from zero, some time after the
            # last repaint.
            self._sim = sim
            self._last_events = 0
            self._last_sim_now = 0.0
        if now - self._last_paint < self.min_interval:
            return
        self.paint(sim, now)

    def _status_fields(self, sim: Simulator, now: float) -> List[str]:
        """Compute the health fields and roll the windowed state forward."""
        window = now - self._last_wall
        events_per_sec = (
            (sim.events_processed - self._last_events) / window
            if window > 0
            else 0.0
        )
        # Windowed sim-rate (EMA over repaint windows), not the lifetime
        # average: during a diurnal swing the lifetime figure can be 10x
        # off current throughput and the ETA with it.
        if window > 0:
            instant = (sim.now - self._last_sim_now) / window
            self._sim_rate = (
                instant
                if self._sim_rate is None
                else self._sim_rate + SIM_RATE_ALPHA * (instant - self._sim_rate)
            )
        sim_rate = self._sim_rate if self._sim_rate is not None else 0.0
        fields = [
            f"sim {sim.now:.2f}s",
            f"{sim.events_processed:,} events",
            f"{_fmt_rate(events_per_sec)} ev/s",
            f"{sim_rate:.1f} sim-s/s",
        ]
        drops = self._drop_cache.total()
        if drops:
            fields.append(f"drops {drops:,}")
        eta = self.eta_seconds(sim.now, sim_rate)
        if eta is not None:
            fields.append(f"eta {int(eta // 60)}:{int(eta % 60):02d}")
        self.updates_painted += 1
        self._last_paint = now
        self._last_events = sim.events_processed
        self._last_sim_now = sim.now
        self._last_wall = now
        return fields

    def paint(self, sim: Simulator, now: Optional[float] = None) -> None:
        """Repaint unconditionally (the rate limit lives in __call__)."""
        now = time.perf_counter() if now is None else now
        fields = self._status_fields(sim, now)
        self.stream.write("\r" + " | ".join(fields) + "\x1b[K")
        self.stream.flush()
        self._dirty = True

    def eta_seconds(
        self, sim_now: float, sim_rate: float
    ) -> Optional[float]:
        """Wall seconds to the target sim time, or None when unknowable."""
        if self.target_sim_seconds is None or sim_rate <= 0:
            return None
        remaining = self.target_sim_seconds - sim_now
        return max(0.0, remaining / sim_rate)

    def finish(self) -> None:
        """Terminate the in-place line so normal output continues below."""
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False


class DashboardMonitor(ProgressMonitor):
    """The status line grown into an updating multi-line mini-dashboard.

    On every repaint the health line is followed by one sparkline row
    per busy telemetry series, read from the current run's time-series
    collection at each repaint.  The block repaints in place with
    cursor-up ANSI sequences — across simulators too, the painter being
    the run's one — so a long fleet run shows a rolling live picture
    instead of a silent stretch.

    Args:
        max_series: Sparkline rows shown (busiest series first).
        width: Sparkline width in characters.
    """

    def __init__(
        self,
        max_series: int = 6,
        width: int = 48,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.max_series = max_series
        self.width = width
        self._lines_painted = 0

    def _series_rows(self) -> List[str]:
        collection = current_run().collection
        if collection is None or not collection.runs:
            return []
        run = max(collection.runs, key=lambda r: len(r.windows))
        keys = run.series_keys()
        # Busiest series first: the ones present in the most windows.
        coverage = {
            key: sum(
                1
                for record in run.windows
                if key in record.get(family + "s", {})
            )
            for key, family in keys.items()
        }
        chosen = sorted(coverage, key=lambda k: (-coverage[k], k))
        return sparkline_rows(
            run,
            {key: keys[key] for key in chosen[: self.max_series]},
            self.width,
        )

    def _flightrec_row(self) -> List[str]:
        recorder = current_run().recorder
        if recorder is None:
            return []
        return [f"  flightrec: {recorder.status_line()}"]

    def paint(self, sim: Simulator, now: Optional[float] = None) -> None:
        now = time.perf_counter() if now is None else now
        lines = [" | ".join(self._status_fields(sim, now))]
        lines.extend(self._series_rows())
        lines.extend(self._flightrec_row())
        out = []
        if self._lines_painted:
            # Back to the top of the previously painted block.
            out.append(f"\x1b[{self._lines_painted}F")
        out.extend(line + "\x1b[K\n" for line in lines)
        # A shrinking block leaves stale rows behind; blank them out.
        for _ in range(self._lines_painted - len(lines)):
            out.append("\x1b[K\n")
        self.stream.write("".join(out))
        self.stream.flush()
        self._lines_painted = max(self._lines_painted, len(lines))
        self._dirty = True

    def finish(self) -> None:
        # Every repaint ends below the block on its own line already.
        self._dirty = False
