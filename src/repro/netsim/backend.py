"""The simulation-engine API: what a backend must provide.

Everything in the reproduction that advances simulated time — links,
switches, transports, channels, experiments, perf scenarios — talks to
the engine through :class:`SimulationBackend`, a structural protocol of
the scheduling/execution/introspection surface.  Components therefore
never depend on the concrete event loop they run on:

* :class:`LocalBackend` (the classic :class:`~repro.netsim.engine.Simulator`)
  is the default — one process, one heap, one event queue.  It remains
  the fastest way to run anything that fits in a single process.
* :class:`~repro.netsim.sharded.ShardedBackend` partitions a topology
  across worker processes (one shard per workgroup/switch subtree) and
  synchronizes them with conservative lookahead; it implements the same
  protocol, so experiment code written against the interface scales from
  a workgroup to a campus fleet without changes.

The protocol is deliberately the *exact* surface :class:`Simulator`
already exposes — the PR-5 hot-path engine is untouched; the interface
is a seam, not a wrapper (no per-event indirection cost).
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, runtime_checkable

from repro.netsim.engine import Simulator

__all__ = ["SimulationBackend", "LocalBackend"]


@runtime_checkable
class SimulationBackend(Protocol):
    """Structural protocol for simulation engines.

    Attributes:
        now: Current simulated time, seconds.
        events_processed: Total events fired over the backend's lifetime
            (for a sharded backend: control-plane plus all shards, as of
            the last synchronization barrier).
    """

    now: float
    events_processed: int

    # -- scheduling ------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now.

        Tiny negative delays (float round-off, magnitude <= the engine's
        epsilon) are clamped to zero; genuinely negative delays raise.
        """
        ...

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``when`` (>= ``now``)."""
        ...

    # -- execution ----------------------------------------------------------------
    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        ...

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` fire)."""
        ...

    def run_until(self, deadline: float) -> None:
        """Run events with timestamps <= ``deadline``; clock ends there."""
        ...

    def stop(self) -> None:
        """Abort the current run after the in-flight event returns."""
        ...

    def add_monitor(
        self,
        monitor: Callable[["SimulationBackend"], None],
        every: Optional[int] = None,
    ) -> None:
        """Add a callback fired every ``every`` events (default: the
        monitor's ``every`` attribute, else the engine's default)."""
        ...

    def at_idle(self, hook: Callable[[], None]) -> None:
        """Call ``hook()`` every time the engine hands control back to
        its caller (lazily accounted components close their books)."""
        ...

    # -- introspection --------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of scheduled events not yet fired."""
        ...

    def peek_next_time(self) -> Optional[float]:
        """Timestamp of the next event, or None when idle."""
        ...

    @property
    def horizon(self) -> float:
        """How far lazily kept books may be settled: ``now``, or
        ``inf`` once :meth:`run` has drained the queue."""
        ...


#: The default backend: the single-process discrete-event engine.  An
#: alias rather than a subclass — ``Simulator`` *is* the local backend,
#: and the hot loop must not gain an inheritance hop.
LocalBackend = Simulator
